"""Mini-batch training loop, optimizers and checkpoint persistence.

Training pairs a sample's visual feature with its class's semantic
vectors. Every epoch the samples are reshuffled (seeded), split into
mini-batches (the last batch may be short), and one optimizer step is
taken per batch. A batch's semantic inputs hold one row per distinct
class of the batch, in class order, and each sample names its class's
row (``rows`` of ``EmbeddingModel.loss_and_grad``), so the semantic
branch runs once per class and not once per sample. Checkpoints written
by versions that ran it per sample are not byte-equal to new ones (the
sums differ in their last bits); reruns and ``ablate --jobs`` settings
stay byte-identical to one another. The learning rate at epoch ``e`` is
exactly ``lr * lr_decay ** e``.

Checkpoints are a single binary file: magic ``ZSLC``, u32 LE version,
a length-prefixed ``key = value`` text block holding the architecture
config, the model's flat parameter vector (float64 LE, in ``param_shapes``
order, which the config fixes), and a trailing CRC32 of everything before
it. Round-trips are bit-exact. Saving and loading stream the vector
straight between the file and the model, updating the CRC32 as they go,
so neither holds a copy of the file; a loaded model is returned only
after its CRC32 has been verified.
"""

from __future__ import annotations

import dataclasses
import math
import os
import struct
import zlib
from pathlib import Path
from typing import Iterable

import numpy as np

from .data import Dataset
from .network import EmbeddingModel, NetConfig, ParamBuffer, _BLOCK, _blocks, init_model, param_shapes

CHECKPOINT_MAGIC = b"ZSLC"
CHECKPOINT_VERSION = 3

OPTIMIZERS = ("adam", "sgd")

# a batch loss this many times the first batch's stops training as diverged; Adam
# runs of the synthetic ablation grid stay below 1.1 times
DIVERGENCE_RATIO = 1e3


@dataclasses.dataclass(frozen=True)
class TrainConfig:
    """Optimizer choice and loop settings.

    ``optimizer`` is ``adam`` or ``sgd`` (SGD with momentum; momentum 0
    gives plain SGD). The weight penalty is ``NetConfig.l2_lambda``.
    """

    optimizer: str = "adam"
    lr: float = 1e-4
    momentum: float = 0.9
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    batch_size: int = 256
    epochs: int = 200
    lr_decay: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"optimizer must be one of {OPTIMIZERS}, got {self.optimizer!r}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be positive and finite, got {self.lr}")
        if not 0 <= self.momentum < 1:
            raise ValueError("momentum must be in [0, 1)")
        if not 0 < self.beta1 < 1 or not 0 < self.beta2 < 1:
            raise ValueError("beta1 and beta2 must be in (0, 1)")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.epochs < 1:
            raise ValueError(f"epochs must be at least 1, got {self.epochs}")
        if not 0 < self.lr_decay <= 1:
            raise ValueError("lr_decay must be in (0, 1]")


@dataclasses.dataclass
class TrainHistory:
    """Per-epoch mean loss and the learning rate each epoch ran with."""

    losses: list[float] = dataclasses.field(default_factory=list)
    lrs: list[float] = dataclasses.field(default_factory=list)

    def __len__(self) -> int:
        return len(self.losses)


class Adam:
    """Adam with bias correction over a whole flat parameter vector."""

    def __init__(self, params: ParamBuffer, config: TrainConfig):
        self.params = params
        self.lr = config.lr
        self.beta1 = config.beta1
        self.beta2 = config.beta2
        self.epsilon = config.epsilon
        self.m = np.zeros_like(params.flat)
        self.v = np.zeros_like(params.flat)
        self.scratch = np.empty(min(_BLOCK, params.flat.size))
        self.steps = 0

    def step(self, grad: np.ndarray) -> None:
        """Update ``params.flat`` from ``grad`` (same layout), using ``grad`` as scratch."""
        if grad.shape != self.params.flat.shape:
            raise ValueError(f"gradient shape {grad.shape} does not match {self.params.flat.shape}")
        self.steps += 1
        c1 = 1.0 - self.beta1 ** self.steps
        c2 = 1.0 - self.beta2 ** self.steps
        for p, g, m, v in _blocks(self.params.flat, grad, self.m, self.v):
            s = self.scratch[: p.size]
            np.multiply(g, 1.0 - self.beta1, out=s)
            m *= self.beta1
            m += s
            np.multiply(g, g, out=s)
            s *= 1.0 - self.beta2
            v *= self.beta2
            v += s
            # p -= lr * (m / c1) / (sqrt(v / c2) + eps), in place
            np.divide(m, c1, out=s)
            s *= self.lr
            np.divide(v, c2, out=g)
            np.sqrt(g, out=g)
            g += self.epsilon
            s /= g
            p -= s


class SgdMomentum:
    """Classic momentum over a whole flat parameter vector: u <- mu*u + g; p <- p - lr*u."""

    def __init__(self, params: ParamBuffer, config: TrainConfig):
        self.params = params
        self.lr = config.lr
        self.momentum = config.momentum
        self.velocity = np.zeros_like(params.flat)

    def step(self, grad: np.ndarray) -> None:
        """Update ``params.flat`` from ``grad`` (same layout), using ``grad`` as scratch."""
        if grad.shape != self.params.flat.shape:
            raise ValueError(f"gradient shape {grad.shape} does not match {self.params.flat.shape}")
        for p, g, u in _blocks(self.params.flat, grad, self.velocity):
            u *= self.momentum
            u += g
            np.multiply(u, self.lr, out=g)
            p -= g


def train(
    dataset: Dataset,
    net_config: NetConfig,
    train_config: TrainConfig,
    active: Iterable[str],
) -> tuple[EmbeddingModel, TrainHistory]:
    """Train an embedding model on the dataset's seen classes.

    The model holds the heads of ``active`` and the shared layer (s2v) or
    the visual map (v2s), as ``init_model`` draws them for ``net_config``.
    Each batch's semantic inputs hold one row per distinct class, in class
    order, with ``rows`` naming each sample's. The same seed drives both
    initialization and shuffling, so the run is fully deterministic.
    Returns the trained model and per-epoch history. Raises ValueError
    naming the epoch and batch if a batch loss is not finite or more than
    ``DIVERGENCE_RATIO`` times the first batch's, as when too large a
    learning rate makes training diverge.
    """
    tags = net_config.check_active(active)
    if net_config.embed_dim != dataset.visual.dim:
        raise ValueError(
            f"embed_dim {net_config.embed_dim} does not match "
            f"visual feature dim {dataset.visual.dim}"
        )
    model = init_model(net_config, train_config.seed, tags)
    history = TrainHistory()
    n = dataset.visual.rows
    if n == 0:
        raise ValueError("empty training set")
    targets = dataset.visual.values
    # one semantic row per seen class; a sample's class is at its label's position
    classes, positions = np.unique(dataset.visual.labels, return_inverse=True)
    semantics = {tag: dataset.table(tag).matrix(classes) for tag in tags}
    slot = np.empty(classes.size, dtype=np.intp)  # each class's row in the current batch

    optimizer = (Adam if train_config.optimizer == "adam" else SgdMomentum)(model.params, train_config)
    grads = ParamBuffer(param_shapes(model.config))  # every step overwrites it
    rng = np.random.default_rng(train_config.seed)
    first = None
    for epoch in range(train_config.epochs):
        optimizer.lr = train_config.lr * train_config.lr_decay**epoch
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, train_config.batch_size):
            idx = order[start : start + train_config.batch_size]
            labels = positions[idx]
            present = np.flatnonzero(np.bincount(labels))  # the batch's classes, in class order
            slot[present] = np.arange(present.size)
            batch = {tag: semantics[tag][present] for tag in tags}
            loss, _ = model.loss_and_grad(batch, targets[idx], tags, out=grads, rows=slot[labels])
            first = loss if first is None else first
            if not math.isfinite(loss) or loss > DIVERGENCE_RATIO * first:
                raise ValueError(
                    f"training diverged: loss {loss} at epoch {epoch}, "
                    f"batch {start // train_config.batch_size} (first batch: {first})"
                )
            optimizer.step(grads.flat)
            total += loss * idx.size
        history.losses.append(total / n)
        history.lrs.append(optimizer.lr)
    return model, history


def save_history(history: TrainHistory, path: str | Path) -> None:
    """Write the history as ``epoch,loss,lr`` CSV with full-precision floats."""
    lines = ["epoch,loss,lr"]
    for epoch, (loss, lr) in enumerate(zip(history.losses, history.lrs)):
        lines.append(f"{epoch},{repr(float(loss))},{repr(float(lr))}")
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# checkpoints


def _encode_config(config: NetConfig) -> bytes:
    """One ``key = value`` line per NetConfig field, in key order."""
    fields = dataclasses.asdict(config)
    fields["modality_dims"] = ",".join(f"{tag}:{dim}" for tag, dim in config.modality_dims.items())
    fields["l2_lambda"] = repr(float(config.l2_lambda))
    return "\n".join(f"{key} = {value}" for key, value in sorted(fields.items())).encode("utf-8")


def _decode_config(blob: bytes) -> NetConfig:
    """Inverse of ``_encode_config``: one line per NetConfig field and no other.

    Each value but ``modality_dims`` parses as the type of its field's default.
    """
    try:
        pairs = [line.split(" = ", 1) for line in blob.decode("utf-8").splitlines()]
        values = dict(pairs)
        kinds = {f.name: type(f.default) for f in dataclasses.fields(NetConfig)}
        if len(values) != len(pairs) or values.keys() != kinds.keys():
            raise ValueError(f"keys {sorted(key for key, _ in pairs)}, expected {sorted(kinds)}")
        dims = (item.split(":") for item in values.pop("modality_dims").split(","))
        return NetConfig(
            modality_dims={tag: int(dim) for tag, dim in dims},
            **{key: kinds[key](value) for key, value in values.items()},
        )
    except ValueError as exc:
        raise ValueError(f"corrupted payload (config block: {exc})") from None


def _check_finite(path: str | Path, params: ParamBuffer) -> None:
    """Two reductions per array (NaN propagates through both), so no temporary
    is allocated; the error names the first non-finite parameter in buffer order."""
    for name, arr in params.items():
        if not (math.isfinite(arr.min()) and math.isfinite(arr.max())):
            raise ValueError(f"{path}: parameter {name} is not finite")


def save_checkpoint(model: EmbeddingModel, path: str | Path) -> None:
    """Serialize config and parameters; identical models produce identical bytes.

    The parameter vector is written straight from the model in one chunk,
    with the CRC32 updated as it goes. Raises ValueError naming the
    parameter, before the file is opened, if any value is not finite.
    """
    _check_finite(path, model.params)
    blob = _encode_config(model.config)
    head = struct.pack("<4sII", CHECKPOINT_MAGIC, CHECKPOINT_VERSION, len(blob))
    crc = 0
    with open(path, "wb") as fh:
        for chunk in (head, blob, model.params.flat.astype("<f8", copy=False)):
            crc = zlib.crc32(chunk, crc)
            fh.write(chunk)
        fh.write(struct.pack("<I", crc))


def load_checkpoint(path: str | Path) -> EmbeddingModel:
    """Read a checkpoint back into a model, verifying the trailing checksum.

    The config block fixes every parameter's name, shape and place in the
    flat vector, so the bytes after it must be exactly that vector; its
    size is checked against the file's before anything is allocated, and
    it is read straight into the model with the CRC32 updated as it goes.
    Once the CRC32 has passed, every parameter value must be finite.
    """
    with open(path, "rb") as fh:
        head = fh.read(12)
        if len(head) < 8 or head[:4] != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: malformed header")
        (version,) = struct.unpack_from("<I", head, 4)
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported version {version}")
        config_len = int.from_bytes(head[8:], "little")  # a file under 12 bytes fails below
        # the parameter bytes: what follows the config block, less the trailing CRC32
        payload = os.fstat(fh.fileno()).st_size - 16 - config_len
        if payload < 0:
            raise ValueError(f"{path}: corrupted payload (truncated)")
        blob = fh.read(config_len)
        try:
            config = _decode_config(blob)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        need = 8 * sum(math.prod(shape) for shape in param_shapes(config).values())
        if payload != need:
            raise ValueError(f"{path}: corrupted payload ({payload} parameter bytes, the config needs {need})")
        model = EmbeddingModel(config)
        view = memoryview(model.params.flat).cast("B")
        fh.readinto(view)  # a short read leaves the CRC32 unread, and so mismatched
        crc = zlib.crc32(view, zlib.crc32(blob, zlib.crc32(head)))
        if fh.read(4) != struct.pack("<I", crc):
            raise ValueError(f"{path}: corrupted payload (checksum mismatch)")
    if not np.little_endian:
        model.params.flat.byteswap(inplace=True)
    _check_finite(path, model.params)
    return model

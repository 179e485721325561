"""Mini-batch training loop, optimizers and checkpoint persistence.

Training pairs a sample's visual feature with its class's semantic
vectors. Every epoch the samples are reshuffled (seeded), split into
mini-batches (the last batch may be short), and one optimizer step is
taken per batch. For s2v a batch's semantic inputs hold one row per
distinct class of the batch, in class order, and each sample names its
class's row (``rows`` of ``EmbeddingModel.loss_and_grad``; without it,
input row ``i`` would be target ``i``'s), so the semantic branch runs
once per class and not once per sample. v2s regresses onto fixed fused
class rows, so a run fuses its seen-class table once and each sample
names its class's row of it. Reruns and ``ablate --jobs`` settings are
byte-identical. ``fuse`` checks the semantic inputs against each other;
the loss checks the targets' width as ``map_visual`` checks the features
it scores, so a dataset not ``embed_dim`` wide fails at the first step.
The optimizer and the gradient buffer cover ``EmbeddingModel.trained``
alone, so a v2s model's fixed heads hold no optimizer state. Every step
runs at the one ``lr`` set; Adam uses ``ADAM_BETA1``, ``ADAM_BETA2`` and
``ADAM_EPSILON``, the defaults of Kingma and Ba, and SGD uses
``SGD_MOMENTUM``. Adam keeps its moments scaled by ``1 / (1 - beta)``,
which folds the bias corrections and ``lr`` into two scalars per step;
its updates differ from Kingma and Ba's form only in rounding.

Checkpoints are a single binary file: magic ``ZSLC``, u32 LE version,
a length-prefixed ``key = value`` text block holding the architecture
config, the model's flat parameter vector (float64 LE, in ``param_shapes``
order, which the config fixes: the trained span first), and a trailing
CRC32 of everything before it. Round-trips are bit-exact. Version 3 put
a v2s model's heads before its visual map, in a vector of the same size,
so it is refused. Saving and loading stream the vector
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

from .data import Dataset, parse_modality_dims
from .network import V_TO_S, EmbeddingModel, NetConfig, ParamBuffer, _BLOCK, _blocks, init_model, param_shapes

CHECKPOINT_MAGIC = b"ZSLC"
CHECKPOINT_VERSION = 4

OPTIMIZERS = ("adam", "sgd")

# a batch loss this many times the first batch's stops training as diverged; Adam
# runs of the synthetic ablation grid stay below 1.1 times
DIVERGENCE_RATIO = 1e3

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8
SGD_MOMENTUM = 0.9


@dataclasses.dataclass(frozen=True)
class TrainConfig:
    """Optimizer choice and loop settings.

    ``optimizer`` is ``adam`` or ``sgd`` (SGD with momentum). The weight
    penalty is ``NetConfig.l2_lambda``.
    """

    optimizer: str = "adam"
    lr: float = 1e-4
    batch_size: int = 256
    epochs: int = 200
    seed: int = 0

    def __post_init__(self) -> None:
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"optimizer must be one of {OPTIMIZERS}, got {self.optimizer!r}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be positive and finite, got {self.lr}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.epochs < 1:
            raise ValueError(f"epochs must be at least 1, got {self.epochs}")


@dataclasses.dataclass
class TrainHistory:
    """Per-epoch mean loss and the learning rate the run trained at."""

    lr: float
    losses: list[float] = dataclasses.field(default_factory=list)


class Adam:
    """Adam with bias correction over a whole flat parameter vector.

    The moments are Kingma and Ba's scaled by ``1 / (1 - beta)``, so a step
    is ``m <- beta1*m + g``, ``v <- beta2*v + g*g`` and ``p <- p - (m*a) /
    (sqrt(v*b) + eps)`` with ``a = lr*(1 - beta1)/c1`` and ``b = (1 -
    beta2)/c2``: 11 passes over a block, with one divide and one sqrt.
    """

    def __init__(self, params: ParamBuffer, lr: float):
        self.params = params
        self.lr = lr
        self.m = np.zeros_like(params.flat)
        self.v = np.zeros_like(params.flat)
        self.scratch = np.empty(min(_BLOCK, params.flat.size))
        self.steps = 0

    def step(self, grad: np.ndarray) -> None:
        """Update ``params.flat`` from ``grad`` (same layout), using ``grad`` as scratch."""
        if grad.shape != self.params.flat.shape:
            raise ValueError(f"gradient shape {grad.shape} does not match {self.params.flat.shape}")
        self.steps += 1
        a = self.lr * (1.0 - ADAM_BETA1) / (1.0 - ADAM_BETA1 ** self.steps)
        b = (1.0 - ADAM_BETA2) / (1.0 - ADAM_BETA2 ** self.steps)
        for p, g, m, v in _blocks(self.params.flat, grad, self.m, self.v):
            s = self.scratch[: p.size]
            m *= ADAM_BETA1
            m += g
            g *= g
            v *= ADAM_BETA2
            v += g
            np.multiply(v, b, out=g)
            np.sqrt(g, out=g)
            g += ADAM_EPSILON
            np.multiply(m, a, out=s)
            s /= g
            p -= s


class SgdMomentum:
    """Classic momentum over a whole flat parameter vector: u <- mu*u + g; p <- p - lr*u."""

    def __init__(self, params: ParamBuffer, lr: float):
        self.params = params
        self.lr = lr
        self.velocity = np.zeros_like(params.flat)

    def step(self, grad: np.ndarray) -> None:
        """Update ``params.flat`` from ``grad`` (same layout), using ``grad`` as scratch."""
        if grad.shape != self.params.flat.shape:
            raise ValueError(f"gradient shape {grad.shape} does not match {self.params.flat.shape}")
        for p, g, u in _blocks(self.params.flat, grad, self.velocity):
            u *= SGD_MOMENTUM
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
    For s2v each batch's semantic inputs hold one row per distinct class,
    in class order, with ``rows`` naming each sample's; for v2s the heads
    run once, on every seen class, and ``rows`` indexes that fused table.
    Its rows are bitwise those of fusing a batch's classes alone, except
    for a 1-class batch, whose heads run as a matrix-vector product that
    rounds differently. The same seed drives both initialization and
    shuffling, so the run is fully deterministic.
    Returns the trained model and per-epoch history. Raises ValueError
    naming the epoch and batch if a batch loss is not finite or more than
    ``DIVERGENCE_RATIO`` times the first batch's, as when too large a
    learning rate makes training diverge.
    """
    model = init_model(net_config, train_config.seed, active)
    tags = model.config.tags
    history = TrainHistory(train_config.lr)
    n = dataset.visual.rows
    if n == 0:
        raise ValueError("empty training set")
    targets = dataset.visual.values
    # one semantic row per seen class; a sample's class is at its label's position
    classes, positions = np.unique(dataset.visual.labels, return_inverse=True)
    semantics = {tag: dataset.table(tag).matrix(classes) for tag in tags}
    # v2s regresses onto fixed fused class rows: fuse every seen class once
    fused = model.embed(semantics, tags) if model.config.direction == V_TO_S else None
    slot = np.empty(classes.size, dtype=np.intp)  # each class's row in the current s2v batch

    optimizer = (Adam if train_config.optimizer == "adam" else SgdMomentum)(model.trained, train_config.lr)
    grads = ParamBuffer(param_shapes(model.config, trained=True))  # every step overwrites it
    rng = np.random.default_rng(train_config.seed)
    first = None
    for epoch in range(train_config.epochs):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, train_config.batch_size):
            idx = order[start : start + train_config.batch_size]
            inputs, rows = fused, positions[idx]
            if fused is None:  # s2v: the batch's classes, in class order
                present = np.flatnonzero(np.bincount(rows))
                slot[present] = np.arange(present.size)
                inputs, rows = {tag: semantics[tag][present] for tag in tags}, slot[rows]
            loss, _ = model.loss_and_grad(inputs, targets[idx], tags, out=grads, rows=rows)
            first = loss if first is None else first
            if not math.isfinite(loss) or loss > DIVERGENCE_RATIO * first:
                raise ValueError(
                    f"training diverged: loss {loss} at epoch {epoch}, "
                    f"batch {start // train_config.batch_size} (first batch: {first})"
                )
            optimizer.step(grads.flat)
            total += loss * idx.size
        history.losses.append(total / n)
    return model, history


def save_history(history: TrainHistory, path: str | Path) -> None:
    """Write the history as ``epoch,loss,lr`` CSV with full-precision floats."""
    lines = ["epoch,loss,lr"]
    for epoch, loss in enumerate(history.losses):
        lines.append(f"{epoch},{repr(float(loss))},{repr(float(history.lr))}")
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

    ``modality_dims`` parses as ``TAG:dim`` items, ``embed_dim`` as an int
    and every other value as the type of its field's default.
    """
    try:
        pairs = [line.split(" = ", 1) for line in blob.decode("utf-8").splitlines()]
        for i, pair in enumerate(pairs, 1):
            if len(pair) != 2:
                raise ValueError(f"line {i} {pair[0]!r} is not 'key = value'")
        values = dict(pairs)
        kinds = {f.name: type(f.default) for f in dataclasses.fields(NetConfig)}
        kinds.update(modality_dims=parse_modality_dims, embed_dim=int)
        if len(values) != len(pairs) or values.keys() != kinds.keys():
            raise ValueError(f"keys {sorted(key for key, _ in pairs)}, expected {sorted(kinds)}")
        return NetConfig(**{key: kinds[key](value) for key, value in values.items()})
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

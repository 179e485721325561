"""Mini-batch training loop, optimizers and checkpoint persistence.

Training pairs a sample's visual feature with its class's semantic
vectors. Every epoch the pairs are reshuffled (seeded), split into
mini-batches (the last batch may be short), and one optimizer step is
taken per batch. The learning rate at epoch ``e`` is exactly
``lr * lr_decay ** e``.

Checkpoints are a single binary file: magic ``ZSLC``, u32 LE version,
a length-prefixed ``key = value`` text block holding the architecture
config, the parameter arrays (name, shape, float64 LE data), and a
trailing CRC32 of everything before it. Round-trips are bit-exact.
"""

from __future__ import annotations

import dataclasses
import math
import struct
import zlib
from pathlib import Path
from typing import Iterable

import numpy as np

from .data import Dataset
from .network import EmbeddingModel, NetConfig, ParamBuffer, init_model, param_shapes

CHECKPOINT_MAGIC = b"ZSLC"
CHECKPOINT_VERSION = 2

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
    shuffle: bool = True

    def __post_init__(self) -> None:
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"optimizer must be one of {OPTIMIZERS}, got {self.optimizer!r}")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if not 0 <= self.momentum < 1:
            raise ValueError("momentum must be in [0, 1)")
        if not 0 < self.beta1 < 1 or not 0 < self.beta2 < 1:
            raise ValueError("beta1 and beta2 must be in (0, 1)")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if not 0 < self.lr_decay <= 1:
            raise ValueError("lr_decay must be in (0, 1]")


@dataclasses.dataclass
class TrainHistory:
    """Per-epoch mean loss and the learning rate each epoch ran with."""

    losses: list[float] = dataclasses.field(default_factory=list)
    lrs: list[float] = dataclasses.field(default_factory=list)

    def __len__(self) -> int:
        return len(self.losses)


# elements per optimizer pass: a block of each vector an update touches fits in L2
_BLOCK = 1 << 15


def _blocks(*vectors: np.ndarray):
    """Matching cache-sized slices of equally long vectors."""
    for lo in range(0, vectors[0].size, _BLOCK):
        yield [v[lo : lo + _BLOCK] for v in vectors]


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
        self.steps = 0

    def step(self, grad: np.ndarray) -> None:
        """Update ``params.flat`` from ``grad`` (same layout), using ``grad`` as scratch."""
        if grad.shape != self.params.flat.shape:
            raise ValueError(f"gradient shape {grad.shape} does not match {self.params.flat.shape}")
        self.steps += 1
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
    The same seed drives both initialization and shuffling, so the run is
    fully deterministic. Returns the trained model and per-epoch history.
    Raises ValueError naming the epoch and batch if a batch loss is not
    finite or more than ``DIVERGENCE_RATIO`` times the first batch's, as
    when too large a learning rate makes training diverge.
    """
    tags = net_config.check_active(active)
    if net_config.embed_dim != dataset.visual.dim:
        raise ValueError(
            f"embed_dim {net_config.embed_dim} does not match "
            f"visual feature dim {dataset.visual.dim}"
        )
    model = init_model(net_config, train_config.seed, tags)
    history = TrainHistory()
    if train_config.epochs == 0:
        return model, history

    n = dataset.visual.rows
    if n == 0:
        raise ValueError("empty training set")
    targets = dataset.visual.values
    # one semantic row per seen class; a sample's row is at its label's position
    classes, positions = np.unique(dataset.visual.labels, return_inverse=True)
    semantics = {tag: dataset.table(tag).matrix(classes) for tag in tags}

    optimizer = (Adam if train_config.optimizer == "adam" else SgdMomentum)(model.params, train_config)
    rng = np.random.default_rng(train_config.seed)
    first = None
    for epoch in range(train_config.epochs):
        optimizer.lr = train_config.lr * train_config.lr_decay**epoch
        order = rng.permutation(n) if train_config.shuffle else np.arange(n)
        total = 0.0
        for start in range(0, n, train_config.batch_size):
            idx = order[start : start + train_config.batch_size]
            rows = positions[idx]
            batch = {tag: semantics[tag][rows] for tag in tags}
            loss, grads = model.loss_and_grad(batch, targets[idx], tags)
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
    """Inverse of ``_encode_config``."""
    try:
        fields = dict(line.split(" = ", 1) for line in blob.decode("utf-8").splitlines())
        dims = (item.split(":") for item in fields["modality_dims"].split(","))
        return NetConfig(
            modality_dims={tag: int(dim) for tag, dim in dims},
            head_hidden=int(fields["head_hidden"]),
            head_out=int(fields["head_out"]),
            embed_dim=int(fields["embed_dim"]),
            direction=fields["direction"],
            l2_lambda=float(fields["l2_lambda"]),
        )
    except (KeyError, ValueError) as exc:
        raise ValueError(f"corrupted payload (config block: {exc})") from None


def _records(params: ParamBuffer):
    """Each parameter's name, record header (name and shape) and array, in file order."""
    for name in sorted(params):
        arr = params[name]
        encoded = name.encode("utf-8")
        header = struct.pack(f"<H{len(encoded)}sB{arr.ndim}Q", len(encoded), encoded, arr.ndim, *arr.shape)
        yield name, header, arr


def _check_finite(path: str | Path, name: str, arr: np.ndarray) -> None:
    """One parameter array at a time, so no model-sized temporary is allocated."""
    if not np.isfinite(arr).all():
        raise ValueError(f"{path}: parameter {name} is not finite")


def save_checkpoint(model: EmbeddingModel, path: str | Path) -> None:
    """Serialize config and parameters; identical models produce identical bytes.

    Raises ValueError naming the parameter if any value is not finite.
    """
    buf = bytearray()
    buf += CHECKPOINT_MAGIC
    buf += struct.pack("<I", CHECKPOINT_VERSION)
    config_blob = _encode_config(model.config)
    buf += struct.pack("<I", len(config_blob))
    buf += config_blob
    buf += struct.pack("<I", len(model.params))
    for name, header, arr in _records(model.params):
        _check_finite(path, name, arr)
        buf += header
        buf += arr.astype("<f8", copy=False).tobytes()
    buf += struct.pack("<I", zlib.crc32(buf))
    Path(path).write_bytes(buf)


def load_checkpoint(path: str | Path) -> EmbeddingModel:
    """Read a checkpoint back into a model, verifying the trailing checksum.

    The config block fixes every parameter's name and shape, so each
    record header must match the one ``save_checkpoint`` would write, and
    every parameter value must be finite.
    """
    data = Path(path).read_bytes()
    if len(data) < 8 or data[:4] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: malformed header")
    (version,) = struct.unpack_from("<I", data, 4)
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported version {version}")
    if len(data) < 12:
        raise ValueError(f"{path}: corrupted payload (truncated)")
    body, stored = memoryview(data)[:-4], struct.unpack("<I", data[-4:])[0]
    if zlib.crc32(body) != stored:
        raise ValueError(f"{path}: corrupted payload (checksum mismatch)")

    def take(start: int, n: int) -> bytes:
        if start + n > len(body):
            raise ValueError(f"{path}: corrupted payload (truncated)")
        return body[start : start + n]

    (config_len,) = struct.unpack("<I", take(8, 4))
    try:
        config = _decode_config(bytes(take(12, config_len)))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if 8 * sum(math.prod(shape) for shape in param_shapes(config).values()) > len(body):
        raise ValueError(f"{path}: corrupted payload (truncated)")
    model = EmbeddingModel(config)
    off = 12 + config_len
    if take(off, 4) != struct.pack("<I", len(model.params)):
        raise ValueError(f"{path}: corrupted payload (parameter set mismatch)")
    off += 4
    for name, header, arr in _records(model.params):
        if take(off, len(header)) != header:
            raise ValueError(f"{path}: corrupted payload (parameter set mismatch)")
        off += len(header)
        arr[...] = np.frombuffer(take(off, arr.nbytes), dtype="<f8").reshape(arr.shape)
        _check_finite(path, name, arr)
        off += arr.nbytes
    if off != len(body):
        raise ValueError(f"{path}: corrupted payload (trailing bytes)")
    return model

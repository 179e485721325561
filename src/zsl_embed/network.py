"""Fusion embedding networks with hand-derived gradients.

The semantic branch runs one two-layer ReLU head per modality, sums the
head outputs elementwise, and projects the sum through a shared third
ReLU layer into the visual feature space. Training minimizes mean squared
error between embedded semantics and visual features plus an L2 penalty
on weight matrices.

Two directions are supported:

* ``s2v`` — semantic vectors are embedded into the visual space and
  compared with visual features there;
* ``v2s`` — a three-layer branch, the visual map, maps visual features
  into the fused-semantic space. It alone trains, regressed onto the fused
  class vectors as fixed targets, so the heads keep their random
  ``init_model`` draw (a stop-gradient, as in Chen and He's SimSiam;
  trained jointly, both sides fell to the loss's constant minimum).

A model holds only the heads of the modalities it is trained on, and a
v2s model has no shared layer. Inputs are batch matrices, under three
rules. The loss pairs target ``i`` with input row ``rows[i]``, and without
``rows`` input row ``i`` belongs to target ``i`` (identity rows). ``fuse``
checks its inputs against each other alone. ``map_visual`` is where visual
features meet the prototypes: as given for s2v, mapped for v2s. A training
batch gives the loss one row per distinct class of the batch. For s2v
those are the modality inputs: the heads and the shared layer run once per
class, and each sample's residual gradient is summed per class before it
enters them. For v2s they are the fused class rows themselves (``embed``'s
output): the targets are fixed, so no head runs inside the loss, and a
training run fuses its seen-class table once.

Every branch (each head, the shared layer, the visual map) is a
``ReluStack``, the one dense-ReLU primitive: a stack of dense-ReLU
layers with one hand-derived backward pass (no autodiff); the ReLU
subgradient at exactly 0 is taken as 0. The heads are summed in sorted
tag order. All parameters of a model are views into one contiguous
float64 vector (a ``ParamBuffer``): first ``trained``, the span a model
trains (all of it for s2v, the visual map for v2s), then a v2s model's
fixed heads, each part every weight first, stack by stack, then every
bias. So the L2 penalty is one dot product over ``trained``'s weights,
summed in chunks (``metric._dot``) so that it does not depend on the BLAS
thread count. Gradients come back laid out like ``trained``, in a buffer a
training loop passes as ``out=`` to every step, and optimizers update that
span with a few vector ops.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Iterable, Mapping

import numpy as np

from .data import check_tag
from .metric import _dot

S_TO_V = "s2v"
V_TO_S = "v2s"
DIRECTIONS = (S_TO_V, V_TO_S)

# elements per pass of a whole-buffer update: a block of each vector it touches fits in L2
_BLOCK = 1 << 15


def _blocks(*vectors: np.ndarray):
    """Matching cache-sized slices of equally long vectors."""
    for lo in range(0, vectors[0].size, _BLOCK):
        yield [v[lo : lo + _BLOCK] for v in vectors]


@dataclasses.dataclass(frozen=True)
class NetConfig:
    """Architecture and loss settings for the embedding model.

    ``modality_dims`` maps modality tag to its input dimension, and
    ``embed_dim`` is the visual feature dimension of the data the model
    is trained on; both come from the data. The head widths default to
    512/1024.
    """

    modality_dims: dict[str, int]
    embed_dim: int
    head_hidden: int = 512
    head_out: int = 1024
    direction: str = S_TO_V
    l2_lambda: float = 5e-4

    def __post_init__(self) -> None:
        dims = {str(tag): int(dim) for tag, dim in sorted(self.modality_dims.items())}
        object.__setattr__(self, "modality_dims", dims)
        if not dims:
            raise ValueError("at least one modality is required")
        for tag, dim in dims.items():
            check_tag(tag)
            if dim < 1:
                raise ValueError(f"modality {tag}: input dim must be positive, got {dim}")
        for name in ("head_hidden", "head_out", "embed_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.direction not in DIRECTIONS:
            raise ValueError(f"direction must be one of {DIRECTIONS}, got {self.direction!r}")
        if not (math.isfinite(self.l2_lambda) and self.l2_lambda >= 0):
            raise ValueError(f"l2_lambda must be finite and >= 0, got {self.l2_lambda}")

    @property
    def tags(self) -> tuple[str, ...]:
        return tuple(self.modality_dims)

    def check_active(self, active: Iterable[str]) -> tuple[str, ...]:
        """Canonical (sorted, deduplicated) active tags; must be configured."""
        if isinstance(active, str):  # set() would split it into characters
            raise ValueError(f"active modalities must be a collection of tags, not the string {active!r}")
        tags = tuple(sorted(set(active)))
        if not tags:
            raise ValueError("active modality set is empty")
        unknown = [t for t in tags if t not in self.modality_dims]
        if unknown:
            raise ValueError(f"unknown modalities: {unknown}")
        return tags


def _stacks(config: NetConfig) -> dict[str, list[tuple[str, str, tuple[int, int]]]]:
    """Each stack's layers as (weight name, bias name, weight shape), the heads first.

    Heads map modality dim -> head_hidden -> head_out, the s2v shared layer
    head_out -> embed_dim, and the v2s visual map embed_dim -> head_out ->
    head_hidden -> head_out. Weights are (out, in) matrices.
    """
    h, o, e = config.head_hidden, config.head_out, config.embed_dim
    widths = {f"head.{tag}": (1, (dim, h, o)) for tag, dim in config.modality_dims.items()}
    if config.direction == S_TO_V:
        widths["out"] = (3, (o, e))
    else:
        widths["vmap"] = (1, (e, o, h, o))
    return {
        prefix: [
            (f"{prefix}.W{k}", f"{prefix}.b{k}", (n_out, n_in))
            for k, (n_in, n_out) in enumerate(zip(dims, dims[1:]), first)
        ]
        for prefix, (first, dims) in widths.items()
    }


def param_shapes(config: NetConfig, trained: bool = False) -> dict[str, tuple[int, ...]]:
    """Every parameter's shape, in the flat buffer's order: the parameters the
    model trains (all for s2v, the visual map's for v2s), then a v2s model's
    fixed heads; each group is every weight, stack by stack in ``_stacks``
    order, then every bias. With ``trained``, the first group alone."""
    shapes, stacks = {}, _stacks(config)
    for group in (True,) if trained else (True, False):
        layers = [layer for p in stacks if (config.direction == S_TO_V or p == "vmap") == group for layer in stacks[p]]
        shapes |= {w: shape for w, _, shape in layers} | {b: shape[:1] for _, b, shape in layers}
    return shapes


class ParamBuffer(dict):
    """Name -> array mapping whose arrays are views into one float64 vector.

    ``flat`` holds the values of every shape given, in order: a new vector,
    zero at first, or the leading span of ``flat`` if one is given. Writing
    through a view writes ``flat`` and the other way round.
    """

    def __init__(self, shapes: Mapping[str, tuple[int, ...]], flat: np.ndarray | None = None):
        super().__init__()
        sizes = [math.prod(shape) for shape in shapes.values()]
        self.flat = np.zeros(sum(sizes)) if flat is None else flat[: sum(sizes)]
        start = 0
        for (name, shape), size in zip(shapes.items(), sizes):
            self[name] = self.flat[start : start + size].reshape(shape)
            start += size


def _as_batch(x, what: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"{what}: expected a batch matrix, got shape {x.shape}")
    return x


def _as_rows(rows, m: int, k: int) -> np.ndarray:
    """``rows`` as a 1-D integer array of ``m`` entries in [0, k), one per target."""
    rows = np.asarray(rows)
    if rows.shape != (m,):
        raise ValueError(f"rows: expected one class-row index per target, shape ({m},), got {rows.shape}")
    if rows.dtype.kind not in "iu":  # a bool array would index as a mask
        raise ValueError(f"rows[0] = {rows[0].item()!r} is not an integer class-row index (dtype {rows.dtype})")
    if rows.min() < 0 or rows.max() >= k:  # a negative index would wrap round
        i = int(np.flatnonzero((rows < 0) | (rows >= k))[0])
        raise ValueError(f"rows[{i}] = {rows[i]} is outside [0, {k}), the inputs' class rows")
    return rows


class ReluStack:
    """Dense-ReLU layers applied in order: ``a <- max(a @ W.T + b, 0)``.

    Built from ``_stacks`` layers; ``params`` maps the layers' weight and
    bias names to their arrays, and the backward pass writes into a
    mapping with the same names.
    """

    def __init__(self, params: Mapping[str, np.ndarray], layers: list[tuple[str, str, tuple]]):
        self.names = [(w, b) for w, b, _ in layers]
        self.params = {name: params[name] for layer in self.names for name in layer}

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Output for a batch ``x`` and the cache: ``x`` and every layer's output."""
        acts = [x]
        for w, b in self.names:
            x = x @ self.params[w].T
            x += self.params[b]
            np.maximum(x, 0.0, out=x)
            acts.append(x)
        return x, acts

    def backward(
        self,
        acts: list[np.ndarray],
        d_out: np.ndarray,
        grads: Mapping[str, np.ndarray],
        input_grad: bool = False,
    ) -> np.ndarray | None:
        """Write d(loss)/dW and d(loss)/db of every layer into ``grads``.

        ``d_out`` is d(loss)/d(output) for the batch whose cache ``acts``
        came from ``forward``. Returns d(loss)/d(input) if ``input_grad``
        is set, else None.
        """
        for k in reversed(range(len(self.names))):
            w, b = self.names[k]
            dz = d_out * (acts[k + 1] > 0)
            np.matmul(dz.T, acts[k], out=grads[w])
            np.add.reduce(dz, axis=0, out=grads[b])
            if k or input_grad:
                d_out = dz @ self.params[w]
        return d_out if input_grad else None


class FusionNet:
    """Per-modality two-layer heads, elementwise sum and, for s2v, the shared output layer."""

    def __init__(self, config: NetConfig, params: Mapping[str, np.ndarray]):
        self.config = config
        stacks = _stacks(config)
        self.heads = {tag: ReluStack(params, stacks[f"head.{tag}"]) for tag in config.tags}
        self.out = ReluStack(params, stacks["out"]) if "out" in stacks else None
        # the heads' and the shared layer's parameters: all but the visual map's
        self.params = {name: p for name, p in params.items() if not name.startswith("vmap.")}

    def fuse(
        self, inputs: Mapping[str, np.ndarray], tags: tuple[str, ...]
    ) -> tuple[np.ndarray, list[list[np.ndarray]]]:
        """Sum of the heads' outputs over ``tags``, added in that (sorted)
        order, and each head's cache.

        Each input must have its modality's dim and as many rows as the first.
        """
        dims = self.config.modality_dims
        fused, caches = None, []
        for tag in tags:
            if tag not in inputs:
                raise ValueError(f"no input provided for modality {tag}")
            y = _as_batch(inputs[tag], f"modality {tag}")
            if y.shape[1] != dims[tag]:
                raise ValueError(f"modality {tag}: expected dim {dims[tag]}, got {y.shape[1]}")
            if fused is not None and y.shape[0] != fused.shape[0]:
                raise ValueError(f"modality {tag}: {y.shape[0]} rows for {fused.shape[0]} rows of modality {tags[0]}")
            a, acts = self.heads[tag].forward(y)
            caches.append(acts)
            fused = a if fused is None else fused + a  # a new array: no head's cached output is overwritten
        return fused, caches


class EmbeddingModel:
    """Fusion branch plus, for direction ``v2s``, the visual mapping branch.

    ``params`` holds every parameter of the configured heads and of the
    shared layer (s2v) or the visual map (v2s), zero until set
    (``init_model`` draws them); ``fusion.params`` and ``visual_map.params``
    are views into it. ``trained`` views the leading span that training
    moves (all of it for s2v, the visual map for v2s), and ``weights`` its
    leading weights, which the L2 penalty covers.
    """

    def __init__(self, config: NetConfig):
        self.config = config
        self.params = ParamBuffer(param_shapes(config))
        self.trained = ParamBuffer(param_shapes(config, trained=True), self.params.flat)
        self.weights = self.trained.flat[: sum(p.size for p in self.trained.values() if p.ndim == 2)]
        stacks = _stacks(config)
        self.fusion = FusionNet(config, self.params)
        self.visual_map = ReluStack(self.params, stacks["vmap"]) if "vmap" in stacks else None

    def embed(self, inputs: Mapping[str, np.ndarray], active: Iterable[str]) -> np.ndarray:
        """Class-prototype coordinates, one row per input row, from any
        non-empty subset of the heads: the shared layer's output for s2v, the
        fused sum itself for v2s. Modalities are summed in sorted tag order,
        so permuting ``active`` cannot change the result."""
        fused, _ = self.fusion.fuse(inputs, self.config.check_active(active))
        return fused if self.fusion.out is None else self.fusion.out.forward(fused)[0]

    def _visual(self, x, what: str) -> np.ndarray:
        """``x`` as a batch of visual features, checked to be ``embed_dim`` wide."""
        x = _as_batch(x, what)
        if x.shape[1] != self.config.embed_dim:
            raise ValueError(f"{what}: dim {x.shape[1]} does not match embed_dim {self.config.embed_dim}")
        return x

    def map_visual(self, x) -> np.ndarray:
        """Visual features where they meet ``embed``'s prototypes: as given for
        s2v (a float64 matrix is not copied), the visual map's output for v2s."""
        x = self._visual(x, "visual features")
        return x if self.visual_map is None else self.visual_map.forward(x)[0]

    def loss(
        self, inputs: Mapping[str, np.ndarray] | np.ndarray, targets, active: Iterable[str], rows=None
    ) -> float:
        """The loss of ``loss_and_grad``, from the forward pass alone."""
        return self._forward(inputs, targets, active, rows)[0]

    def _forward(self, inputs: Mapping[str, np.ndarray] | np.ndarray, targets, active: Iterable[str], rows):
        """The loss and what the backward pass needs: every head stack's cache
        (None for v2s), the top stack's cache, the residual, the batch size and
        the checked ``rows`` (identity rows if none are given)."""
        tags = self.config.check_active(active)
        if tags != self.config.tags:
            raise ValueError(f"active must name exactly the model's heads {list(self.config.tags)}")
        x = self._visual(targets, "targets")
        m = x.shape[0]
        if m == 0:
            raise ValueError("empty batch")
        if self.config.direction == S_TO_V:
            fused, head_caches = self.fusion.fuse(inputs, tags)
        else:  # the fused rows are the fixed targets: no head runs
            if isinstance(inputs, Mapping):
                raise ValueError("fused rows: a v2s loss takes embed's fused rows, not modality inputs")
            fused, head_caches = _as_batch(inputs, "fused rows"), None
            if fused.shape[1] != self.config.head_out:
                raise ValueError(f"fused rows: expected width {self.config.head_out}, got {fused.shape[1]}")
        if rows is None and fused.shape[0] != m:
            of = f"modality {tags[0]}" if self.config.direction == S_TO_V else "fused rows"
            raise ValueError(f"{of}: {fused.shape[0]} rows for {m} targets")
        rows = np.arange(m) if rows is None else _as_rows(rows, m, fused.shape[0])  # none: identity rows
        if self.config.direction == S_TO_V:
            embedded, acts = self.fusion.out.forward(fused)
            residual = embedded[rows] - x
        else:
            mapped, acts = self.visual_map.forward(x)
            residual = mapped - fused[rows]
        w = self.weights
        mse = float(np.add.reduce(residual * residual, axis=None)) / m
        return mse + self.config.l2_lambda * float(_dot(w, w)), head_caches, acts, residual, m, rows

    def loss_and_grad(
        self,
        inputs: Mapping[str, np.ndarray] | np.ndarray,
        targets,
        active: Iterable[str],
        out: ParamBuffer | None = None,
        rows=None,
    ) -> tuple[float, ParamBuffer]:
        """Mean squared error plus L2 weight penalty, with analytic gradients.

        ``targets`` holds one visual feature row per sample; ``active`` must
        name exactly the model's heads. For s2v, ``inputs`` maps each head's
        modality to its semantic rows. For v2s it is the matrix of fused
        class rows that ``embed`` returns for the model's heads, ``head_out``
        wide: they are fixed targets, so no head runs here. With ``rows``,
        every input holds the same k class rows and target ``i`` pairs with
        input row ``rows[i]``, an integer in [0, k): for s2v the heads and the
        shared layer run on the k class rows, and each sample's residual
        gradient is summed per class before it enters them. The v2s visual
        map runs per sample. Without ``rows`` input row ``i`` belongs to
        target ``i``, as identity rows.

        The L2 term covers the trained weights (``weights``), not the biases, so
        the returned gradients are exact partials of the returned loss. They are
        laid out like ``trained`` and written into and returned in ``out``, a
        buffer of that layout whose old values do not matter, or else a new one.
        ``out`` of another size is refused before anything is written.
        """
        if out is not None and out.flat.size != self.trained.flat.size:
            raise ValueError(f"out holds {out.flat.size} values, the trained parameters {self.trained.flat.size}")
        loss, head_caches, acts, residual, m, rows = self._forward(inputs, targets, active, rows)
        grads = ParamBuffer(param_shapes(self.config, trained=True)) if out is None else out
        if self.config.direction == S_TO_V:
            # (2 / m) * residual with row i added into class row rows[i]: one GEMM with a one-hot matrix
            onehot = np.zeros((head_caches[0][0].shape[0], m))
            onehot[rows, np.arange(m)] = 2.0 / m
            d_fused = self.fusion.out.backward(acts, onehot @ residual, grads, input_grad=True)
            for head, head_acts in zip(self.fusion.heads.values(), head_caches):
                head.backward(head_acts, d_fused, grads)
        else:  # the fused targets are fixed: the visual map alone trains
            self.visual_map.backward(acts, (2.0 / m) * residual, grads)

        lam = self.config.l2_lambda
        if lam != 0.0:  # in blocks, so no weight-sized temporary is allocated
            for g, w in _blocks(grads.flat[: self.weights.size], self.weights):
                g += (2.0 * lam) * w
        return loss, grads


def init_model(config: NetConfig, seed: int, tags: Iterable[str] | None = None) -> EmbeddingModel:
    """Deterministically initialized model holding the heads of ``tags``.

    ``tags`` defaults to every configured modality; the model's config
    names only those. Weights are uniform Glorot-style, biases zero. Every
    layer of ``config`` is drawn, including the heads left out and a v2s
    net's shared layer, which are dropped, so an array has the same values
    whichever heads the model holds.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    held = config.check_active(config.tags if tags is None else tags)
    dims = {t: config.modality_dims[t] for t in held}
    model = EmbeddingModel(dataclasses.replace(config, modality_dims=dims))
    rng = np.random.default_rng(seed)
    # the heads, the shared layer, then for v2s the visual map
    drawn = {**_stacks(dataclasses.replace(config, direction=S_TO_V)), **_stacks(config)}
    for w, _, (out_dim, in_dim) in (layer for layers in drawn.values() for layer in layers):
        scale = np.sqrt(6.0 / (in_dim + out_dim))
        draw = rng.uniform(-scale, scale, size=(out_dim, in_dim))
        if w in model.params:
            model.params[w][...] = draw
    return model


# ---------------------------------------------------------------------------
# finite-difference verification


def numerical_gradients(
    model: EmbeddingModel,
    inputs: Mapping[str, np.ndarray],
    targets,
    active: Iterable[str],
    step: float,
    rows=None,
) -> ParamBuffer:
    """Central finite differences of the training loss over every trained
    parameter, for verification, in a buffer laid out like ``model.trained``.
    ``rows`` is passed on to ``model.loss``."""
    grads = ParamBuffer(param_shapes(model.config, trained=True))
    params = model.trained.flat
    for i in range(params.size):
        orig = params[i]
        params[i] = orig + step
        hi = model.loss(inputs, targets, active, rows)
        params[i] = orig - step
        lo = model.loss(inputs, targets, active, rows)
        params[i] = orig
        grads.flat[i] = (hi - lo) / (2.0 * step)
    return grads


def max_relative_error(analytic: ParamBuffer, numeric: ParamBuffer) -> float:
    """Largest entrywise deviation, scaled by the largest gradient magnitude,
    over two buffers of one layout."""
    if analytic.flat.size != numeric.flat.size:
        raise ValueError(f"gradient buffers hold {analytic.flat.size} and {numeric.flat.size} values")
    diff = np.max(np.abs(analytic.flat - numeric.flat), initial=0.0)
    scale = max(np.max(np.abs(analytic.flat), initial=0.0), np.max(np.abs(numeric.flat), initial=0.0))
    return float(diff) / max(float(scale), 1e-12)


def gradient_check(seed: int, step: float = 1e-5) -> float:
    """Worst finite-difference error over small random instances.

    Covers every non-empty subset of four modalities in both directions
    with random dims <= 8 and two batches each: up to 4 samples with an
    input row each, and up to 7 samples that share up to 3 class rows
    (``rows``), so that classes repeat; returns the max relative error over
    the trained parameters. All parameters (biases included) are jittered to
    generic values so no ReLU preactivation sits exactly at its kink, where
    the one-sided subgradient convention and central differences disagree.
    They are jittered in the order every weight, stack by stack, then every
    bias, so the instances do not depend on the buffer's layout.
    """
    if seed < 0:
        raise ValueError(f"gradcheck seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    all_tags = ("C", "I", "T", "W")
    subsets = []
    for mask in range(1, 2 ** len(all_tags)):
        subsets.append(tuple(t for i, t in enumerate(all_tags) if mask >> i & 1))
    worst = 0.0
    for direction in DIRECTIONS:
        for subset in subsets:
            dims = {t: int(rng.integers(2, 9)) for t in subset}
            config = NetConfig(
                modality_dims=dims,
                head_hidden=int(rng.integers(2, 9)),
                head_out=int(rng.integers(2, 9)),
                embed_dim=int(rng.integers(2, 9)),
                direction=direction,
                l2_lambda=float(rng.uniform(0.0, 1e-3)),
            )
            model = init_model(config, seed=int(rng.integers(0, 2**31)))
            layers = [layer for layers in _stacks(config).values() for layer in layers]
            for name in [w for w, _, _ in layers] + [b for _, b, _ in layers]:
                model.params[name] += rng.uniform(-0.3, 0.3, size=model.params[name].shape)
            m = int(rng.integers(1, 5))
            k = int(rng.integers(1, 4))
            # m samples with a row each, then m + k samples on k class rows
            for rows in (None, rng.integers(0, k, size=m + k)):
                n_in = m if rows is None else k
                inputs = {t: rng.normal(size=(n_in, dims[t])) for t in subset}
                targets = rng.uniform(0.0, 1.0, size=(m if rows is None else m + k, config.embed_dim))
                if direction == V_TO_S:
                    inputs = model.embed(inputs, subset)
                _, analytic = model.loss_and_grad(inputs, targets, subset, rows=rows)
                numeric = numerical_gradients(model, inputs, targets, subset, step=step, rows=rows)
                worst = max(worst, max_relative_error(analytic, numeric))
    return worst

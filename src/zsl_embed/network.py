"""Fusion embedding networks with hand-derived gradients.

The semantic branch runs one two-layer ReLU head per modality, sums the
head outputs elementwise, and projects the sum through a shared third
ReLU layer into the visual feature space. Training minimizes mean squared
error between embedded semantics and visual features plus an L2 penalty
on weight matrices.

Two directions are supported:

* ``s2v`` — semantic vectors are embedded into the visual space and
  compared with visual features there;
* ``v2s`` — a three-layer branch maps visual features into the
  fused-semantic space, trained jointly with the heads against the fused
  vectors; a v2s model has no shared layer.

A model holds only the heads of the modalities it is trained on, and
trains all of them. Inputs are batch matrices. The semantic side is per
class, so a training batch gives the heads one row per distinct class of
the batch and maps each sample to its class's row (``rows``): the heads
and, for s2v, the shared layer run once per class, and each sample's
residual gradient is summed per class before it enters them. Without
``rows`` each input row belongs to one sample.

Every branch (each head, the shared layer, the visual map) is a
``ReluStack``, the one dense-ReLU primitive: a stack of dense-ReLU
layers with one hand-derived backward pass (no autodiff); the ReLU
subgradient at exactly 0 is taken as 0. The heads are summed in sorted
tag order. All parameters of a model are views into one contiguous
float64 vector (a ``ParamBuffer``): every weight matrix first, stack by
stack, then every bias, so the L2 penalty is one dot product over the
weights, summed in chunks (``metric._dot``) so that it does not depend
on the BLAS thread count. Gradients come back in a buffer of the same
layout, which a training loop passes as ``out=`` to every step, and
optimizers update the whole model with a few vector ops.
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
        if type(active) is tuple and active == self.tags:  # already canonical
            return active
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
    """Each stack's layers as (weight name, bias name, weight shape), in buffer order.

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


def param_shapes(config: NetConfig) -> dict[str, tuple[int, ...]]:
    """Every parameter's shape, in the order of the flat parameter buffer:
    every weight, stack by stack in ``_stacks`` order, then every bias."""
    layers = [layer for layers in _stacks(config).values() for layer in layers]
    return {**{w: shape for w, _, shape in layers}, **{b: shape[:1] for _, b, shape in layers}}


class ParamBuffer(dict):
    """Name -> array mapping whose arrays are views into one float64 vector.

    ``flat`` holds the values of every shape given, in order and zero at
    first; writing through a view writes ``flat`` and the other way round.
    A model's buffer follows ``param_shapes``: its weights fill a leading
    slice of ``flat``.
    """

    def __init__(self, shapes: Mapping[str, tuple[int, ...]]):
        super().__init__()
        sizes = [math.prod(shape) for shape in shapes.values()]
        self.flat = np.zeros(sum(sizes))
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


def _per_class(d: np.ndarray, rows: np.ndarray | None, k: int, scale: float) -> np.ndarray:
    """``scale * d`` with its sample rows summed into ``k`` class rows: row
    ``c`` adds every row ``i`` with ``rows[i] == c``, in one (k x m) GEMM
    with a scaled one-hot matrix. Without ``rows``, ``scale * d`` itself."""
    if rows is None:
        return scale * d
    onehot = np.zeros((k, rows.size))
    onehot[rows, np.arange(rows.size)] = scale
    return onehot @ d


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
        self, inputs: Mapping[str, np.ndarray], tags: tuple[str, ...], n_targets: int | None = None
    ) -> tuple[np.ndarray, list[list[np.ndarray]]]:
        """Sum of the heads' outputs over ``tags``, added in that (sorted)
        order, and each head's cache.

        Each input must have its modality's dim and ``n_targets`` rows if
        given, else as many rows as the first input.
        """
        dims = self.config.modality_dims
        rows, first = n_targets, None  # first: the modality that set rows, if not n_targets
        fused, caches = None, []
        for tag in tags:
            if tag not in inputs:
                raise ValueError(f"no input provided for modality {tag}")
            y = _as_batch(inputs[tag], f"modality {tag}")
            if y.shape[1] != dims[tag]:
                raise ValueError(f"modality {tag}: expected dim {dims[tag]}, got {y.shape[1]}")
            if rows is None:
                rows, first = y.shape[0], tag
            elif y.shape[0] != rows:
                of = f"{rows} targets" if first is None else f"{rows} rows of modality {first}"
                raise ValueError(f"modality {tag}: {y.shape[0]} rows for {of}")
            a, acts = self.heads[tag].forward(y)
            caches.append(acts)
            if fused is None:
                fused = a
            elif len(caches) == 2:  # a new array, so no head's cached output is overwritten
                fused = fused + a
            else:
                fused += a
        return fused, caches


class EmbeddingModel:
    """Fusion branch plus, for direction ``v2s``, the visual mapping branch.

    ``params`` holds every parameter of the configured heads and of the
    shared layer (s2v) or the visual map (v2s), zero until set
    (``init_model`` draws them); ``fusion.params`` and
    ``visual_map.params`` are views into it. Training covers all of them.
    """

    def __init__(self, config: NetConfig):
        self.config = config
        self.params = ParamBuffer(param_shapes(config))
        stacks = _stacks(config)
        # the leading slice of flat that holds every weight (see param_shapes)
        self.weights = slice(0, sum(math.prod(s) for layers in stacks.values() for _, _, s in layers))
        self.fusion = FusionNet(config, self.params)
        self.visual_map = ReluStack(self.params, stacks["vmap"]) if "vmap" in stacks else None
        self.top = self.fusion.out or self.visual_map

    @property
    def direction(self) -> str:
        return self.config.direction

    def embed(self, inputs: Mapping[str, np.ndarray], active: Iterable[str]) -> np.ndarray:
        """Class-prototype coordinates, one row per input row, from any
        non-empty subset of the heads: the shared layer's output for s2v, the
        fused sum itself for v2s. Modalities are summed in sorted tag order,
        so permuting ``active`` cannot change the result."""
        fused, _ = self.fusion.fuse(inputs, self.config.check_active(active))
        return fused if self.fusion.out is None else self.fusion.out.forward(fused)[0]

    def map_visual(self, x) -> np.ndarray:
        if self.visual_map is None:
            raise ValueError("model has no visual mapping branch (direction s2v)")
        batch = _as_batch(x, "visual features")
        if batch.shape[1] != self.config.embed_dim:
            raise ValueError(f"expected visual dim {self.config.embed_dim}, got {batch.shape[1]}")
        return self.visual_map.forward(batch)[0]

    def loss(self, inputs: Mapping[str, np.ndarray], targets, active: Iterable[str], rows=None) -> float:
        """The loss of ``loss_and_grad``, from the forward pass alone."""
        return self._forward(inputs, targets, active, rows)[0]

    def _forward(self, inputs: Mapping[str, np.ndarray], targets, active: Iterable[str], rows):
        """The loss and what the backward pass needs: every head stack's cache,
        the top stack's cache, the residual, the batch size and the checked ``rows``."""
        tags = self.config.check_active(active)
        if tags != self.config.tags:
            raise ValueError(f"active must name exactly the model's heads {list(self.config.tags)}")
        x = _as_batch(targets, "targets")
        m = x.shape[0]
        if m == 0:
            raise ValueError("empty batch")
        if x.shape[1] != self.config.embed_dim:
            raise ValueError(
                f"target dim {x.shape[1]} does not match embed_dim {self.config.embed_dim}"
            )
        if rows is None:
            fused, head_caches = self.fusion.fuse(inputs, tags, m)
        else:
            fused, head_caches = self.fusion.fuse(inputs, tags)
            rows = _as_rows(rows, m, fused.shape[0])
        if self.direction == S_TO_V:
            embedded, acts = self.top.forward(fused)
            residual = (embedded if rows is None else embedded[rows]) - x
        else:
            mapped, acts = self.top.forward(x)
            residual = mapped - (fused if rows is None else fused[rows])
        w = self.params.flat[self.weights]
        mse = float(np.add.reduce(residual * residual, axis=None)) / m
        return mse + self.config.l2_lambda * float(_dot(w, w)), head_caches, acts, residual, m, rows

    def loss_and_grad(
        self,
        inputs: Mapping[str, np.ndarray],
        targets,
        active: Iterable[str],
        out: ParamBuffer | None = None,
        rows=None,
    ) -> tuple[float, ParamBuffer]:
        """Mean squared error plus L2 weight penalty, with analytic gradients.

        ``targets`` holds one visual feature row per sample; ``active`` must
        name exactly the model's heads. Without ``rows`` every input holds
        one semantic row per sample. With ``rows``, every input holds the
        same k class rows and target ``i`` pairs with input row ``rows[i]``,
        an integer in [0, k): the heads and, for s2v, the shared layer run
        on the k class rows, and each sample's residual gradient is summed
        per class before it enters them. The v2s visual map runs per sample.

        The L2 term covers every weight matrix (not the biases), so the
        returned gradients are exact partials of the returned loss. They are
        laid out like ``params`` and written into and returned in ``out``, a
        buffer of that layout whose old values do not matter, or else a new one.
        """
        loss, head_caches, acts, residual, m, rows = self._forward(inputs, targets, active, rows)
        grads = ParamBuffer(param_shapes(self.config)) if out is None else out
        k = head_caches[0][0].shape[0]  # the heads' input rows
        if self.direction == S_TO_V:
            d_top = _per_class(residual, rows, k, 2.0 / m)
            d_fused = self.top.backward(acts, d_top, grads, input_grad=True)
        else:
            self.top.backward(acts, (2.0 / m) * residual, grads)
            d_fused = _per_class(residual, rows, k, -2.0 / m)
        for head, head_acts in zip(self.fusion.heads.values(), head_caches):
            head.backward(head_acts, d_fused, grads)

        lam = self.config.l2_lambda
        if lam != 0.0:  # in blocks, so no weight-sized temporary is allocated
            for g, w in _blocks(grads.flat[self.weights], self.params.flat[self.weights]):
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
    """Central finite differences of the training loss over every parameter,
    for verification, in a buffer laid out like ``model.params``. ``rows``
    is passed on to ``model.loss``."""
    grads = ParamBuffer(param_shapes(model.config))
    params = model.params.flat
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


def gradient_check(seed: int = 0, step: float = 1e-5) -> float:
    """Worst finite-difference error over small random instances.

    Covers every non-empty subset of four modalities in both directions
    with random dims <= 8 and two batches each: up to 4 samples with an
    input row each, and up to 7 samples that share up to 3 class rows
    (``rows``), so that classes repeat; returns the max relative error.
    All parameters (biases included) are jittered to generic values so no
    ReLU preactivation sits exactly at its kink, where the one-sided
    subgradient convention and central differences disagree.
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
            model.params.flat += rng.uniform(-0.3, 0.3, size=model.params.flat.size)
            m = int(rng.integers(1, 5))
            k = int(rng.integers(1, 4))
            # m samples with a row each, then m + k samples on k class rows
            for rows in (None, rng.integers(0, k, size=m + k)):
                n_in = m if rows is None else k
                inputs = {t: rng.normal(size=(n_in, dims[t])) for t in subset}
                targets = rng.uniform(0.0, 1.0, size=(m if rows is None else m + k, config.embed_dim))
                _, analytic = model.loss_and_grad(inputs, targets, subset, rows=rows)
                numeric = numerical_gradients(model, inputs, targets, subset, step=step, rows=rows)
                worst = max(worst, max_relative_error(analytic, numeric))
    return worst

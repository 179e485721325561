"""Fusion embedding networks with hand-derived gradients.

The semantic branch runs one two-layer ReLU head per modality, sums the
head outputs elementwise, and projects the sum through a shared third
ReLU layer into the visual feature space. Training minimizes mean squared
error between embedded semantics and visual features plus an L2 penalty
on weight matrices.

Two directions are supported:

* ``s2v`` — semantic vectors are embedded into the visual space and
  compared with visual features there;
* ``v2s`` — an additional three-layer branch maps visual features into
  the fused-semantic space, trained jointly with the heads against the
  fused vectors.

Every branch is a ``ReluStack`` of dense-ReLU layers with one hand-derived
backward pass (no autodiff); the ReLU subgradient at exactly 0 is taken
as 0. All parameters of a model are views into one contiguous float64
vector (a ``ParamBuffer``), and gradients come back in a buffer of the
same layout, so optimizers update the whole model with a few vector ops.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Iterable, Mapping

import numpy as np

S_TO_V = "s2v"
V_TO_S = "v2s"
DIRECTIONS = (S_TO_V, V_TO_S)


@dataclasses.dataclass(frozen=True)
class NetConfig:
    """Architecture and loss settings for the embedding model.

    ``modality_dims`` maps modality tag to its input dimension. The three
    layer widths default to 512/1024/2048; ``embed_dim`` must match the
    visual feature dimension of the data the model is trained on.
    """

    modality_dims: dict[str, int]
    head_hidden: int = 512
    head_out: int = 1024
    embed_dim: int = 2048
    direction: str = S_TO_V
    l2_lambda: float = 5e-4

    def __post_init__(self) -> None:
        dims = {str(tag): int(dim) for tag, dim in sorted(self.modality_dims.items())}
        object.__setattr__(self, "modality_dims", dims)
        if not dims:
            raise ValueError("at least one modality is required")
        for tag, dim in dims.items():
            if dim < 1:
                raise ValueError(f"modality {tag}: input dim must be positive, got {dim}")
        for name in ("head_hidden", "head_out", "embed_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.direction not in DIRECTIONS:
            raise ValueError(f"direction must be one of {DIRECTIONS}, got {self.direction!r}")
        if self.l2_lambda < 0:
            raise ValueError("l2_lambda must be >= 0")

    @property
    def tags(self) -> tuple[str, ...]:
        return tuple(self.modality_dims)


def _stacks(config: NetConfig) -> dict[str, list[tuple[str, str, tuple[int, int]]]]:
    """Each stack's layers as (weight name, bias name, weight shape), in buffer order.

    Heads map modality dim -> head_hidden -> head_out, the shared layer
    head_out -> embed_dim, and the v2s visual map embed_dim -> head_out ->
    head_hidden -> head_out. Weights are (out, in) matrices.
    """
    h, o, e = config.head_hidden, config.head_out, config.embed_dim
    widths = {f"head.{tag}": (1, (dim, h, o)) for tag, dim in config.modality_dims.items()}
    widths["out"] = (3, (o, e))
    if config.direction == V_TO_S:
        widths["vmap"] = (1, (e, o, h, o))
    return {
        prefix: [
            (f"{prefix}.W{k}", f"{prefix}.b{k}", (n_out, n_in))
            for k, (n_in, n_out) in enumerate(zip(dims, dims[1:]), first)
        ]
        for prefix, (first, dims) in widths.items()
    }


def param_shapes(config: NetConfig) -> dict[str, tuple[int, ...]]:
    """Every parameter's shape, in the order of the flat parameter buffer."""
    shapes = {}
    for w, b, shape in (layer for layers in _stacks(config).values() for layer in layers):
        shapes[w], shapes[b] = shape, shape[:1]
    return shapes


class ParamBuffer(dict):
    """Name -> array mapping whose arrays are views into one float64 vector.

    ``flat`` holds the values of every shape given, in order and zero at
    first; writing through a view writes ``flat`` and the other way round.
    ``names`` limits which arrays the mapping exposes: a gradient names
    only the trained parameters, and the rest of its ``flat`` stays zero.
    """

    def __init__(self, shapes: Mapping[str, tuple[int, ...]], names: Iterable[str] | None = None):
        super().__init__()
        sizes = [math.prod(shape) for shape in shapes.values()]
        self.flat = np.zeros(sum(sizes))
        exposed = set(shapes) if names is None else set(names)
        start = 0
        for (name, shape), size in zip(shapes.items(), sizes):
            if name in exposed:
                self[name] = self.flat[start : start + size].reshape(shape)
            start += size


def _as_batch(x) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        return x[None, :], True
    if x.ndim == 2:
        return x, False
    raise ValueError(f"expected a vector or a batch matrix, got shape {x.shape}")


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
            x = np.maximum(x @ self.params[w].T + self.params[b], 0.0)
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
            np.sum(dz, axis=0, out=grads[b])
            if k or input_grad:
                d_out = dz @ self.params[w]
        return d_out if input_grad else None


class FusionNet:
    """Per-modality two-layer heads, elementwise sum, shared output layer."""

    def __init__(self, config: NetConfig, params: Mapping[str, np.ndarray]):
        self.config = config
        stacks = _stacks(config)
        self.heads = {tag: ReluStack(params, stacks[f"head.{tag}"]) for tag in config.tags}
        self.out = ReluStack(params, stacks["out"])
        self.params = {
            name: p for stack in (*self.heads.values(), self.out) for name, p in stack.params.items()
        }

    def check_active(self, active: Iterable[str]) -> tuple[str, ...]:
        """Canonical (sorted, deduplicated) active tags; must be configured."""
        tags = tuple(sorted(set(active)))
        if not tags:
            raise ValueError("active modality set is empty")
        unknown = [t for t in tags if t not in self.config.modality_dims]
        if unknown:
            raise ValueError(f"unknown modalities: {unknown}")
        return tags

    def fuse(
        self, inputs: Mapping[str, np.ndarray], tags: tuple[str, ...]
    ) -> tuple[np.ndarray, list[list[np.ndarray]]]:
        """Sum of the heads' outputs over ``tags``, and each head's cache."""
        dims = self.config.modality_dims
        fused = None
        caches = []
        for tag in tags:
            if tag not in inputs:
                raise ValueError(f"no input provided for modality {tag}")
            y, _ = _as_batch(inputs[tag])
            if y.shape[1] != dims[tag]:
                raise ValueError(f"modality {tag}: expected dim {dims[tag]}, got {y.shape[1]}")
            a, acts = self.heads[tag].forward(y)
            caches.append(acts)
            fused = a if fused is None else fused + a
        return fused, caches

    def forward(self, inputs: Mapping[str, np.ndarray], active: Iterable[str]):
        """Embedded and fused outputs for the active modalities.

        Inputs may be single vectors or batch matrices (one row per
        sample); the outputs match. Modalities are summed in sorted tag
        order, so permuting ``active`` cannot change the result.
        """
        tags = self.check_active(active)
        fused, _ = self.fuse(inputs, tags)
        embedded, _ = self.out.forward(fused)
        if all(np.asarray(inputs[t]).ndim == 1 for t in tags):
            return embedded[0], fused[0]
        return embedded, fused


class EmbeddingModel:
    """Fusion branch plus, for direction ``v2s``, the visual mapping branch.

    ``params`` holds every parameter, zero until set (``init_model`` draws
    them); ``fusion.params`` and ``visual_map.params`` are views into it.
    """

    def __init__(self, config: NetConfig):
        self.config = config
        self.params = ParamBuffer(param_shapes(config))
        self.fusion = FusionNet(config, self.params)
        stacks = _stacks(config)
        self.visual_map = ReluStack(self.params, stacks["vmap"]) if "vmap" in stacks else None

    @property
    def direction(self) -> str:
        return self.config.direction

    def _trained(self, tags: tuple[str, ...]) -> list[ReluStack]:
        """Stacks updated when training on ``tags``: the shared layer (s2v)
        or the visual map (v2s) first, then the heads in tag order."""
        top = self.fusion.out if self.direction == S_TO_V else self.visual_map
        return [top, *(self.fusion.heads[t] for t in tags)]

    def trainable_params(self, active: Iterable[str]) -> dict[str, np.ndarray]:
        """Live references to the parameters updated when training on ``active``.

        Inactive heads take no part in the forward pass, the loss, or the
        gradients. The shared output layer is trained only in ``s2v``; the
        visual map only in ``v2s``.
        """
        stacks = self._trained(self.fusion.check_active(active))
        return {name: p for stack in stacks for name, p in stack.params.items()}

    def embed(self, inputs: Mapping[str, np.ndarray], active: Iterable[str]) -> np.ndarray:
        """Class-prototype coordinates: embedded for s2v, fused for v2s."""
        embedded, fused = self.fusion.forward(inputs, active)
        return embedded if self.direction == S_TO_V else fused

    def map_visual(self, x) -> np.ndarray:
        if self.visual_map is None:
            raise ValueError("model has no visual mapping branch (direction s2v)")
        batch, single = _as_batch(x)
        if batch.shape[1] != self.config.embed_dim:
            raise ValueError(f"expected visual dim {self.config.embed_dim}, got {batch.shape[1]}")
        out, _ = self.visual_map.forward(batch)
        return out[0] if single else out

    def loss(self, inputs: Mapping[str, np.ndarray], targets, active: Iterable[str]) -> float:
        """The loss of ``loss_and_grad``, from the forward pass alone."""
        return self._forward(inputs, targets, active)[0]

    def _forward(self, inputs: Mapping[str, np.ndarray], targets, active: Iterable[str]):
        """The loss and what the backward pass needs: the trained stacks, the
        heads' caches, the top stack's cache, the residual and the batch size."""
        tags = self.fusion.check_active(active)
        x = np.asarray(targets, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError(f"targets must be a batch matrix, got shape {x.shape}")
        m = x.shape[0]
        if m == 0:
            raise ValueError("empty batch")
        if x.shape[1] != self.config.embed_dim:
            raise ValueError(
                f"target dim {x.shape[1]} does not match embed_dim {self.config.embed_dim}"
            )
        batch = {t: _as_batch(inputs[t])[0] for t in tags}
        for t in tags:
            if batch[t].shape[0] != m:
                raise ValueError(f"modality {t}: {batch[t].shape[0]} rows for {m} targets")

        trained = self._trained(tags)
        fused, head_caches = self.fusion.fuse(batch, tags)
        if self.direction == S_TO_V:
            embedded, acts = trained[0].forward(fused)
            residual = embedded - x
        else:
            mapped, acts = trained[0].forward(x)
            residual = mapped - fused
        reg = 0.0
        for stack in trained:
            for w, _ in reversed(stack.names):
                p = stack.params[w]
                reg += float(np.sum(p * p))
        loss = float(np.sum(residual * residual)) / m + self.config.l2_lambda * reg
        return loss, trained, head_caches, acts, residual, m

    def loss_and_grad(
        self, inputs: Mapping[str, np.ndarray], targets, active: Iterable[str]
    ) -> tuple[float, ParamBuffer]:
        """Mean squared error plus L2 weight penalty, with analytic gradients.

        ``targets`` holds one visual feature row per sample. The L2 term
        covers the weight matrices (not biases) of the parameters being
        trained, so the returned gradients are exact partials of the
        returned loss. The gradients are a new buffer laid out like
        ``params`` that names only the trained parameters; the entries of
        the others are zero.
        """
        loss, trained, head_caches, acts, residual, m = self._forward(inputs, targets, active)
        grads = ParamBuffer(
            {name: p.shape for name, p in self.params.items()},
            names=[name for stack in trained for name in stack.params],
        )
        top = trained[0]
        if self.direction == S_TO_V:
            d_fused = top.backward(acts, (2.0 / m) * residual, grads, input_grad=True)
        else:
            top.backward(acts, (2.0 / m) * residual, grads)
            d_fused = (-2.0 / m) * residual
        for head, head_acts in zip(trained[1:], head_caches):
            head.backward(head_acts, d_fused, grads)

        lam = self.config.l2_lambda
        if lam != 0.0:
            for stack in trained:
                for w, _ in stack.names:
                    grads[w] += (2.0 * lam) * stack.params[w]
        return loss, grads


def init_model(config: NetConfig, seed: int) -> EmbeddingModel:
    """Deterministically initialized model; same (config, seed) -> same weights.

    Weights are uniform Glorot-style, biases zero; the draws go layer by
    layer in buffer order.
    """
    rng = np.random.default_rng(seed)
    model = EmbeddingModel(config)
    for layers in _stacks(config).values():
        for w, _, (out_dim, in_dim) in layers:
            scale = np.sqrt(6.0 / (in_dim + out_dim))
            model.params[w][...] = rng.uniform(-scale, scale, size=(out_dim, in_dim))
    return model


# ---------------------------------------------------------------------------
# finite-difference verification


def numerical_gradients(
    model: EmbeddingModel,
    inputs: Mapping[str, np.ndarray],
    targets,
    active: Iterable[str],
    step: float = 1e-5,
) -> dict[str, np.ndarray]:
    """Central finite differences of the training loss, for verification."""
    grads: dict[str, np.ndarray] = {}
    for name, param in model.trainable_params(active).items():
        g = grads[name] = np.zeros_like(param)
        for i in np.ndindex(param.shape):
            orig = param[i]
            param[i] = orig + step
            hi = model.loss(inputs, targets, active)
            param[i] = orig - step
            lo = model.loss(inputs, targets, active)
            param[i] = orig
            g[i] = (hi - lo) / (2.0 * step)
    return grads


def max_relative_error(analytic: dict[str, np.ndarray], numeric: dict[str, np.ndarray]) -> float:
    """Largest entrywise deviation, scaled by the largest gradient magnitude."""
    if set(analytic) != set(numeric):
        raise ValueError("gradient bundles cover different parameters")
    diff = 0.0
    scale = 0.0
    for name in analytic:
        diff = max(diff, float(np.max(np.abs(analytic[name] - numeric[name]), initial=0.0)))
        scale = max(
            scale,
            float(np.max(np.abs(analytic[name]), initial=0.0)),
            float(np.max(np.abs(numeric[name]), initial=0.0)),
        )
    return diff / max(scale, 1e-12)


def gradient_check(seed: int = 0, step: float = 1e-5) -> float:
    """Worst finite-difference error over small random instances.

    Covers every non-empty subset of four modalities in both directions
    with random dims <= 8 and batches <= 4; returns the max relative
    error. All parameters (biases included) are jittered to generic
    values so no ReLU preactivation sits exactly at its kink, where the
    one-sided subgradient convention and central differences disagree.
    """
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
            flat = model.params.flat
            flat += rng.uniform(-0.3, 0.3, size=flat.size)
            m = int(rng.integers(1, 5))
            inputs = {t: rng.normal(size=(m, dims[t])) for t in subset}
            targets = rng.uniform(0.0, 1.0, size=(m, config.embed_dim))
            _, analytic = model.loss_and_grad(inputs, targets, subset)
            numeric = numerical_gradients(model, inputs, targets, subset, step=step)
            worst = max(worst, max_relative_error(analytic, numeric))
    return worst

"""Seeded synthetic multi-modal dataset generator.

Each class has a latent anchor drawn uniformly from [0,1]^latent_dim.
Visual features are a fixed sparse non-negative random lift of the
anchor to embed_dim plus clipped Gaussian noise, so they look like
post-ReLU activations. Sparsity matters: a dense non-negative lift
concentrates most of the between-class variance along the all-ones
direction, which makes unseen-class geometry nearly unrecoverable from
a small seen-class set; zeroing three quarters of the lift keeps the
anchors' full geometry in play. Each modality observes
``INFORMATION_FRACTION`` of the latent coordinates (subsets balanced so
together they cover everything) through its own random projection, plus
Gaussian noise of scale ``SEMANTIC_NOISE``; the visual noise has scale
``VISUAL_NOISE``. Single modalities are therefore lossy while their
fusion is not — the property the ablation experiments measure.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .data import Dataset, FeatureMatrix, SemanticTable, check_tag

LIFT_DENSITY = 0.25
INFORMATION_FRACTION = 0.5
SEMANTIC_NOISE = 0.05
VISUAL_NOISE = 0.05


@dataclasses.dataclass(frozen=True)
class ModalitySpec:
    """One modality: its tag and the dim of its semantic vectors."""

    tag: str
    dim: int

    def __post_init__(self) -> None:
        check_tag(self.tag)
        if self.dim < 1:
            raise ValueError(f"modality {self.tag}: dim must be positive")


DEFAULT_MODALITIES = (
    ModalitySpec("W", 12),
    ModalitySpec("C", 10),
    ModalitySpec("I", 11),
    ModalitySpec("T", 9),
)


@dataclasses.dataclass(frozen=True)
class SynthConfig:
    n_classes: int = 24
    n_seen: int = 18
    samples_per_class: int = 30
    latent_dim: int = 16
    embed_dim: int = 64
    modalities: tuple[ModalitySpec, ...] = DEFAULT_MODALITIES
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "modalities", tuple(self.modalities))
        if self.n_classes < 2:
            raise ValueError("need at least 2 classes")
        if not 0 < self.n_seen < self.n_classes:
            raise ValueError("n_seen must satisfy 0 < n_seen < n_classes")
        if self.samples_per_class < 1:
            raise ValueError("samples_per_class must be positive")
        if self.latent_dim < 1 or self.embed_dim < 1:
            raise ValueError("latent_dim and embed_dim must be positive")
        if not self.modalities:
            raise ValueError("at least one modality is required")
        tags = [m.tag for m in self.modalities]
        if len(set(tags)) != len(tags):
            raise ValueError(f"duplicate modality tags: {sorted(tags)}")
        if self.seed < 0:
            raise ValueError(f"synth seed must be >= 0, got {self.seed}")


def _coordinate_subsets(
    specs: tuple[ModalitySpec, ...], latent_dim: int, rng: np.random.Generator
) -> dict[str, np.ndarray]:
    """Pick each modality's observed coordinates, balancing coverage.

    Modalities (in sorted tag order) repeatedly grab the least-covered
    coordinates, with seeded random tie-breaking — subsets are disjoint
    while enough unseen coordinates remain, and coverage stays within one
    of uniform otherwise.
    """
    n_keep = math.ceil(INFORMATION_FRACTION * latent_dim)
    coverage = np.zeros(latent_dim, dtype=np.int64)
    subsets: dict[str, np.ndarray] = {}
    for spec in sorted(specs, key=lambda s: s.tag):
        tiebreak = rng.permutation(latent_dim)
        order = np.lexsort((tiebreak, coverage))
        picked = np.sort(order[:n_keep])
        coverage[picked] += 1
        subsets[spec.tag] = picked
    return subsets


def generate(config: SynthConfig) -> Dataset:
    """Deterministic dataset from a config; same config, same bytes."""
    rng = np.random.default_rng(config.seed)
    n, latent = config.n_classes, config.latent_dim

    anchors = rng.uniform(0.0, 1.0, size=(n, latent))
    lift = rng.uniform(0.0, 1.0 / math.sqrt(latent), size=(config.embed_dim, latent))
    keep = rng.uniform(size=lift.shape) < LIFT_DENSITY
    lift = lift * keep / LIFT_DENSITY
    split_order = rng.permutation(n)
    seen = sorted(int(c) for c in split_order[: config.n_seen])
    unseen = sorted(int(c) for c in split_order[config.n_seen :])

    subsets = _coordinate_subsets(config.modalities, latent, rng)
    tables = []
    for spec in sorted(config.modalities, key=lambda s: s.tag):
        observed = anchors[:, subsets[spec.tag]]
        projection = rng.normal(0.0, 1.0 / math.sqrt(observed.shape[1]), size=(spec.dim, observed.shape[1]))
        vectors = observed @ projection.T
        vectors = vectors + SEMANTIC_NOISE * rng.normal(0.0, 1.0, size=vectors.shape)
        tables.append(SemanticTable(spec.tag, FeatureMatrix(vectors, np.arange(n))))

    def sample_block(class_ids: list[int]) -> FeatureMatrix:
        rows, labels = [], []
        for cls in class_ids:
            clean = lift @ anchors[cls]
            noise = rng.normal(0.0, 1.0, size=(config.samples_per_class, config.embed_dim))
            block = clean + VISUAL_NOISE * noise
            rows.append(np.maximum(block, 0.0))
            labels.extend([cls] * config.samples_per_class)
        return FeatureMatrix(np.vstack(rows), np.asarray(labels, dtype=np.int64))

    visual = sample_block(seen)
    test_visual = sample_block(unseen)
    return Dataset(visual, test_visual, tables, seen, unseen)

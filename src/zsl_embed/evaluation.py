"""Nearest-prototype classification of unseen classes and the ablation grid.

Each test sample is assigned the class whose embedded prototype is
nearest under the chosen metric; ties break toward the lowest class id.
``ablate`` trains one model per (modality subset, direction) and scores
it under every metric; ``emit_report`` renders the grid as CSV or a
markdown table. ``hubness_skewness`` quantifies how unevenly classes
appear among the k nearest prototypes of the queries.
"""

from __future__ import annotations

import dataclasses
import zlib
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .data import Dataset
from .metric import MetricKind, check_finite_distances, pairwise_distances, top_k_classes
from .network import DIRECTIONS, EmbeddingModel, NetConfig, S_TO_V
from .training import TrainConfig, train

REPORT_HEADER = "modalities,direction,metric,top1,top5"


@dataclasses.dataclass(frozen=True, eq=False)
class EvalResult:
    """Top-1/Top-5 accuracy with per-class breakdown and a confusion matrix.

    ``confusion[i, j]`` counts test samples of ``class_ids[i]`` predicted
    as ``class_ids[j]``; row sums are the per-class test counts.
    """

    top1: float
    top5: float
    per_class_top1: dict[int, float]
    confusion: np.ndarray
    class_ids: tuple[int, ...]


@dataclasses.dataclass(frozen=True, eq=False)
class AblationCell:
    modalities: tuple[str, ...]
    direction: str
    metric: MetricKind
    result: EvalResult


def _scoring_inputs(
    model: EmbeddingModel, dataset: Dataset, active: Iterable[str]
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Queries (test samples), prototypes (unseen classes) and the class order.

    Raises ValueError naming the class or the test row if any of them is
    not finite, as a diverged model's would be.
    """
    tags = model.config.check_active(active)
    ids = sorted(dataset.unseen)
    missing = [t for t in tags if t not in dataset.modality_tags]
    if missing:
        raise ValueError(f"no semantic table for modalities {missing}")
    prototypes = model.embed({t: dataset.table(t).matrix(ids) for t in tags}, tags)
    if model.direction == S_TO_V:
        queries = dataset.test_visual.values
        if queries.shape[1] != model.config.embed_dim:
            raise ValueError(
                f"test feature dim {queries.shape[1]} does not match "
                f"model embed_dim {model.config.embed_dim}"
            )
    else:
        queries = model.map_visual(dataset.test_visual.values)
    bad = ~np.isfinite(prototypes).all(axis=1)
    if bad.any():
        raise ValueError(
            f"prototype of unseen class {ids[int(np.argmax(bad))]} from modalities "
            f"{'+'.join(tags)} is not finite"
        )
    bad = ~np.isfinite(queries).all(axis=1)
    if bad.any():
        raise ValueError(f"query of test row {int(np.argmax(bad))} is not finite")
    return queries, prototypes, ids


def prediction_distances(
    model: EmbeddingModel,
    dataset: Dataset,
    metric: MetricKind,
    active: Iterable[str],
) -> tuple[np.ndarray, list[int]]:
    """Distance matrix (test samples x unseen classes) and its class order.

    Raises ValueError naming the first distance that is not finite, as
    ``evaluate`` does.
    """
    queries, prototypes, ids = _scoring_inputs(model, dataset, active)
    dist = pairwise_distances(queries, prototypes, metric)
    bad = ~np.isfinite(dist)
    if bad.any():
        row, col = np.unravel_index(int(np.argmax(bad)), dist.shape)
        check_finite_distances(dist[row, col : col + 1], metric, [row], [col])
    return dist, ids


def evaluate(
    model: EmbeddingModel,
    dataset: Dataset,
    metric: MetricKind,
    active: Iterable[str],
) -> EvalResult:
    """Score the model on the dataset's unseen classes.

    Raises ValueError if ``active`` names a modality the model has no
    head for, or if a query, a prototype or a distance is not finite.
    """
    if dataset.test_visual.rows == 0:
        raise ValueError("no test samples")
    queries, prototypes, ids = _scoring_inputs(model, dataset, active)
    id_to_idx = {c: i for i, c in enumerate(ids)}
    true_idx = np.asarray([id_to_idx[int(c)] for c in dataset.test_visual.labels])

    ranked = top_k_classes(queries, prototypes, metric, min(5, len(ids)))
    hit1 = ranked[:, 0] == true_idx
    hit5 = (ranked == true_idx[:, None]).any(axis=1)

    n_cls = len(ids)
    confusion = np.zeros((n_cls, n_cls), dtype=np.int64)
    np.add.at(confusion, (true_idx, ranked[:, 0]), 1)
    per_class = {}
    for i, cls in enumerate(ids):
        mask = true_idx == i
        if mask.any():
            per_class[cls] = float(hit1[mask].mean())
    return EvalResult(
        top1=float(hit1.mean()),
        top5=float(hit5.mean()),
        per_class_top1=per_class,
        confusion=confusion,
        class_ids=tuple(ids),
    )


def hubness_skewness(dist_matrix: np.ndarray, k: int) -> float:
    """Population skewness of the k-occurrence counts across classes.

    ``N_k(c)`` counts queries that rank class ``c`` among their k nearest;
    a long right tail (a few classes hoarding neighbors) gives a large
    positive value. Uniform counts give 0.0.
    """
    dist = np.asarray(dist_matrix, dtype=np.float64)
    if dist.ndim != 2:
        raise ValueError(f"distance matrix must be 2-D, got shape {dist.shape}")
    n_classes = dist.shape[1]
    if n_classes < 2:
        raise ValueError("skewness needs at least 2 classes")
    if not 1 <= k <= n_classes:
        raise ValueError(f"k must be in [1, {n_classes}], got {k}")
    if not np.isfinite(dist).all():
        raise ValueError("distance matrix is not finite")
    ranked = np.argsort(dist, axis=1, kind="stable")[:, :k]
    counts = np.bincount(ranked.ravel(), minlength=n_classes).astype(np.float64)
    centered = counts - counts.mean()
    m2 = float(np.mean(centered**2))
    if m2 == 0.0:
        return 0.0
    m3 = float(np.mean(centered**3))
    return m3 / m2**1.5


def cell_seed(base_seed: int, modalities: Iterable[str], direction: str) -> int:
    """Deterministic per-cell training seed; distinct cells get distinct streams."""
    key = "+".join(sorted(modalities)) + "|" + direction
    return zlib.crc32(key.encode("utf-8"), base_seed)


# the dataset a pool worker of ``ablate`` trains on, sent once per worker
_worker_dataset: Dataset | None = None


def _init_worker(dataset: Dataset) -> None:
    global _worker_dataset
    _worker_dataset = dataset


def _run_cell(task, dataset: Dataset | None = None) -> list[AblationCell]:
    """Train and score one cell; in a pool worker, on the worker's dataset."""
    net_config, train_config, subset, direction, metrics = task
    if dataset is None:
        dataset = _worker_dataset
    seed = cell_seed(train_config.seed, subset, direction)
    cfg = dataclasses.replace(train_config, seed=seed)
    net_cfg = dataclasses.replace(net_config, direction=direction)
    model, _ = train(dataset, net_cfg, cfg, subset)
    return [
        AblationCell(subset, direction, metric, evaluate(model, dataset, metric, subset))
        for metric in metrics
    ]


def ablate(
    dataset: Dataset,
    net_config: NetConfig,
    train_config: TrainConfig,
    subsets: Sequence[Iterable[str]],
    directions: Sequence[str] = (S_TO_V,),
    metrics: Sequence[MetricKind] = (MetricKind.ec(),),
    jobs: int = 1,
) -> list[AblationCell]:
    """Train and score the full (subset x direction) grid under each metric.

    Cells are independent; with ``jobs > 1`` they train in separate
    processes. The returned order and every cell value are identical
    regardless of ``jobs``.
    """
    if not subsets:
        raise ValueError("no modality subsets given")
    for d in directions:
        if d not in DIRECTIONS:
            raise ValueError(f"direction must be one of {DIRECTIONS}, got {d!r}")
    if not metrics:
        raise ValueError("no metrics given")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    # crc32 takes its start value modulo 2**32, so outside this range
    # two base seeds would train the same grid
    if not 0 <= train_config.seed < 2**32:
        raise ValueError(f"ablate seed must be in [0, {2**32}), got {train_config.seed}")
    tasks = []
    for subset in subsets:
        canon = tuple(sorted(set(subset)))
        if not canon:
            raise ValueError("empty modality subset")
        for direction in directions:
            tasks.append((net_config, train_config, canon, direction, tuple(metrics)))
    if jobs == 1:
        grouped = [_run_cell(t, dataset) for t in tasks]
    else:
        with ProcessPoolExecutor(
            max_workers=jobs, initializer=_init_worker, initargs=(dataset,)
        ) as pool:
            grouped = list(pool.map(_run_cell, tasks))
    return [cell for group in grouped for cell in group]


def all_subsets(tags: Iterable[str]) -> list[tuple[str, ...]]:
    """Every non-empty subset, ordered by size then tag order."""
    tags = tuple(sorted(set(tags)))
    out = [
        tuple(t for i, t in enumerate(tags) if mask >> i & 1)
        for mask in range(1, 2 ** len(tags))
    ]
    out.sort(key=lambda s: (len(s), s))
    return out


# ---------------------------------------------------------------------------
# reports


def _sorted_cells(cells: Sequence[AblationCell]) -> list[AblationCell]:
    return sorted(cells, key=lambda c: (c.modalities, c.direction, c.metric.label()))


def emit_report(cells: Sequence[AblationCell], format: str, path: str | Path) -> None:
    """Write the grid as ``csv`` (full precision) or ``markdown`` (percentages)."""
    if not cells:
        raise ValueError("no cells to report")
    path = Path(path)
    ordered = _sorted_cells(cells)
    if format == "csv":
        lines = [REPORT_HEADER]
        for c in ordered:
            lines.append(
                f"{'+'.join(c.modalities)},{c.direction},{c.metric.label()},"
                f"{repr(float(c.result.top1))},{repr(float(c.result.top5))}"
            )
        path.write_text("\n".join(lines) + "\n")
    elif format == "markdown":
        columns = sorted(
            {(c.direction, c.metric.label()) for c in ordered},
            key=lambda dc: (dc[0], dc[1]),
        )
        by_key = {
            (c.modalities, c.direction, c.metric.label()): c.result for c in ordered
        }
        subsets = sorted({c.modalities for c in ordered})
        lines = [
            "| modalities | " + " | ".join(f"{d} {m}" for d, m in columns) + " |",
            "| --- |" + " --- |" * len(columns),
        ]
        for subset in subsets:
            row = ["+".join(subset)]
            for d, m in columns:
                res = by_key.get((subset, d, m))
                row.append("-" if res is None else f"{100 * res.top1:.1f}/{100 * res.top5:.1f}")
            lines.append("| " + " | ".join(row) + " |")
        path.write_text("\n".join(lines) + "\n")
    else:
        raise ValueError(f"unknown report format {format!r}, expected 'csv' or 'markdown'")

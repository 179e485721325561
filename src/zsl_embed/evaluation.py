"""Nearest-prototype classification of unseen classes and the ablation grid.

Both directions score alike: test sample ``i`` is query row ``i`` of
``map_visual`` (its features as given for s2v, mapped for v2s), and it is
assigned the class whose ``embed`` prototype (``fuse`` checks the class's
modality rows against each other) is nearest under the chosen metric;
ties break toward the lowest class id. With no test samples (or, for
``hubness_skewness``, no query rows) scoring raises: no figure is made
from no queries.
``ablate`` trains one model per (modality subset, direction) and scores
it under every metric; by default the grid is every subset of the net's
modalities x both directions x (ec:0.9, euclidean), and a repeated entry
of any axis counts once. ``emit_report`` renders the grid as CSV or a
markdown table. ``hubness_skewness`` quantifies how unevenly classes
appear among the k nearest prototypes of the queries.
"""

from __future__ import annotations

import dataclasses
import itertools
import zlib
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .data import Dataset
from .metric import MetricKind, check_finite_distances, pairwise_distances, top_k_classes
from .network import DIRECTIONS, EmbeddingModel, NetConfig
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

    Raises ValueError if there are no test samples, and names the class or
    the test row if any of them is not finite, as a diverged model's would be.
    """
    if dataset.test_visual.rows == 0:
        raise ValueError("no test samples")
    tags = model.config.check_active(active)
    ids = sorted(dataset.unseen)
    prototypes = model.embed({t: dataset.table(t).matrix(ids) for t in tags}, tags)
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

    Raises ValueError if there are no test samples, and names the first
    distance that is not finite, as ``evaluate`` does.
    """
    queries, prototypes, ids = _scoring_inputs(model, dataset, active)
    dist = pairwise_distances(queries, prototypes, metric)
    rows, cols = np.nonzero(~np.isfinite(dist))
    check_finite_distances(dist[rows, cols], metric, rows, cols)
    return dist, ids


def evaluate(
    model: EmbeddingModel,
    dataset: Dataset,
    metric: MetricKind,
    active: Iterable[str],
) -> EvalResult:
    """Score the model on the dataset's unseen classes.

    Raises ValueError if there are no test samples, if ``active`` names a
    modality the model has no head for, or if a query, a prototype or a
    distance is not finite.
    """
    queries, prototypes, ids = _scoring_inputs(model, dataset, active)
    true_idx = np.searchsorted(ids, dataset.test_visual.labels)

    ranked = top_k_classes(queries, prototypes, metric, min(5, len(ids)))
    hit5 = (ranked == true_idx[:, None]).any(axis=1)

    confusion = np.zeros((len(ids), len(ids)), dtype=np.int64)
    np.add.at(confusion, (true_idx, ranked[:, 0]), 1)
    correct, counts = np.diagonal(confusion), confusion.sum(axis=1)
    per_class = {cls: float(correct[i] / counts[i]) for i, cls in enumerate(ids) if counts[i]}
    return EvalResult(
        top1=float(np.trace(confusion) / len(true_idx)),
        top5=float(hit5.mean()),
        per_class_top1=per_class,
        confusion=confusion,
        class_ids=tuple(ids),
    )


def hubness_skewness(dist_matrix: np.ndarray, k: int) -> float:
    """Population skewness of the k-occurrence counts across classes.

    ``N_k(c)`` counts queries that rank class ``c`` among their k nearest;
    a long right tail (a few classes hoarding neighbors) gives a large
    positive value. Uniform counts give 0.0; a matrix with no query rows
    is rejected rather than scored as hub-free.
    """
    dist = np.asarray(dist_matrix, dtype=np.float64)
    if dist.ndim != 2:
        raise ValueError(f"distance matrix must be 2-D, got shape {dist.shape}")
    n_classes = dist.shape[1]
    if n_classes < 2:
        raise ValueError("skewness needs at least 2 classes")
    if dist.shape[0] == 0:
        raise ValueError("skewness needs at least one query")
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
    """Train and score one cell; in a pool worker, on the worker's dataset.

    A ValueError is raised again with the cell's subset, direction and seed.
    """
    net_config, train_config, subset, metrics = task
    if dataset is None:
        dataset = _worker_dataset
    direction = net_config.direction
    try:
        model, _ = train(dataset, net_config, train_config, subset)
        return [
            AblationCell(subset, direction, metric, evaluate(model, dataset, metric, subset))
            for metric in metrics
        ]
    except ValueError as exc:
        cell = f"cell {'+'.join(subset)} {direction} (seed {train_config.seed})"
        raise ValueError(f"{cell}: {exc}") from None


def ablate(
    dataset: Dataset,
    net_config: NetConfig,
    train_config: TrainConfig,
    subsets: Sequence[Iterable[str]] | None = None,
    directions: Sequence[str] = DIRECTIONS,
    metrics: Sequence[MetricKind] = (MetricKind(), MetricKind.euclidean()),
    jobs: int = 1,
) -> list[AblationCell]:
    """Train and score the (subset x direction) grid under each metric.

    By default the grid is every subset of the net's modalities x both
    directions x (ec:0.9, euclidean). Each axis is a set: subsets are
    canonicalised (``C+W`` is ``W+C``) and a repeated entry of any axis
    counts once, at its first place. Cells are independent; with
    ``jobs > 1`` they train in separate processes. The returned order and
    every cell value are identical regardless of ``jobs``. Every axis is
    checked before the first cell trains.
    """
    if subsets is None:
        subsets = all_subsets(net_config.tags)
    subsets = list(dict.fromkeys(net_config.check_active(s) for s in subsets))
    nets = [dataclasses.replace(net_config, direction=d) for d in dict.fromkeys(directions)]
    metrics = tuple(dict.fromkeys(metrics))
    for axis, values in (("modality subsets", subsets), ("directions", nets), ("metrics", metrics)):
        if not values:
            raise ValueError(f"no {axis} given")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    # crc32 takes its start value modulo 2**32, so outside this range
    # two base seeds would train the same grid
    if not 0 <= train_config.seed < 2**32:
        raise ValueError(f"ablate seed must be in [0, {2**32}), got {train_config.seed}")
    tasks = []
    for subset in subsets:
        for net in nets:
            seed = cell_seed(train_config.seed, subset, net.direction)
            tasks.append((net, dataclasses.replace(train_config, seed=seed), subset, metrics))
    if jobs == 1:
        grouped = [_run_cell(t, dataset) for t in tasks]
    else:
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(tasks)), initializer=_init_worker, initargs=(dataset,)
        ) as pool:
            grouped = list(pool.map(_run_cell, tasks))
    return [cell for group in grouped for cell in group]


def all_subsets(tags: Iterable[str]) -> list[tuple[str, ...]]:
    """Every non-empty subset, ordered by size then tag order."""
    tags = sorted(set(tags))
    return [s for size in range(1, len(tags) + 1) for s in itertools.combinations(tags, size)]


# ---------------------------------------------------------------------------
# reports


def emit_report(cells: Sequence[AblationCell], format: str, path: str | Path) -> None:
    """Write the grid as ``csv`` (full precision) or ``markdown`` (percentages)."""
    if not cells:
        raise ValueError("no cells to report")
    path = Path(path)
    ordered = sorted(cells, key=lambda c: (c.modalities, c.direction, c.metric.label()))
    if format == "csv":
        lines = [REPORT_HEADER]
        for c in ordered:
            lines.append(
                f"{'+'.join(c.modalities)},{c.direction},{c.metric.label()},"
                f"{repr(float(c.result.top1))},{repr(float(c.result.top5))}"
            )
        path.write_text("\n".join(lines) + "\n")
    elif format == "markdown":
        columns = sorted({(c.direction, c.metric.label()) for c in ordered})
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

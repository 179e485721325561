"""The benchmark's own computations and its correctness checks.

Nothing here calls into ``zsl_embed``: the checks recompute what the
program reports from the method's definitions (the fusion forward pass,
the three distance formulas, nearest-prototype ranking, k-occurrence
skewness) or test properties the method must have. Every check returns
a list of failure messages; an empty list means the outputs passed.
"""

from __future__ import annotations

import numpy as np

# Queries whose best two (or fifth and sixth best) distances lie within
# this relative gap are near-ties: rounding may legitimately order them
# either way, so they are left out of the ranking comparison.
NEAR_TIE_RTOL = 1e-9
LOSS_RTOL = 1e-9
HUBNESS_ATOL = 1e-9
REPORT_HEADER = "modalities,direction,metric,top1,top5"


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def fused_and_embedded(params: dict, inputs: dict, tags) -> tuple[np.ndarray, np.ndarray]:
    """Per-modality two-layer ReLU heads, summed, then the shared ReLU layer."""
    fused = None
    for tag in sorted(tags):
        h = _relu(inputs[tag] @ params[f"head.{tag}.W1"].T + params[f"head.{tag}.b1"])
        h = _relu(h @ params[f"head.{tag}.W2"].T + params[f"head.{tag}.b2"])
        fused = h if fused is None else fused + h
    embedded = _relu(fused @ params["out.W3"].T + params["out.b3"])
    return fused, embedded


def s2v_loss(params: dict, inputs: dict, targets: np.ndarray, tags, l2_lambda: float) -> float:
    """Mean squared embedding error plus the L2 penalty on trained weights."""
    _, embedded = fused_and_embedded(params, inputs, tags)
    residual = embedded - targets
    data_term = float(np.sum(residual * residual)) / targets.shape[0]
    weights = [params[f"head.{t}.{w}"] for t in tags for w in ("W1", "W2")]
    weights.append(params["out.W3"])
    return data_term + l2_lambda * sum(float(np.sum(w * w)) for w in weights)


def distances(queries: np.ndarray, prototypes: np.ndarray, kind: str, eta: float = 0.0) -> np.ndarray:
    """(queries x prototypes) distances, one prototype column at a time.

    ``euclidean`` is ||a-b||^2, ``cosine`` is 1 - cos and ``ec`` is
    (1 - eta*cos) * ||a-b||^2, with cos taken as 0 when a norm is 0.
    """
    eucsq = np.empty((queries.shape[0], prototypes.shape[0]))
    for c, proto in enumerate(prototypes):
        diff = queries - proto
        eucsq[:, c] = np.einsum("ij,ij->i", diff, diff)
    if kind == "euclidean":
        return eucsq
    qn = np.linalg.norm(queries, axis=1)
    pn = np.linalg.norm(prototypes, axis=1)
    denom = np.outer(qn, pn)
    dots = queries @ prototypes.T
    cos = np.clip(np.divide(dots, denom, out=np.zeros_like(dots), where=denom > 0), -1.0, 1.0)
    if kind == "cosine":
        return 1.0 - cos
    if kind == "ec":
        return (1.0 - eta * cos) * eucsq
    raise ValueError(f"unknown distance {kind!r}")


def near_ties(dist: np.ndarray, rtol: float = NEAR_TIE_RTOL) -> np.ndarray:
    """Rows whose rank-1 or rank-5 boundary is closer than ``rtol``."""
    s = np.sort(dist, axis=1)
    tied = (s[:, 1] - s[:, 0]) <= rtol * np.maximum(np.abs(s[:, 0]), 1e-300)
    if s.shape[1] > 5:
        tied |= (s[:, 5] - s[:, 4]) <= rtol * np.maximum(np.abs(s[:, 4]), 1e-300)
    return tied


def nearest(dist: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k nearest columns per row; equal distances keep index order."""
    if k == 1:
        return np.argmin(dist, axis=1)[:, None]
    cols = np.arange(dist.shape[1])
    return np.array([np.lexsort((cols, row))[:k] for row in dist])


def ranking(dist: np.ndarray, true_idx: np.ndarray) -> dict:
    """Top-1 / top-5 hit counts, the confusion matrix and the near-tie rows."""
    top1 = nearest(dist, 1)[:, 0]
    top5 = nearest(dist, min(5, dist.shape[1]))
    n = dist.shape[1]
    confusion = np.zeros((n, n), dtype=np.int64)
    np.add.at(confusion, (true_idx, top1), 1)
    return {
        "hit1": int(np.sum(top1 == true_idx)),
        "hit5": int(np.sum((top5 == true_idx[:, None]).any(axis=1))),
        "confusion": confusion,
        "ties": near_ties(dist),
        "top1": top1,
    }


def k_occurrence_skewness(top1: np.ndarray, n_classes: int) -> float:
    """Population skewness of how often each class is some query's nearest."""
    counts = np.bincount(top1, minlength=n_classes).astype(np.float64)
    centered = counts - counts.mean()
    m2 = float(np.mean(centered**2))
    return 0.0 if m2 == 0.0 else float(np.mean(centered**3)) / m2**1.5


# ---------------------------------------------------------------------------
# checks


def check_eval(label: str, own: dict, result, n_queries: int) -> list[str]:
    """Compare the program's EvalResult with the benchmark's own ranking.

    Without near-ties everything must agree exactly; each near-tie row may
    move one hit and one confusion entry.
    """
    errors = []
    ties = int(own["ties"].sum())
    hit1 = round(result.top1 * n_queries)
    hit5 = round(result.top5 * n_queries)
    if abs(hit1 - own["hit1"]) > ties:
        errors.append(f"{label}: top-1 {hit1}/{n_queries}, benchmark ranks {own['hit1']} ({ties} near-ties)")
    if abs(hit5 - own["hit5"]) > ties:
        errors.append(f"{label}: top-5 {hit5}/{n_queries}, benchmark ranks {own['hit5']} ({ties} near-ties)")
    confusion = np.asarray(result.confusion)
    if confusion.shape != own["confusion"].shape:
        errors.append(f"{label}: confusion shape {confusion.shape}, expected {own['confusion'].shape}")
    elif int(np.abs(confusion - own["confusion"]).sum()) > 2 * ties:
        errors.append(f"{label}: confusion matrix differs from the benchmark's ranking")
    if int(confusion.sum()) != n_queries:
        errors.append(f"{label}: confusion matrix counts {int(confusion.sum())} of {n_queries} queries")
    return errors


def check_hubness(value: float, own_top1: np.ndarray, ties: np.ndarray, n_classes: int) -> list[str]:
    """k=1 hubness must equal the skewness of the benchmark's own counts."""
    if ties.any():
        return []  # a near-tie may move one count; reported by the caller
    expected = k_occurrence_skewness(own_top1, n_classes)
    if not abs(value - expected) <= HUBNESS_ATOL * max(1.0, abs(expected)):
        return [f"hubness skewness {value!r}, benchmark computes {expected!r}"]
    return []


def check_loss(label: str, program: float, own: float) -> list[str]:
    if not np.isfinite(program) or abs(program - own) > LOSS_RTOL * abs(own):
        return [f"{label}: EmbeddingModel.loss {program!r}, benchmark forward pass {own!r}"]
    return []


def check_bitwise_params(saved: dict, loaded: dict) -> list[str]:
    """Reloaded parameters must carry exactly the saved bits."""
    if set(saved) != set(loaded):
        return [f"reloaded parameter names differ: {sorted(set(saved) ^ set(loaded))}"]
    bad = [
        name for name in sorted(saved)
        if saved[name].shape != loaded[name].shape
        or saved[name].astype("<f8").tobytes() != loaded[name].astype("<f8").tobytes()
    ]
    return [f"reloaded parameters differ bitwise: {bad}"] if bad else []


def check_report(text: str, subsets, directions, metrics, n_test: int) -> list[str]:
    """Parse a csv ablation report and test the properties of the grid.

    One row per (subset, direction, metric); accuracies are multiples of
    1/n_test in [0, 1] with top-5 >= top-1; the all-modality s2v fusion
    scores at least every single modality under the first metric.
    """
    lines = text.splitlines()
    if not lines or lines[0] != REPORT_HEADER:
        return ["report header missing or malformed"]
    errors = []
    rows: dict[tuple, tuple[float, float]] = {}
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 5:
            errors.append(f"malformed report row {line!r}")
            continue
        key = (parts[0], parts[1], parts[2])
        if key in rows:
            errors.append(f"duplicate report row {key}")
        top1, top5 = float(parts[3]), float(parts[4])
        rows[key] = (top1, top5)
        for value in (top1, top5):
            scaled = value * n_test
            if not 0.0 <= value <= 1.0 or abs(scaled - round(scaled)) > 1e-6:
                errors.append(f"{key}: accuracy {value!r} is not a multiple of 1/{n_test} in [0, 1]")
        if top5 < top1:
            errors.append(f"{key}: top-5 {top5!r} below top-1 {top1!r}")
    expected = {("+".join(s), d, m) for s in subsets for d in directions for m in metrics}
    if set(rows) != expected:
        missing, extra = sorted(expected - set(rows)), sorted(set(rows) - expected)
        errors.append(f"report rows differ from the grid: missing {missing}, extra {extra}")
        return errors
    full = "+".join(max(subsets, key=len))
    fused = rows[(full, "s2v", metrics[0])][0]
    for subset in subsets:
        if len(subset) == 1:
            single = rows[(subset[0], "s2v", metrics[0])][0]
            if fused < single:
                errors.append(f"fusion {full} top-1 {fused!r} below single {subset[0]} {single!r}")
    return errors

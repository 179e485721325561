"""Distance functions and class ranking.

``ec`` is a combined metric: ``(1 - eta * cos<a, b>) * ||a - b||^2``. At
``eta = 0`` it reduces to squared Euclidean distance; larger ``eta`` lets
angular agreement discount the Euclidean term, which can change the
nearest class relative to plain Euclidean ranking. All distances are
computed in double precision with elementwise reductions so that a
brute-force per-pair evaluation reproduces them bit for bit.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from zsl_embed.data import FeatureMatrix

METRIC_KINDS = ("euclidean", "cosine", "ec")


@dataclasses.dataclass(frozen=True)
class MetricKind:
    """Distance selector: squared Euclidean, cosine distance, or EC.

    ``eta`` weights the cosine term and is meaningful only for ``ec``.
    """

    kind: str
    eta: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in METRIC_KINDS:
            raise ValueError(f"unknown metric kind {self.kind!r}, expected one of {METRIC_KINDS}")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must be in [0, 1], got {self.eta}")

    @classmethod
    def euclidean(cls) -> "MetricKind":
        return cls("euclidean")

    @classmethod
    def cosine(cls) -> "MetricKind":
        return cls("cosine")

    @classmethod
    def ec(cls, eta: float = 0.9) -> "MetricKind":
        return cls("ec", eta)

    def label(self) -> str:
        """Short text form used in reports, e.g. ``ec:0.9``."""
        if self.kind == "ec":
            return f"ec:{float(self.eta)!r}"
        return self.kind

    @classmethod
    def from_label(cls, text: str) -> "MetricKind":
        if text.startswith("ec:"):
            return cls("ec", float(text[3:]))
        if text == "ec":
            return cls("ec", 0.9)
        return cls(text)


def _check_pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or b.ndim != 1 or a.shape != b.shape:
        raise ValueError(f"vector length mismatch: {a.shape} vs {b.shape}")
    return a, b


def cosine_sim(a, b) -> float:
    """Cosine similarity in [-1, 1]; 0 by convention when either norm is 0."""
    a, b = _check_pair(a, b)
    na = np.sqrt(np.sum(a * a))
    nb = np.sqrt(np.sum(b * b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    # clip ULP overshoot so downstream (1 - eta*cos) stays non-negative
    return float(np.clip(np.sum(a * b) / (na * nb), -1.0, 1.0))


def ec_distance(a, b, eta: float) -> float:
    """Cosine-weighted squared Euclidean distance, symmetric and >= 0."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must be in [0, 1], got {eta}")
    a, b = _check_pair(a, b)
    d = a - b
    return float((1.0 - eta * cosine_sim(a, b)) * np.sum(d * d))


def metric_distance(a, b, metric: MetricKind) -> float:
    """Distance between two vectors under the selected metric."""
    if metric.kind == "euclidean":
        a, b = _check_pair(a, b)
        d = a - b
        return float(np.sum(d * d))
    if metric.kind == "cosine":
        return 1.0 - cosine_sim(a, b)
    return ec_distance(a, b, metric.eta)


def pairwise_distances(queries, prototypes, metric: MetricKind) -> np.ndarray:
    """Distance matrix (queries x prototypes) under the selected metric.

    Accepts a FeatureMatrix or a 2-D array for ``queries``. Entry (i, c)
    equals ``metric_distance(queries[i], prototypes[c], metric)`` exactly;
    reductions are elementwise (no BLAS accumulation) to keep per-entry
    results identical to a scalar double loop.
    """
    if isinstance(queries, FeatureMatrix):
        queries = queries.values
    q = np.asarray(queries, dtype=np.float64)
    p = np.asarray(prototypes, dtype=np.float64)
    if q.ndim != 2 or p.ndim != 2:
        raise ValueError("queries and prototypes must be 2-D")
    if q.shape[1] != p.shape[1]:
        raise ValueError(
            f"dimension mismatch: queries have dim {q.shape[1]}, prototypes {p.shape[1]}"
        )
    diff = q[:, None, :] - p[None, :, :]
    diff *= diff
    eucsq = np.sum(diff, axis=-1)
    del diff  # free the q x p x d temporary before the product for the dots
    if metric.kind == "euclidean":
        return eucsq
    dots = np.sum(q[:, None, :] * p[None, :, :], axis=-1)
    qn = np.sqrt(np.sum(q * q, axis=1))
    pn = np.sqrt(np.sum(p * p, axis=1))
    denom = qn[:, None] * pn[None, :]
    cos = np.divide(dots, denom, out=np.zeros_like(dots), where=denom > 0)
    np.clip(cos, -1.0, 1.0, out=cos)
    if metric.kind == "cosine":
        return 1.0 - cos
    return (1.0 - metric.eta * cos) * eucsq


def rank_classes(dist_row, k: int) -> list[int]:
    """Indices of the k smallest distances, ascending; ties break by index."""
    row = np.asarray(dist_row, dtype=np.float64)
    if row.ndim != 1:
        raise ValueError("distance row must be 1-D")
    if not 1 <= k <= row.size:
        raise ValueError(f"k must be in [1, {row.size}], got {k}")
    order = np.argsort(row, kind="stable")
    return [int(i) for i in order[:k]]

"""Distance functions and nearest-prototype ranking.

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


# bytes of the temporaries one block of scoring allocates: about one
# core's L2 cache
_BLOCK_BYTES = 2 << 20


def _as_matrices(queries, prototypes) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(queries, FeatureMatrix):
        queries = queries.values
    # row-major, so every reduction over the last axis runs in one order
    q = np.ascontiguousarray(queries, dtype=np.float64)
    p = np.ascontiguousarray(prototypes, dtype=np.float64)
    if q.ndim != 2 or p.ndim != 2:
        raise ValueError("queries and prototypes must be 2-D")
    if q.shape[1] != p.shape[1]:
        raise ValueError(
            f"dimension mismatch: queries have dim {q.shape[1]}, prototypes {p.shape[1]}"
        )
    return q, p


def _rows_per_block(row_bytes: int) -> int:
    return max(1, _BLOCK_BYTES // max(row_bytes, 1))


def _squared_norms(x: np.ndarray) -> np.ndarray:
    """Each row's sum of squares, reduced as ``metric_distance`` reduces it."""
    out = np.empty(x.shape[0])
    step = _rows_per_block(8 * x.shape[1])
    for lo in range(0, x.shape[0], step):
        block = x[lo : lo + step]
        out[lo : lo + step] = np.sum(block * block, axis=1)
    return out


def _exact(q, p, qn, pn, metric: MetricKind) -> np.ndarray:
    """Distances between the rows of ``q`` and ``p``, broadcast against each other.

    ``q`` and ``p`` broadcast to (..., d) and their norms ``qn`` and ``pn``
    to (...). Every entry is reduced over the last axis alone, as
    ``metric_distance`` reduces one pair.
    """
    if metric.kind != "cosine":
        diff = q - p
        diff *= diff
        eucsq = np.sum(diff, axis=-1)
        del diff  # free the temporary before the product for the dots
        if metric.kind == "euclidean":
            return eucsq
    dots = np.sum(q * p, axis=-1)
    denom = qn * pn
    cos = np.divide(dots, denom, out=np.zeros_like(dots), where=denom > 0)
    np.clip(cos, -1.0, 1.0, out=cos)
    if metric.kind == "cosine":
        return 1.0 - cos
    return (1.0 - metric.eta * cos) * eucsq


def pairwise_distances(queries, prototypes, metric: MetricKind) -> np.ndarray:
    """Distance matrix (queries x prototypes) under the selected metric.

    Accepts a FeatureMatrix or a 2-D array for ``queries``. Entry (i, c)
    equals ``metric_distance(queries[i], prototypes[c], metric)`` exactly;
    reductions are elementwise (no BLAS accumulation) to keep per-entry
    results identical to a scalar double loop. Query rows are scored in
    blocks whose temporary stays within ``_BLOCK_BYTES``.
    """
    q, p = _as_matrices(queries, prototypes)
    qn, pn = np.sqrt(_squared_norms(q)), np.sqrt(_squared_norms(p))
    out = np.empty((q.shape[0], p.shape[0]))
    step = _rows_per_block(8 * p.size)
    for lo in range(0, q.shape[0], step):
        hi = lo + step
        out[lo:hi] = _exact(q[lo:hi, None, :], p[None], qn[lo:hi, None], pn[None], metric)
    return out


def check_finite_distances(scored: np.ndarray, metric: MetricKind, rows, cols) -> None:
    """Raise ValueError naming the first entry of ``scored`` that is not
    finite, the distance between query ``rows[i]`` and prototype ``cols[i]``."""
    bad = ~np.isfinite(scored)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(
            f"non-finite {metric.label()} distance {scored[i]} between "
            f"query row {rows[i]} and prototype row {cols[i]}"
        )


def _screen(qsq, psq, dots, metric: MetricKind, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Distances from squared norms and BLAS dot products, with error bounds.

    Each bound covers the distance of ``_exact`` whatever order either
    side sums in: 4(d + 4) eps (|q| + |p|)^2 for the squared Euclidean
    part, 8(d + 4) eps for the cosine (plus an underflow term each), and
    their composition for ``ec``. That is about four times the worst
    case of ``d`` rounded products and sums on both sides.
    """
    eps = np.finfo(np.float64).eps
    tiny = np.finfo(np.float64).smallest_subnormal
    c = 4.0 * (dim + 4)
    qn, pn = np.sqrt(qsq)[:, None], np.sqrt(psq)[None, :]
    if metric.kind != "euclidean":
        denom = qn * pn
        cos = np.divide(dots, denom, out=np.zeros_like(dots), where=denom > 0)
        np.clip(cos, -1.0, 1.0, out=cos)
        cos_err = 2.0 * c * (eps + np.divide(tiny, denom, out=np.zeros_like(denom), where=denom > 0))
        if metric.kind == "cosine":
            return 1.0 - cos, cos_err + 2.0 * eps
    eucsq = qsq[:, None] + psq[None, :] - 2.0 * dots
    euc_err = c * (eps * (qn + pn) ** 2 + tiny)
    if metric.kind == "euclidean":
        return eucsq, euc_err
    w = 1.0 - metric.eta * cos
    w_err = metric.eta * cos_err + 4.0 * eps
    w_hi, e_hi = w + w_err, np.abs(eucsq) + euc_err
    return w * eucsq, w_hi * euc_err + e_hi * w_err + eps * w_hi * e_hi


def top_k_classes(queries, prototypes, metric: MetricKind, k: int) -> np.ndarray:
    """Each query's k nearest prototype rows, nearest first; ties break by index.

    Equals ``np.argsort(pairwise_distances(...), axis=1, kind="stable")[:, :k]``.
    One GEMM of dot products bounds every distance; only prototypes whose
    lower bound reaches the k-th smallest upper bound of their row are
    rescored with the exact kernel of ``pairwise_distances``. Raises
    ValueError if an exact distance it computes is not finite.
    """
    q, p = _as_matrices(queries, prototypes)
    if not 1 <= k <= p.shape[0]:
        raise ValueError(f"k must be in [1, {p.shape[0]}], got {k}")
    # overflow and NaN are handled: such rows are rescored, and such distances raise
    with np.errstate(over="ignore", invalid="ignore"):
        qsq, psq = _squared_norms(q), _squared_norms(p)
        approx, err = _screen(qsq, psq, q @ p.T, metric, q.shape[1])
        lower, upper = approx - err, approx + err
        kth = np.partition(upper, k - 1, axis=1)[:, k - 1 : k]
        candidate = lower <= kth
        # a row whose bounds overflowed or met a NaN is rescored in full
        candidate[~(np.isfinite(lower) & np.isfinite(upper)).all(axis=1)] = True
        rows, cols = np.nonzero(candidate)
        qn, pn = np.sqrt(qsq), np.sqrt(psq)
        exact = np.full(approx.shape, np.inf)
        step = _rows_per_block(3 * 8 * q.shape[1])  # q rows, p rows and one temporary
        for lo in range(0, rows.size, step):
            r, c = rows[lo : lo + step], cols[lo : lo + step]
            scored = _exact(q[r], p[c], qn[r], pn[c], metric)
            check_finite_distances(scored, metric, r, c)
            exact[r, c] = scored
    return np.argsort(exact, axis=1, kind="stable")[:, :k]

"""Distance functions and nearest-prototype ranking.

``ec`` is a combined metric: ``(1 - eta * cos<a, b>) * ||a - b||^2``. At
``eta = 0`` it reduces to squared Euclidean distance; larger ``eta`` lets
angular agreement discount the Euclidean term, which can change the
nearest class relative to plain Euclidean ranking. All distances are
computed in double precision, each exact sum as one BLAS dot per pair
(``_dot``), so that a per-pair evaluation reproduces them bit for bit.

``pairwise_distances`` computes every exact distance: it streams each
prototype through cache-sized blocks of query rows. ``top_k_classes``
screens a block of queries at a time with one GEMM and rounding-error
bounds, and calls ``pairwise_distances`` only for rows whose ranks the
bounds cannot settle, on each such row's candidates.
"""

from __future__ import annotations

import dataclasses

import numpy as np

METRIC_KINDS = ("euclidean", "cosine", "ec")


@dataclasses.dataclass(frozen=True)
class MetricKind:
    """Distance selector: squared Euclidean, cosine distance, or EC.

    The defaults are the paper's metric, EC at ``eta = 0.9``. ``eta``
    weights the cosine term and is meaningful only for ``ec``; any other
    kind stores it as 0.0, whatever it was given.
    """

    kind: str = "ec"
    eta: float = 0.9

    def __post_init__(self) -> None:
        if self.kind not in METRIC_KINDS:
            raise ValueError(f"unknown metric kind {self.kind!r}, expected one of {METRIC_KINDS}")
        if self.kind != "ec":
            object.__setattr__(self, "eta", 0.0)
        elif not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must be in [0, 1], got {self.eta}")

    @classmethod
    def euclidean(cls) -> "MetricKind":
        return cls("euclidean")

    @classmethod
    def cosine(cls) -> "MetricKind":
        return cls("cosine")

    @classmethod
    def ec(cls, eta: float | None = None) -> "MetricKind":
        return cls() if eta is None else cls("ec", eta)

    def label(self) -> str:
        """Short text form used in reports, e.g. ``ec:0.9``."""
        if self.kind == "ec":
            return f"ec:{float(self.eta)!r}"
        return self.kind

    @classmethod
    def from_label(cls, text: str) -> "MetricKind":
        if text.startswith("ec:"):
            return cls("ec", float(text[3:]))
        return cls(text)


# OpenBLAS spreads a ddot of more than 10,000 terms over its threads, which
# makes the sum's rounding depend on the thread count; no chunk is that long
_DOT_CHUNK = 8192


def _dot(x, y, out=None):
    """``sum(x * y)`` over the last axis (broadcast), as BLAS dots of chunks
    of at most ``_DOT_CHUNK`` columns added left to right. Rows must be
    contiguous: a strided row takes another BLAS kernel, with other rounding."""
    out = np.vecdot(x[..., :_DOT_CHUNK], y[..., :_DOT_CHUNK], out=out)
    for lo in range(_DOT_CHUNK, x.shape[-1], _DOT_CHUNK):
        out += np.vecdot(x[..., lo : lo + _DOT_CHUNK], y[..., lo : lo + _DOT_CHUNK])
    return out


def _check_pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or b.ndim != 1 or a.shape != b.shape:
        raise ValueError(f"vector length mismatch: {a.shape} vs {b.shape}")
    return np.ascontiguousarray(a), np.ascontiguousarray(b)


def cosine_sim(a, b) -> float:
    """Cosine similarity in [-1, 1]; 0 by convention when either norm is 0."""
    a, b = _check_pair(a, b)
    na, nb = np.sqrt(_dot(a, a)), np.sqrt(_dot(b, b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    # clip ULP overshoot so downstream (1 - eta*cos) stays non-negative
    return float(np.clip(_dot(a, b) / (na * nb), -1.0, 1.0))


def ec_distance(a, b, eta: float) -> float:
    """Cosine-weighted squared Euclidean distance, symmetric and >= 0."""
    eta = MetricKind("ec", eta).eta  # checks its range
    a, b = _check_pair(a, b)
    d = a - b
    return float((1.0 - eta * cosine_sim(a, b)) * _dot(d, d))


def metric_distance(a, b, metric: MetricKind) -> float:
    """Distance between two vectors under the selected metric."""
    if metric.kind == "euclidean":
        a, b = _check_pair(a, b)
        d = a - b
        return float(_dot(d, d))
    if metric.kind == "cosine":
        return 1.0 - cosine_sim(a, b)
    return ec_distance(a, b, metric.eta)


# most bytes of one block of query rows, and of the scratch that
# ``pairwise_distances`` reuses within it (or of a block's distances, when
# ranking): the fastest of 64 KiB to 2 MiB for 1000 x 50 x 2048 on a core
# with 2 MiB of L2
_BLOCK_BYTES = 512 << 10


def _as_matrices(queries, prototypes) -> tuple[np.ndarray, np.ndarray]:
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


def _cosine(dots, qn, pn) -> tuple[np.ndarray, np.ndarray]:
    """Cosines from dot products and the norms of both sides, which
    broadcast to the shape of ``dots``, and the products of those norms.
    A cosine is 0 where either norm is 0 and clipped to [-1, 1]."""
    denom = qn * pn
    cos = np.divide(dots, denom, out=np.zeros_like(dots), where=denom > 0)
    np.clip(cos, -1.0, 1.0, out=cos)
    return cos, denom


def pairwise_distances(queries, prototypes, metric: MetricKind) -> np.ndarray:
    """Distance matrix (queries x prototypes) under the selected metric.

    Entry (i, c) equals ``metric_distance(queries[i], prototypes[c],
    metric)`` exactly: both sum each pair with ``_dot``, never with a GEMM,
    whose blocking rounds each entry its own way. Each prototype is scored
    against one block of query rows at a time, into one scratch block per
    call, sized to the query rows and at most ``_BLOCK_BYTES``; cos, its
    clip and the EC weight are then applied once over the whole matrix.
    """
    q, p = _as_matrices(queries, prototypes)
    buf = np.empty((min(max(len(q), 1), _rows_per_block(8 * q.shape[1])), q.shape[1]))
    # prototype-major, so each block's sums land in one contiguous run
    eucsq, dots = np.empty((2, p.shape[0], q.shape[0]))
    # finite inputs whose squares overflow score inf or NaN, which the callers reject
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, q.shape[0], len(buf)):
            block = q[lo : lo + len(buf)]
            diff, hi = buf[: len(block)], lo + len(block)
            for c, proto in enumerate(p):
                if metric.kind != "cosine":
                    _dot(np.subtract(block, proto, out=diff), diff, out=eucsq[c, lo:hi])
                if metric.kind != "euclidean":
                    _dot(block, proto, out=dots[c, lo:hi])
        dist = eucsq
        if metric.kind != "euclidean":
            cos, _ = _cosine(dots, np.sqrt(_dot(q, q)), np.sqrt(_dot(p, p))[:, None])
            dist = 1.0 - cos if metric.kind == "cosine" else (1.0 - metric.eta * cos) * eucsq
    return np.ascontiguousarray(dist.T)


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

    Each bound covers the distance of ``pairwise_distances`` whatever order
    either side sums in: 4(d + 4) eps (|q| + |p|)^2 for the squared Euclidean
    part, 8(d + 4) eps for the cosine (plus an underflow term each), and
    their composition for ``ec``: about four times the standard bound of a
    ``d``-term dot product on both sides, in any order, with or without FMA.
    """
    eps = np.finfo(np.float64).eps
    tiny = np.finfo(np.float64).smallest_subnormal
    c = 4.0 * (dim + 4)
    qn, pn = np.sqrt(qsq)[:, None], np.sqrt(psq)[None, :]
    if metric.kind != "euclidean":
        cos, denom = _cosine(dots, qn, pn)
        # eps + tiny / denom rounds to eps wherever denom >= 1, so only
        # smaller denominators are divided: a subnormal quotient is slow
        under = np.divide(tiny, denom, out=np.zeros_like(denom), where=(denom > 0) & (denom < 1.0))
        cos_err = 2.0 * c * (eps + under)
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
    Query rows are ranked in blocks of ``_BLOCK_BYTES`` of distances, so
    memory grows with the queries only by the ranks returned. One GEMM of
    dot products bounds every distance of a block. A row whose screen
    leaves exactly k candidates with disjoint bounds is ranked by those
    bounds alone; every other row is ranked by ``pairwise_distances`` of
    its candidates, the prototypes whose lower bound reaches the k-th
    smallest upper bound of the row. Raises ValueError if a candidate's
    exact distance is not finite.
    """
    q, p = _as_matrices(queries, prototypes)
    if not 1 <= k <= p.shape[0]:
        raise ValueError(f"k must be in [1, {p.shape[0]}], got {k}")
    ranked = np.empty((q.shape[0], k), dtype=np.intp)
    step = _rows_per_block(8 * p.shape[0])
    # overflow and NaN are handled: such rows are rescored, and such distances raise
    with np.errstate(over="ignore", invalid="ignore"):
        psq = _dot(p, p)
        for lo in range(0, q.shape[0], step):
            _rank_block(q[lo : lo + step], lo, p, psq, metric, ranked[lo : lo + step])
    return ranked


def _rank_block(q, first_row, p, psq, metric: MetricKind, ranked) -> None:
    """Write ``top_k_classes`` of the query rows ``q``, which start at row
    ``first_row`` of all queries, into ``ranked``; ``psq`` holds the
    prototypes' squared norms."""
    k = ranked.shape[1]
    approx, err = _screen(_dot(q, q), psq, q @ p.T, metric, q.shape[1])
    lower, upper = approx - err, approx + err
    kth = np.partition(upper, k - 1, axis=1)[:, k - 1 : k]
    candidate = lower <= kth
    finite = (np.isfinite(lower) & np.isfinite(upper)).all(axis=1)
    # a row whose bounds overflowed or met a NaN is rescored in full
    candidate[~finite] = True
    # With exactly k candidates, each one's upper bound is at most the k-th
    # smallest, below every other prototype's lower bound. If their
    # intervals, sorted by lower bound, do not overlap either, no exact
    # distance can reorder them or tie: the screen alone ranks the row.
    few = np.flatnonzero(finite & (np.count_nonzero(candidate, axis=1) == k))[:, None]
    cols = np.nonzero(candidate[few[:, 0]])[1].reshape(-1, k)
    cols = np.take_along_axis(cols, np.argsort(lower[few, cols], axis=1), axis=1)
    apart = (upper[few, cols[:, :-1]] < lower[few, cols[:, 1:]]).all(axis=1)
    settled = few[apart, 0]
    ranked[settled] = cols[apart]
    # every other row: score its candidates exactly. They are at least k, in
    # index order, and each other prototype is farther than k of them, so a
    # stable sort of their checked, finite distances ranks the row as a
    # stable sort of all its exact distances would.
    for row in np.setdiff1d(np.arange(q.shape[0]), settled, assume_unique=True):
        cols = np.flatnonzero(candidate[row])
        scored = pairwise_distances(q[row : row + 1], p[cols], metric)[0]
        check_finite_distances(scored, metric, [first_row + row] * cols.size, cols)
        ranked[row] = cols[np.argsort(scored, kind="stable")[:k]]

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zsl_embed import metric as metric_module
from zsl_embed.metric import (
    MetricKind,
    cosine_sim,
    ec_distance,
    metric_distance,
    pairwise_distances,
    top_k_classes,
)

ALL_METRICS = (MetricKind.euclidean(), MetricKind.cosine(), MetricKind.ec(0.9))

finite_vec = st.lists(
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False), min_size=2, max_size=6
)


def scalar_ec(a, b, eta):
    """Independent EC reference: plain Python floats throughout."""
    dot = sum(x * y for x, y in zip(a, b))
    na = math.sqrt(sum(x * x for x in a))
    nb = math.sqrt(sum(y * y for y in b))
    cos = 0.0 if na == 0.0 or nb == 0.0 else max(-1.0, min(1.0, dot / (na * nb)))
    d2 = sum((x - y) ** 2 for x, y in zip(a, b))
    return (1.0 - eta * cos) * d2


def test_cosine_examples():
    assert cosine_sim([1, 0], [1, 0]) == 1.0
    assert cosine_sim([1, 0], [0, 1]) == 0.0
    assert abs(cosine_sim([1, 0], [1.05, 0.55]) - 0.88584) < 1e-4


def test_cosine_zero_vector_convention():
    assert cosine_sim([0, 0], [1, 2]) == 0.0
    assert cosine_sim([1, 2], [0, 0]) == 0.0
    assert cosine_sim([0, 0], [0, 0]) == 0.0


def test_cosine_length_mismatch():
    with pytest.raises(ValueError):
        cosine_sim([1, 0], [1, 0, 0])


def test_ec_zero_displacement():
    assert ec_distance([1.0, 2.0], [1.0, 2.0], eta=0.7) == 0.0


def test_ec_eta_zero_is_euclidean():
    assert ec_distance([1, 0], [0, 1], eta=0.0) == 2.0


def test_ec_inversion_instance():
    v, c1, c2 = [1.0, 0.0], [1.6, 0.0], [1.05, 0.55]
    assert abs(ec_distance(v, c1, 0.9) - 0.0360) < 1e-4
    assert abs(ec_distance(v, c2, 0.9) - 0.06184) < 1e-4
    # squared Euclidean prefers c2, EC prefers c1
    assert ec_distance(v, c1, 0.0) == pytest.approx(0.36)
    assert ec_distance(v, c2, 0.0) == pytest.approx(0.305)
    assert ec_distance(v, c1, 0.9) < ec_distance(v, c2, 0.9)
    assert ec_distance(v, c1, 0.0) > ec_distance(v, c2, 0.0)


def test_ec_eta_out_of_range():
    with pytest.raises(ValueError, match="eta"):
        ec_distance([1, 0], [0, 1], eta=1.5)
    with pytest.raises(ValueError, match="eta"):
        MetricKind("ec", eta=-0.1)


@given(finite_vec, finite_vec, st.floats(0, 1))
def test_ec_symmetric_and_nonnegative(a, b, eta):
    n = min(len(a), len(b))
    a, b = a[:n], b[:n]
    d_ab = ec_distance(a, b, eta)
    d_ba = ec_distance(b, a, eta)
    assert d_ab == d_ba
    assert d_ab >= 0.0


@given(finite_vec, finite_vec)
def test_ec_at_zero_eta_equals_euclidean_exactly(a, b):
    n = min(len(a), len(b))
    a, b = a[:n], b[:n]
    assert ec_distance(a, b, 0.0) == metric_distance(a, b, MetricKind.euclidean())


@given(finite_vec, finite_vec, st.floats(0, 1))
def test_ec_matches_scalar_reference(a, b, eta):
    n = min(len(a), len(b))
    a, b = a[:n], b[:n]
    got = ec_distance(a, b, eta)
    want = scalar_ec(a, b, eta)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_metric_kind_labels():
    assert MetricKind.euclidean().label() == "euclidean"
    assert MetricKind.cosine().label() == "cosine"
    assert MetricKind.ec(0.9).label() == "ec:0.9"
    assert MetricKind.from_label("ec:0.9") == MetricKind.ec(0.9)
    assert MetricKind.from_label("euclidean") == MetricKind.euclidean()
    with pytest.raises(ValueError):
        MetricKind("manhattan")


def test_metric_kind_defaults_to_the_paper_metric_and_ignores_eta_elsewhere():
    assert MetricKind() == MetricKind.ec() == MetricKind.from_label("ec") == MetricKind("ec", 0.9)
    assert MetricKind("cosine", 0.5) == MetricKind.cosine()
    assert MetricKind("euclidean", 2.0) == MetricKind.euclidean()
    assert MetricKind("cosine", 0.5).label() == "cosine"


def test_metric_distance_dispatch():
    a, b = [1.0, 0.0], [0.0, 1.0]
    assert metric_distance(a, b, MetricKind.euclidean()) == 2.0
    assert metric_distance(a, b, MetricKind.cosine()) == 1.0
    assert metric_distance(a, b, MetricKind.ec(0.5)) == ec_distance(a, b, 0.5)


# ---------------------------------------------------------------------------
# pairwise distances


def test_pairwise_trivial_zero():
    d = pairwise_distances(np.zeros((1, 2)), np.zeros((1, 2)), MetricKind.euclidean())
    assert d.shape == (1, 1) and d[0, 0] == 0.0


def test_pairwise_ec_instance():
    d = pairwise_distances(
        np.array([[1.0, 0.0]]),
        np.array([[1.6, 0.0], [1.05, 0.55]]),
        MetricKind.ec(0.9),
    )
    np.testing.assert_allclose(d, [[0.0360, 0.0618353]], atol=1e-4)


def test_pairwise_dim_mismatch():
    with pytest.raises(ValueError):
        pairwise_distances(np.zeros((1, 2)), np.zeros((1, 3)), MetricKind.euclidean())


@given(st.integers(0, 2**31 - 1), st.sampled_from(["euclidean", "cosine", "ec"]))
def test_pairwise_matches_double_loop_bitwise(seed, kind):
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(4, 3))
    p = rng.normal(size=(5, 3))
    metric = MetricKind.ec(0.9) if kind == "ec" else MetricKind(kind)
    d = pairwise_distances(q, p, metric)
    for i in range(4):
        for c in range(5):
            assert d[i, c] == metric_distance(q[i], p[c], metric)


def test_pairwise_zero_row_cosine_convention():
    q = np.array([[0.0, 0.0]])
    p = np.array([[1.0, 1.0], [0.0, 0.0]])
    d_cos = pairwise_distances(q, p, MetricKind.cosine())
    np.testing.assert_array_equal(d_cos, [[1.0, 1.0]])  # 1 - 0
    d_ec = pairwise_distances(q, p, MetricKind.ec(0.9))
    assert d_ec[0, 0] == 2.0  # pure euclidean when cos is 0
    assert d_ec[0, 1] == 0.0


@pytest.mark.parametrize("metric", ALL_METRICS, ids=lambda m: m.kind)
def test_pairwise_blocks_match_double_loop_bitwise(metric):
    rng = np.random.default_rng(7)
    dim = 2048
    per_block = metric_module._BLOCK_BYTES // (8 * dim)  # query rows scored per prototype pass
    n_q = 2 * per_block + 3
    assert per_block >= 1 and n_q // per_block >= 2 and n_q % per_block  # two blocks and a ragged tail
    q = rng.normal(size=(n_q, dim))
    p = rng.normal(size=(50, dim))
    q[2] = p[4]
    q[-1] = p[7]
    p[9] = 0.0
    d = pairwise_distances(q, p, metric)
    for i in range(n_q):
        for c in range(50):
            assert d[i, c] == metric_distance(q[i], p[c], metric)


@pytest.mark.parametrize("metric", ALL_METRICS, ids=lambda m: m.kind)
def test_pairwise_bitwise_for_column_major_inputs(metric):
    rng = np.random.default_rng(9)
    q = np.asfortranarray(rng.normal(size=(9, 300)))
    p = np.asfortranarray(rng.normal(size=(12, 300)))
    d = pairwise_distances(q, p, metric)
    for i in range(9):
        for c in range(12):
            assert d[i, c] == metric_distance(q[i], p[c], metric)


THREAD_CHILD = """
import sys
import numpy as np
from zsl_embed.metric import MetricKind, metric_distance, pairwise_distances
rng = np.random.default_rng(12)
for dim in (2048, 20_000):
    q, p = rng.normal(size=(3, dim)), rng.normal(size=(4, dim))
    for m in (MetricKind.euclidean(), MetricKind.cosine(), MetricKind.ec(0.9)):
        scalar = [metric_distance(a, b, m) for a in q for b in p]
        for d in (pairwise_distances(q, p, m), np.array(scalar)):
            sys.stdout.write(d.tobytes().hex())
"""


def test_exact_distances_do_not_depend_on_the_blas_thread_count():
    # OpenBLAS threads a ddot of more than 10,000 terms, which changes its rounding
    src = str(Path(metric_module.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = [
        subprocess.run(
            [sys.executable, "-c", THREAD_CHILD],
            env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads},
            capture_output=True, text=True, check=True, timeout=120,
        ).stdout
        for threads in ("1", "2")
    ]
    assert outputs[0] and outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "score",
    [pairwise_distances, lambda q, p, m: top_k_classes(q, p, m, 5)],
    ids=["pairwise_distances", "top_k_classes"],
)
def test_scoring_memory_is_bounded(score):
    rng = np.random.default_rng(0)
    q = rng.normal(size=(300, 2048))
    p = rng.normal(size=(50, 2048))
    tracemalloc.start()
    try:
        score(q, p, MetricKind.ec(0.9))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a 2 MiB block plus q x p results; a whole q x p x d temporary is 246 MB
    assert peak < 4e6, f"peak {peak / 1e6:.1f} MB"


# ---------------------------------------------------------------------------
# ranking


def ranks_1d(coords, k):
    """top_k_classes of a query at 0 among 1-D prototypes at ``coords``."""
    prototypes = np.asarray(coords, dtype=np.float64)[:, None]
    return top_k_classes(np.zeros((1, 1)), prototypes, MetricKind.euclidean(), k)[0].tolist()


def test_top_k_argmin():
    assert ranks_1d([0.3, 0.1, 0.2], k=1) == [1]


def test_top_k_tie_break_by_index():
    assert ranks_1d([0.5, 0.5], k=2) == [0, 1]
    assert ranks_1d([0.2, 0.1, 0.1, 0.2], k=4) == [1, 2, 0, 3]


def test_top_k_bad_k():
    with pytest.raises(ValueError):
        ranks_1d([0.1, 0.2], k=0)
    with pytest.raises(ValueError):
        ranks_1d([0.1, 0.2], k=3)


@given(st.integers(0, 2**31 - 1))
def test_top_k_matches_sorted_pairs(seed):
    rng = np.random.default_rng(seed)
    row = rng.uniform(0, 1, size=10)
    want = [i for _, i in sorted((x * x, i) for i, x in enumerate(row))][:5]
    assert ranks_1d(row, k=5) == want


@given(st.integers(0, 2**31 - 1), st.floats(0.1, 100))
def test_rank_invariant_under_positive_scaling(seed, scale):
    rng = np.random.default_rng(seed)
    row = rng.uniform(0, 1, size=8)
    assert ranks_1d(row, k=8) == ranks_1d(row * scale, k=8)


@st.composite
def scoring_case(draw):
    """Queries, prototypes, a metric and k, with ties and near-ties planted."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    n_q, n_p, dim = draw(st.integers(1, 8)), draw(st.integers(1, 10)), draw(st.integers(1, 40))
    scale = 10.0 ** draw(st.integers(-3, 3))
    q = rng.normal(size=(n_q, dim)) * scale
    p = rng.normal(size=(n_p, dim)) * scale
    for _ in range(draw(st.integers(0, 6))):
        i, j, c = draw(st.integers(0, n_p - 1)), draw(st.integers(0, n_p - 1)), draw(st.integers(0, n_q - 1))
        plant = draw(st.sampled_from(["duplicate", "ulp", "zero", "on_prototype", "midpoint", "zero_query"]))
        if plant == "duplicate":
            p[j] = p[i]
        elif plant == "ulp":  # one coordinate one step away: distances tie or nearly
            p[j] = p[i]
            p[j, 0] = np.nextafter(p[i, 0], np.inf)
        elif plant == "zero":
            p[j] = 0.0
        elif plant == "on_prototype":
            q[c] = p[i]
        elif plant == "midpoint":  # equidistant from two prototypes up to rounding
            q[c] = (p[i] + p[j]) / 2.0
        else:
            q[c] = 0.0
    metric = draw(st.sampled_from(ALL_METRICS[:2] + tuple(MetricKind.ec(e) for e in (0.0, 0.5, 0.9, 1.0))))
    return q, p, metric, draw(st.integers(1, n_p))


@settings(max_examples=300, deadline=None)
@given(scoring_case())
def test_top_k_equals_stable_argsort_of_exact_distances(case):
    q, p, metric, k = case
    want = np.argsort(pairwise_distances(q, p, metric), axis=1, kind="stable")[:, :k]
    np.testing.assert_array_equal(top_k_classes(q, p, metric, k), want)


SIX_METRICS = ALL_METRICS[:2] + tuple(MetricKind.ec(e) for e in (0.0, 0.5, 0.9, 1.0))


@st.composite
def screen_case(draw):
    """Queries and prototypes scaled by 1e-160 (products underflow to
    subnormals) to 1e150, with near-duplicate and zero rows, and a common
    offset up to 1e8 times the spread."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    n_q, n_p, dim = draw(st.integers(1, 6)), draw(st.integers(1, 8)), draw(st.integers(1, 64))
    # a large common offset cancels heavily in |q|^2 + |p|^2 - 2 q.p
    offset = draw(st.sampled_from([0.0, 1.0, 1e3, 1e8]))
    q = rng.normal(size=(n_q, dim)) + offset
    p = rng.normal(size=(n_p, dim)) + offset
    for _ in range(draw(st.integers(0, 4))):
        i, c = draw(st.integers(0, n_p - 1)), draw(st.integers(0, n_q - 1))
        plant = draw(st.sampled_from(["near_duplicate", "zero_prototype", "zero_query"]))
        if plant == "near_duplicate":
            q[c] = p[i] * (1.0 + rng.normal(scale=1e-12, size=dim))
        elif plant == "zero_prototype":
            p[i] = 0.0
        else:
            q[c] = 0.0
    scale = 10.0 ** draw(st.sampled_from([-160, -157, -150, -100, -10, 0, 10, 100, 150]))
    return q * scale, p * scale, draw(st.sampled_from(SIX_METRICS))


@settings(max_examples=300, deadline=None)
@given(screen_case())
def test_exact_distances_lie_inside_the_screen_bounds(case):
    q, p, metric = case
    with np.errstate(over="ignore", invalid="ignore"):
        qsq, psq = metric_module._dot(q, q), metric_module._dot(p, p)
        approx, err = metric_module._screen(qsq, psq, q @ p.T, metric, q.shape[1])
        lower, upper = approx - err, approx + err
    exact = pairwise_distances(q, p, metric)
    # bounds that overflowed say nothing; top_k_classes rescores such rows in full
    bounded = np.isfinite(lower) & np.isfinite(upper)
    inside = (lower <= exact) & (exact <= upper)
    assert inside[bounded].all(), np.argwhere(bounded & ~inside)


@pytest.mark.parametrize("metric", ALL_METRICS, ids=lambda m: m.kind)
def test_top_k_at_paper_dimension(metric):
    rng = np.random.default_rng(3)
    p = rng.uniform(0, 1, size=(50, 2048))
    p[10] = p[3]
    p[20] = 0.0
    q = rng.uniform(0, 1, size=(200, 2048))
    q[:40] = p[rng.integers(0, 50, 40)]
    want = np.argsort(pairwise_distances(q, p, metric), axis=1, kind="stable")[:, :5]
    np.testing.assert_array_equal(top_k_classes(q, p, metric, 5), want)


def test_top_k_rejects_non_finite_distances():
    p = np.array([[0.0, 0.0], [1e200, 0.0]])
    with pytest.raises(ValueError, match="query row 0 and prototype row 1"):
        top_k_classes(np.zeros((1, 2)), p, MetricKind.euclidean(), 1)
    p[1, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        top_k_classes(np.zeros((2, 2)), p, MetricKind.ec(0.9), 1)


# Row 70 and prototype 3 of each plant score inf or NaN only against each
# other: opposite points whose difference squares past the float64 range,
# or, under cosine, two points whose squared norms both overflow.
OVERFLOW_PLANTS = {"euclidean": (9e153, -9e153), "cosine": (1e200, 1e200), "ec": (9e153, -9e153)}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("metric", ALL_METRICS, ids=lambda m: m.kind)
def test_top_k_names_the_first_overflowing_pair_in_a_later_block(metric):
    rng = np.random.default_rng(4)
    q = rng.normal(size=(100, 2))
    p = rng.normal(size=(2000, 2))
    assert metric_module._BLOCK_BYTES // (8 * len(p)) < 70  # row 70 is not in the first block
    q[70, 0], p[3, 0] = OVERFLOW_PLANTS[metric.kind]
    bad = ~np.isfinite(pairwise_distances(q, p, metric))
    assert np.argwhere(bad).tolist() == [[70, 3]]
    message = f"non-finite {metric.label()} distance .* query row 70 and prototype row 3$"
    with pytest.raises(ValueError, match=message):
        top_k_classes(q, p, metric, 3)


def rescored_pairs(monkeypatch, q, p) -> list:
    """Spy on ``pairwise_distances`` inside ``top_k_classes``: one entry per
    pair it scores, the query row and the prototype rows equal to the one scored."""
    pairs = []
    exact = metric_module.pairwise_distances

    def spy(x, y, metric):
        for xi in x:
            row = int(np.flatnonzero((q == xi).all(axis=1))[0])
            for yi in y:
                pairs.append((row, tuple(np.flatnonzero((p == yi).all(axis=1)).tolist())))
        return exact(x, y, metric)

    monkeypatch.setattr(metric_module, "pairwise_distances", spy)
    return pairs


@pytest.mark.parametrize("metric", ALL_METRICS, ids=lambda m: m.kind)
def test_top_k_rescores_no_pair_of_well_separated_rows(metric, monkeypatch):
    rng = np.random.default_rng(2)
    q = rng.normal(size=(20, 16))
    p = rng.normal(size=(12, 16))
    want = np.argsort(pairwise_distances(q, p, metric), axis=1, kind="stable")
    pairs = rescored_pairs(monkeypatch, q, p)
    for k in (1, 3, 12):
        np.testing.assert_array_equal(top_k_classes(q, p, metric, k), want[:, :k])
    assert pairs == []


@pytest.mark.parametrize("plant", ["duplicate", "ulp"])
@pytest.mark.parametrize("metric", ALL_METRICS, ids=lambda m: m.kind)
def test_top_k_rescores_every_candidate_of_a_row_with_a_tie(metric, plant, monkeypatch):
    rng = np.random.default_rng(5)
    p = rng.normal(size=(9, 16))
    p[5] = p[2]
    if plant == "ulp":  # one coordinate one step away: the distances tie or nearly
        p[5, 0] = np.nextafter(p[2, 0], np.inf)
    q = p[[1, 2, 7]] + rng.normal(scale=1e-3, size=(3, 16))  # row 1 is nearest to 2 and 5
    want = np.argsort(pairwise_distances(q, p, metric), axis=1, kind="stable")
    assert set(want[1, :2]) == {2, 5}
    both = [(1, (2, 5))] * 2 if plant == "duplicate" else [(1, (2,)), (1, (5,))]
    pairs = rescored_pairs(monkeypatch, q, p)
    # row 1 keeps two candidates for k = 1, the others one each
    np.testing.assert_array_equal(top_k_classes(q, p, metric, 1), want[:, :1])
    assert sorted(pairs) == both
    pairs.clear()
    # exactly k = 2 candidates, but their bounds overlap
    np.testing.assert_array_equal(top_k_classes(q[1:2], p, metric, 2), want[1:2, :2])
    assert sorted(pairs) == both


@pytest.mark.parametrize("metric", ALL_METRICS, ids=lambda m: m.kind)
def test_top_k_rescores_a_tie_in_a_later_query_block(metric, monkeypatch):
    rng = np.random.default_rng(8)
    p = rng.normal(size=(2000, 4))
    p[5] = p[2]
    q = rng.normal(size=(100, 4))
    assert metric_module._BLOCK_BYTES // (8 * len(p)) <= 70  # row 70 is not in the first block
    q[70] = p[2] + 1e-3 * rng.normal(size=4)
    want = np.argsort(pairwise_distances(q, p, metric), axis=1, kind="stable")
    assert want[70, :2].tolist() == [2, 5]
    pairs = rescored_pairs(monkeypatch, q, p)
    for k in (1, 2):  # two candidates for k = 1; for k = 2, two whose bounds overlap
        np.testing.assert_array_equal(top_k_classes(q, p, metric, k), want[:, :k])
        assert pairs == [(70, (2, 5))] * 2
        pairs.clear()


@pytest.mark.parametrize("metric", ALL_METRICS, ids=lambda m: m.kind)
def test_pairwise_distances_of_no_and_one_query_row(metric):
    rng = np.random.default_rng(6)
    p = rng.normal(size=(4, 3))
    assert pairwise_distances(np.empty((0, 3)), p, metric).shape == (0, 4)
    q = rng.normal(size=(1, 3))
    d = pairwise_distances(q, p, metric)
    assert d.shape == (1, 4)
    assert d[0].tolist() == [metric_distance(q[0], row, metric) for row in p]


def test_top_k_memory_grows_with_queries_only_by_the_ranks():
    rng = np.random.default_rng(0)
    p = rng.normal(size=(1000, 64))
    peaks = []
    for n_q in (20_000, 80_000):
        q = rng.normal(size=(n_q, 64))
        tracemalloc.start()
        try:
            top_k_classes(q, p, MetricKind.ec(0.9), 5)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        # checked before the larger size runs: one 20,000 x 1,000 float64
        # matrix alone is 153 MiB, and an unblocked ranking holds about 13
        assert peaks[-1] < 64 * 2**20, f"peak {peaks[-1] / 2**20:.1f} MiB at {n_q} queries"
    ranks = 60_000 * 5 * np.dtype(np.intp).itemsize
    assert peaks[1] - peaks[0] <= ranks + 2**16, f"grew {(peaks[1] - peaks[0]) / 2**20:.2f} MiB"

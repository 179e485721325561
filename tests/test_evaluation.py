import dataclasses

import numpy as np
import pytest

from zsl_embed import evaluation
from zsl_embed.data import Dataset, FeatureMatrix, SemanticTable
from zsl_embed.evaluation import (
    REPORT_HEADER,
    AblationCell,
    EvalResult,
    ablate,
    all_subsets,
    cell_seed,
    emit_report,
    evaluate,
    hubness_skewness,
    prediction_distances,
)
from zsl_embed.metric import MetricKind, pairwise_distances
from zsl_embed.network import NetConfig, S_TO_V, V_TO_S, init_model
from zsl_embed.synthetic import SynthConfig, generate
from zsl_embed.training import TrainConfig, train


def build_dataset(n_seen=3, n_unseen=6, per_class=4, dim=6, sem_dim=4, seed=0,
                  twin_unseen=False):
    """Random dataset; with twin_unseen the two lowest unseen classes share
    identical attribute vectors in every modality."""
    rng = np.random.default_rng(seed)
    seen = list(range(n_seen))
    unseen = list(range(n_seen, n_seen + n_unseen))
    train = FeatureMatrix(
        rng.uniform(0, 1, (n_seen * per_class, dim)),
        np.repeat(seen, per_class),
    )
    test = FeatureMatrix(
        rng.uniform(0, 1, (n_unseen * per_class, dim)),
        np.repeat(unseen, per_class),
    )
    tables = []
    for tag in ("A", "B"):
        vectors = rng.normal(size=(n_seen + n_unseen, sem_dim))
        if twin_unseen:
            vectors[n_seen + 1] = vectors[n_seen]
        tables.append(SemanticTable(tag, FeatureMatrix(vectors, seen + unseen)))
    return Dataset(train, test, tables, set(seen), set(unseen))


def build_model(ds, direction=S_TO_V, seed=3):
    cfg = NetConfig(modality_dims=ds.modality_dims(), head_hidden=5, head_out=4,
                    embed_dim=ds.visual.dim, direction=direction)
    return init_model(cfg, seed=seed)


# ---------------------------------------------------------------------------
# prototypes


def prototypes(model, ds, tags=("A", "B")):
    """The unseen classes' embedded prototypes, in ascending class-id order."""
    ids = sorted(ds.unseen)
    return model.embed({t: ds.table(t).matrix(ids) for t in tags}, tags)


def test_prototypes_sorted_by_class_id():
    ds = build_dataset()
    model = build_model(ds)
    metric = MetricKind.euclidean()
    distances, ids = prediction_distances(model, ds, metric, ("A", "B"))
    assert ids == sorted(ds.unseen)
    # column j scores class ids[j]: embedded alone, its prototype gives the same distances
    for j, cls in enumerate(ids):
        proto = model.embed({t: ds.table(t).matrix([cls]) for t in ("A", "B")}, ("A", "B"))
        alone = pairwise_distances(ds.test_visual.values, proto, metric)[:, 0]
        np.testing.assert_allclose(distances[:, j], alone, rtol=1e-12)


def test_prototypes_validation():
    ds = build_dataset()
    model = build_model(ds)
    only_a = dataclasses.replace(ds, semantics=ds.semantics[:1])
    with pytest.raises(ValueError, match="no semantic table for modality B"):
        evaluate(model, only_a, MetricKind.ec(0.9), ("A", "B"))
    assert evaluate(model, only_a, MetricKind.ec(0.9), ("A",)).top1 >= 0.0


# ---------------------------------------------------------------------------
# evaluate


def brute_force(distances, ids, labels):
    """Pure-Python rescoring of a distance matrix."""
    n = len(ids)
    top1 = top5 = 0
    confusion = [[0] * n for _ in range(n)]
    per_class_hits = {}
    for row, label in zip(distances, labels):
        order = sorted(range(n), key=lambda j: (row[j], j))
        true = ids.index(int(label))
        pred = order[0]
        confusion[true][pred] += 1
        hits, total = per_class_hits.get(true, (0, 0))
        per_class_hits[true] = (hits + (pred == true), total + 1)
        top1 += pred == true
        top5 += true in order[: min(5, n)]
    per_class = {ids[i]: h / t for i, (h, t) in per_class_hits.items()}
    return top1 / len(labels), top5 / len(labels), per_class, confusion


def test_evaluate_matches_brute_force():
    ds = build_dataset(n_unseen=7, per_class=5)
    model = build_model(ds)
    metric = MetricKind.ec(0.9)
    result = evaluate(model, ds, metric, ("A", "B"))
    distances, ids = prediction_distances(model, ds, metric, ("A", "B"))
    top1, top5, per_class, confusion = brute_force(
        distances.tolist(), ids, ds.test_visual.labels.tolist()
    )
    assert result.top1 == top1
    assert result.top5 == top5
    assert result.per_class_top1 == per_class
    assert result.confusion.tolist() == confusion
    assert result.class_ids == tuple(ids)
    assert result.confusion.sum() == ds.test_visual.rows


def test_evaluate_prototype_queries_score_perfectly():
    ds = build_dataset()
    model = build_model(ds)
    ids = sorted(ds.unseen)
    proto = prototypes(model, ds)
    replayed = Dataset(
        ds.visual,
        FeatureMatrix(proto, np.array(ids)),
        ds.semantics,
        ds.seen,
        ds.unseen,
    )
    result = evaluate(model, replayed, MetricKind.ec(0.9), ("A", "B"))
    assert result.top1 == 1.0 and result.top5 == 1.0
    assert all(v == 1.0 for v in result.per_class_top1.values())


def test_evaluate_single_unseen_class():
    ds = build_dataset(n_unseen=1)
    result = evaluate(build_model(ds), ds, MetricKind.euclidean(), ("A",))
    assert result.top1 == 1.0 and result.top5 == 1.0
    assert result.confusion.shape == (1, 1)


def test_identical_prototypes_break_ties_toward_lower_class():
    ds = build_dataset(twin_unseen=True)
    model = build_model(ds)
    result = evaluate(model, ds, MetricKind.euclidean(), ("A", "B"))
    lo, hi = sorted(ds.unseen)[:2]
    i_lo = result.class_ids.index(lo)
    i_hi = result.class_ids.index(hi)
    # the twin with the higher id can never win an exact tie
    assert result.confusion[:, i_hi].sum() == 0
    assert result.per_class_top1[hi] == 0.0
    assert i_lo < i_hi


def test_ec_eta_zero_equals_squared_euclidean():
    ds = build_dataset(seed=5)
    model = build_model(ds)
    a = evaluate(model, ds, MetricKind("ec", eta=0.0), ("A", "B"))
    b = evaluate(model, ds, MetricKind.euclidean(), ("A", "B"))
    assert a.top1 == b.top1 and a.top5 == b.top5
    assert a.confusion.tolist() == b.confusion.tolist()


def test_evaluate_row_order_invariance():
    ds = build_dataset(seed=6)
    model = build_model(ds)
    perm = np.random.default_rng(0).permutation(ds.test_visual.rows)
    shuffled = Dataset(
        ds.visual,
        FeatureMatrix(ds.test_visual.values[perm], ds.test_visual.labels[perm]),
        ds.semantics,
        ds.seen,
        ds.unseen,
    )
    a = evaluate(model, ds, MetricKind.ec(0.9), ("A", "B"))
    b = evaluate(model, shuffled, MetricKind.ec(0.9), ("A", "B"))
    assert a.top1 == b.top1 and a.top5 == b.top5
    assert a.per_class_top1 == b.per_class_top1
    assert a.confusion.tolist() == b.confusion.tolist()


@pytest.mark.parametrize("direction", [S_TO_V, V_TO_S])
def test_evaluate_rejects_modalities_the_model_was_not_trained_on(direction):
    # a W-only model has no C, I or T head to score all four tags with
    ds = generate(SynthConfig(seed=1))
    net = NetConfig(modality_dims=ds.modality_dims(), head_hidden=32, head_out=48,
                    embed_dim=ds.visual.dim, direction=direction)
    cfg = TrainConfig(lr=3e-3, batch_size=64, epochs=200, seed=1)
    model, _ = train(ds, net, cfg, ("W",))
    assert model.config.tags == ("W",)
    assert 0.0 <= evaluate(model, ds, MetricKind.ec(0.9), ("W",)).top1 <= 1.0
    with pytest.raises(ValueError, match=r"unknown modalities: \['C', 'I', 'T'\]"):
        evaluate(model, ds, MetricKind.ec(0.9), ("C", "I", "T", "W"))


def test_scoring_rejects_a_bare_string_of_modalities():
    # "AB" would otherwise be split into the tags A and B
    ds = build_dataset()
    model = build_model(ds)
    message = r"^active modalities must be a collection of tags, not the string 'AB'$"
    with pytest.raises(ValueError, match=message):
        evaluate(model, ds, MetricKind.ec(0.9), "AB")
    with pytest.raises(ValueError, match=message):
        ablate(ds, model.config, quick_train_config(), subsets=["AB"])


def test_evaluate_visual_to_semantic_direction():
    ds = build_dataset()
    model = build_model(ds, direction=V_TO_S)
    result = evaluate(model, ds, MetricKind.ec(0.9), ("A", "B"))
    assert 0.0 <= result.top1 <= result.top5 <= 1.0


def test_evaluate_no_test_samples():
    ds = build_dataset()
    empty = Dataset(
        ds.visual,
        FeatureMatrix(np.zeros((0, ds.test_visual.dim)), np.zeros(0, dtype=int)),
        ds.semantics,
        ds.seen,
        ds.unseen,
    )
    with pytest.raises(ValueError, match="no test samples"):
        evaluate(build_model(ds), empty, MetricKind.ec(0.9), ("A",))


def test_evaluate_rejects_non_finite_prototypes():
    ds = build_dataset()
    model = build_model(ds)
    model.params["head.B.W1"][0, 0] = np.nan  # as a diverged training leaves it
    with pytest.raises(ValueError, match="prototype of unseen class 3 from modalities A\\+B"):
        evaluate(model, ds, MetricKind.ec(0.9), ("A", "B"))
    with pytest.raises(ValueError, match="not finite"):
        prediction_distances(model, ds, MetricKind.ec(0.9), ("A", "B"))
    assert evaluate(model, ds, MetricKind.ec(0.9), ("A",)).top1 >= 0.0  # head B unused


def test_evaluate_rejects_non_finite_queries():
    ds = build_dataset()
    model = build_model(ds, direction=V_TO_S)
    model.params["vmap.W1"][0, 0] = np.nan
    with pytest.raises(ValueError, match="query of test row 0"):
        evaluate(model, ds, MetricKind.euclidean(), ("A",))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("metric", [MetricKind.euclidean(), MetricKind.ec(0.9)], ids=lambda m: m.kind)
def test_evaluate_rejects_non_finite_distances(metric):
    ds = build_dataset()
    huge = FeatureMatrix(ds.test_visual.values * 1e200, ds.test_visual.labels)
    ds = dataclasses.replace(ds, test_visual=huge)  # finite, but its squared distances overflow
    model = build_model(ds)
    message = f"non-finite {metric.label()} distance inf between query row 0 and prototype row 0"
    with pytest.raises(ValueError, match=message):
        evaluate(model, ds, metric, ("A", "B"))
    with pytest.raises(ValueError, match=message):
        prediction_distances(model, ds, metric, ("A", "B"))
    distances = pairwise_distances(ds.test_visual.values, prototypes(model, ds), metric)
    with pytest.raises(ValueError, match="distance matrix is not finite"):
        hubness_skewness(distances, 1)


def test_prediction_distances_names_the_first_non_finite_entry(monkeypatch):
    ds = build_dataset()
    model = build_model(ds)

    def planted(queries, prototypes, metric):
        dist = np.zeros((len(queries), len(prototypes)))
        dist[4, 0] = np.nan
        dist[3, 2] = dist[3, 5] = np.inf
        return dist

    monkeypatch.setattr(evaluation, "pairwise_distances", planted)
    message = "non-finite ec:0.9 distance inf between query row 3 and prototype row 2$"
    with pytest.raises(ValueError, match=message):
        prediction_distances(model, ds, MetricKind.ec(0.9), ("A", "B"))


def test_prediction_distances_dim_guard():
    ds = build_dataset()
    cfg = NetConfig(modality_dims=ds.modality_dims(), head_hidden=5, head_out=4,
                    embed_dim=ds.visual.dim + 1)
    model = init_model(cfg, seed=0)
    with pytest.raises(ValueError, match="embed_dim"):
        prediction_distances(model, ds, MetricKind.ec(0.9), ("A",))


# ---------------------------------------------------------------------------
# hubness


def test_hubness_single_hub():
    dist = np.ones((100, 10))
    dist[:, 0] = 0.0
    # counts are [100, 0 x 9]: m3/m2^1.5 = 72000/27000
    assert abs(hubness_skewness(dist, k=1) - 8.0 / 3.0) < 1e-12


def test_hubness_uniform_counts():
    dist = np.ones((10, 10))
    dist[np.arange(10), np.arange(10)] = 0.0
    assert hubness_skewness(dist, k=1) == 0.0


def test_hubness_matches_python_recount():
    rng = np.random.default_rng(12)
    dist = rng.normal(size=(20, 5))
    counts = [0] * 5
    for row in dist.tolist():
        for j in sorted(range(5), key=lambda j: (row[j], j))[:2]:
            counts[j] += 1
    mean = sum(counts) / 5
    m2 = sum((c - mean) ** 2 for c in counts) / 5
    m3 = sum((c - mean) ** 3 for c in counts) / 5
    assert hubness_skewness(dist, k=2) == pytest.approx(m3 / m2**1.5, rel=1e-12)


def test_hubness_column_permutation_invariant():
    rng = np.random.default_rng(13)
    dist = rng.normal(size=(30, 8))
    perm = rng.permutation(8)
    assert hubness_skewness(dist, k=3) == hubness_skewness(dist[:, perm], k=3)


def test_hubness_validation():
    with pytest.raises(ValueError, match="2-D"):
        hubness_skewness(np.zeros(5), k=1)
    with pytest.raises(ValueError, match="at least 2"):
        hubness_skewness(np.zeros((5, 1)), k=1)
    with pytest.raises(ValueError, match="k must be"):
        hubness_skewness(np.zeros((5, 3)), k=0)
    with pytest.raises(ValueError, match="k must be"):
        hubness_skewness(np.zeros((5, 3)), k=4)


# ---------------------------------------------------------------------------
# ablation grid


def quick_train_config(seed=0):
    return TrainConfig(lr=1e-3, batch_size=8, epochs=2, seed=seed)


def test_cell_seed_distinct_and_stable():
    seeds = {
        cell_seed(0, subset, d)
        for subset in all_subsets(("A", "B", "C"))
        for d in (S_TO_V, V_TO_S)
    }
    assert len(seeds) == 14
    assert cell_seed(0, ("B", "A"), S_TO_V) == cell_seed(0, ("A", "B"), S_TO_V)
    assert cell_seed(0, ("A",), S_TO_V) != cell_seed(1, ("A",), S_TO_V)


def test_all_subsets():
    assert all_subsets(("B", "A")) == [("A",), ("B",), ("A", "B")]
    assert len(all_subsets("WCIT")) == 15
    sizes = [len(s) for s in all_subsets("WCIT")]
    assert sizes == sorted(sizes)
    tags = "ABCDEF"
    masks = [tuple(t for i, t in enumerate(tags) if m >> i & 1) for m in range(1, 64)]
    assert all_subsets(tags) == sorted(masks, key=lambda s: (len(s), s))


def test_ablate_single_cell():
    ds = build_dataset()
    net = NetConfig(modality_dims=ds.modality_dims(), head_hidden=5, head_out=4,
                    embed_dim=ds.visual.dim)
    cells = ablate(ds, net, quick_train_config(), subsets=[("A",)],
                   directions=(S_TO_V,), metrics=(MetricKind.ec(),))
    assert len(cells) == 1
    cell = cells[0]
    assert cell.modalities == ("A",)
    assert cell.direction == S_TO_V
    assert cell.metric == MetricKind.ec()
    assert 0.0 <= cell.result.top1 <= 1.0


def test_ablate_grid_order_and_determinism():
    ds = build_dataset()
    net = NetConfig(modality_dims=ds.modality_dims(), head_hidden=5, head_out=4,
                    embed_dim=ds.visual.dim)
    subsets = all_subsets(("A", "B"))
    metrics = (MetricKind.ec(0.9), MetricKind.euclidean())
    run = lambda: ablate(ds, net, quick_train_config(), subsets,
                         directions=(S_TO_V, V_TO_S), metrics=metrics)
    cells = run()
    assert len(cells) == 3 * 2 * 2
    assert [c.modalities for c in cells[:4]] == [("A",)] * 4
    assert [c.direction for c in cells[:4]] == [S_TO_V, S_TO_V, V_TO_S, V_TO_S]
    assert [c.metric for c in cells[:2]] == list(metrics)
    again = run()
    assert [c.result.top1 for c in cells] == [c.result.top1 for c in again]
    assert [c.result.top5 for c in cells] == [c.result.top5 for c in again]


def test_ablate_jobs_parity():
    ds = build_dataset()
    net = NetConfig(modality_dims=ds.modality_dims(), head_hidden=5, head_out=4,
                    embed_dim=ds.visual.dim)
    subsets = [("A",), ("B",), ("A", "B")]
    serial = ablate(ds, net, quick_train_config(), subsets, jobs=1)
    parallel = ablate(ds, net, quick_train_config(), subsets, jobs=2)
    for a, b in zip(serial, parallel):
        assert (a.modalities, a.direction, a.metric) == (b.modalities, b.direction, b.metric)
        assert a.result.top1 == b.result.top1
        assert a.result.confusion.tolist() == b.result.confusion.tolist()


@pytest.fixture
def inline_pool(monkeypatch):
    """Replace ``ablate``'s process pool with one that runs every task here.

    Returns the dict the fake records its ``max_workers``, ``initargs`` and
    ``tasks`` in; no process starts.
    """
    sent = {}

    class InlinePool:
        def __init__(self, max_workers, initializer, initargs):
            sent["max_workers"] = max_workers
            sent["initargs"] = initargs
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            sent["tasks"] = list(tasks)
            return map(fn, sent["tasks"])

    monkeypatch.setattr(evaluation, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(evaluation, "_worker_dataset", None)
    return sent


def test_ablate_sends_dataset_once_per_worker(inline_pool):
    """The pool gets the dataset through its initializer; tasks carry only the cell."""
    sent = inline_pool
    ds = build_dataset()
    net = NetConfig(modality_dims=ds.modality_dims(), head_hidden=5, head_out=4,
                    embed_dim=ds.visual.dim)
    subsets = [("A",), ("A", "B")]
    grid = dict(directions=(S_TO_V,), metrics=(MetricKind.ec(),))
    pooled = ablate(ds, net, quick_train_config(), subsets, jobs=2, **grid)
    assert sent["initargs"] == (ds,)
    assert len(sent["tasks"]) == 2
    assert not any(isinstance(item, Dataset) for task in sent["tasks"] for item in task)
    serial = ablate(ds, net, quick_train_config(), subsets, jobs=1, **grid)
    assert [c.result.top1 for c in pooled] == [c.result.top1 for c in serial]


def test_ablate_starts_no_more_workers_than_cells(inline_pool):
    ds = build_dataset()
    net = NetConfig(modality_dims=ds.modality_dims(), head_hidden=5, head_out=4,
                    embed_dim=ds.visual.dim)
    cells = ablate(ds, net, quick_train_config(), [("A",), ("B",)], directions=(S_TO_V,),
                   metrics=(MetricKind.ec(),), jobs=64)
    assert len(cells) == 2
    assert inline_pool["max_workers"] == 2


def test_ablate_treats_each_axis_as_a_set(monkeypatch):
    trained = []

    def counting_train(*args, **kwargs):
        trained.append(args)
        return train(*args, **kwargs)

    monkeypatch.setattr(evaluation, "train", counting_train)
    ds = build_dataset()
    net = NetConfig(modality_dims=ds.modality_dims(), head_hidden=5, head_out=4,
                    embed_dim=ds.visual.dim)
    cells = ablate(ds, net, quick_train_config(), [("A", "B"), ("B", "A"), ("A",)],
                   directions=(S_TO_V, S_TO_V),
                   metrics=(MetricKind.ec(), MetricKind.ec(0.9), MetricKind.euclidean()))
    assert [(c.modalities, c.direction, c.metric.label()) for c in cells] == [
        (("A", "B"), S_TO_V, "ec:0.9"),
        (("A", "B"), S_TO_V, "euclidean"),
        (("A",), S_TO_V, "ec:0.9"),
        (("A",), S_TO_V, "euclidean"),
    ]
    assert len(trained) == 2
    with pytest.raises(ValueError, match="^no directions given$"):
        ablate(ds, net, quick_train_config(), [("A",)], directions=())
    assert len(trained) == 2


def test_ablate_default_grid_is_every_subset_by_both_directions_by_ec_and_euclidean(monkeypatch):
    tasks = []

    def recording_run_cell(task, dataset=None):
        tasks.append(task)
        return []

    monkeypatch.setattr(evaluation, "_run_cell", recording_run_cell)
    ds = build_dataset()
    net = NetConfig(modality_dims=ds.modality_dims(), head_hidden=5, head_out=4,
                    embed_dim=ds.visual.dim)
    assert ablate(ds, net, quick_train_config()) == []
    assert [(subset, n.direction, metrics) for n, _, subset, metrics in tasks] == [
        (subset, direction, (MetricKind.ec(0.9), MetricKind.euclidean()))
        for subset in all_subsets(net.tags)
        for direction in (S_TO_V, V_TO_S)
    ]


def test_ablate_validation():
    ds = build_dataset()
    net = NetConfig(modality_dims=ds.modality_dims(), head_hidden=5, head_out=4,
                    embed_dim=ds.visual.dim)
    with pytest.raises(ValueError, match="no modality subsets"):
        ablate(ds, net, quick_train_config(), subsets=[])
    with pytest.raises(ValueError, match="direction"):
        ablate(ds, net, quick_train_config(), [("A",)], directions=("sideways",))
    with pytest.raises(ValueError, match="no metrics"):
        ablate(ds, net, quick_train_config(), [("A",)], metrics=())
    with pytest.raises(ValueError, match="jobs"):
        ablate(ds, net, quick_train_config(), [("A",)], jobs=0)


def test_ablate_checks_every_subset_before_the_first_cell_trains(monkeypatch):
    trained = []

    def counting_train(*args, **kwargs):
        trained.append(args)
        return train(*args, **kwargs)

    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a pool started before the grid was checked")

    monkeypatch.setattr(evaluation, "train", counting_train)
    monkeypatch.setattr(evaluation, "ProcessPoolExecutor", NoPool)
    ds = build_dataset()
    net = NetConfig(modality_dims=ds.modality_dims(), head_hidden=5, head_out=4,
                    embed_dim=ds.visual.dim)
    for jobs in (1, 2):
        with pytest.raises(ValueError, match=r"^unknown modalities: \['Z'\]$"):
            ablate(ds, net, quick_train_config(), [("A",), ("Z",)], jobs=jobs)
    assert trained == []


# ---------------------------------------------------------------------------
# reports


def fake_cell(modalities, direction, metric, top1, top5):
    result = EvalResult(
        top1=top1,
        top5=top5,
        per_class_top1={},
        confusion=np.zeros((1, 1), dtype=np.int64),
        class_ids=(0,),
    )
    return AblationCell(tuple(modalities), direction, metric, result)


def test_emit_report_csv(tmp_path):
    cells = [
        fake_cell(("W",), S_TO_V, MetricKind.euclidean(), 0.25, 0.5),
        fake_cell(("C", "W"), S_TO_V, MetricKind.ec(0.9), 0.521, 0.857),
    ]
    p = tmp_path / "r.csv"
    emit_report(cells, "csv", p)
    assert p.read_text() == (
        REPORT_HEADER + "\n"
        "C+W,s2v,ec:0.9,0.521,0.857\n"
        "W,s2v,euclidean,0.25,0.5\n"
    )


def test_emit_report_markdown(tmp_path):
    cells = [
        fake_cell(("C", "W"), S_TO_V, MetricKind.ec(0.9), 0.521, 0.857),
        fake_cell(("C", "W"), V_TO_S, MetricKind.ec(0.9), 0.1, 0.3),
    ]
    p = tmp_path / "r.md"
    emit_report(cells, "markdown", p)
    text = p.read_text()
    assert "| C+W | 52.1/85.7 | 10.0/30.0 |" in text
    assert text.splitlines()[0] == "| modalities | s2v ec:0.9 | v2s ec:0.9 |"


def test_emit_report_markdown_missing_cell_dash(tmp_path):
    cells = [
        fake_cell(("W",), S_TO_V, MetricKind.ec(0.9), 0.5, 0.5),
        fake_cell(("C",), V_TO_S, MetricKind.ec(0.9), 0.5, 0.5),
    ]
    p = tmp_path / "r.md"
    emit_report(cells, "markdown", p)
    lines = p.read_text().splitlines()
    assert "| C | - | 50.0/50.0 |" in lines
    assert "| W | 50.0/50.0 | - |" in lines


def test_emit_report_errors(tmp_path):
    with pytest.raises(ValueError, match="no cells"):
        emit_report([], "csv", tmp_path / "r.csv")
    cell = fake_cell(("W",), S_TO_V, MetricKind.ec(0.9), 0.5, 0.5)
    with pytest.raises(ValueError, match="unknown report format"):
        emit_report([cell], "yaml", tmp_path / "r.yaml")


def test_report_deterministic_bytes(tmp_path):
    ds = build_dataset()
    net = NetConfig(modality_dims=ds.modality_dims(), head_hidden=5, head_out=4,
                    embed_dim=ds.visual.dim)
    cells = ablate(ds, net, quick_train_config(), [("A",), ("A", "B")])
    emit_report(cells, "csv", tmp_path / "a.csv")
    emit_report(list(reversed(cells)), "csv", tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

"""End-to-end acceptance checks.

Eight criteria: gradient correctness, the metric inversion example, the
three qualitative findings on the synthetic benchmark (fusion beats single
modalities, semantic-to-visual beats the reverse direction, the combined
metric beats plain squared Euclidean), oracle equivalence of the evaluation
stack, bit-level determinism, and the degenerate-input contracts. Each test
prints one ``criterion N (...): PASS|FAIL`` line; run with ``-s`` to see
them live. The shared five-seed benchmark bundle trains 30 small models in
about ten seconds and prints the headline table behind criteria 3-5,
with each seed's k=1 hubness pair (s2v, v2s), ties marked. It also
prints, as a measurement and not a criterion, both directions' hubness at
k=1 and k=5 over all 24 class prototypes, the seen classes as distractors.
"""

import time

import numpy as np
import pytest

from zsl_embed.data import Dataset, FeatureMatrix, SemanticTable, class_prototypes
from zsl_embed.evaluation import (
    ablate,
    emit_report,
    evaluate,
    hubness_skewness,
    prediction_distances,
)
from zsl_embed.metric import MetricKind, cosine_sim, ec_distance, metric_distance, pairwise_distances, top_k_classes
from zsl_embed.network import NetConfig, S_TO_V, V_TO_S, gradient_check, init_model
from zsl_embed.synthetic import ModalitySpec, SynthConfig, generate
from zsl_embed.training import TrainConfig, load_checkpoint, save_checkpoint, train

SEEDS = (1, 2, 3, 4, 5)
TAGS = ("C", "I", "T", "W")
EC = MetricKind.ec(0.9)
EU = MetricKind.euclidean()


def report(num, name, ok):
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def raises_with(fn, fragment):
    try:
        fn()
    except ValueError as exc:
        return fragment in str(exc)
    return False


# ---------------------------------------------------------------------------
# shared five-seed benchmark


def benchmark_net(ds, direction):
    return NetConfig(modality_dims=ds.modality_dims(), head_hidden=32, head_out=48,
                     embed_dim=64, direction=direction, l2_lambda=5e-4)


def headline(runs):
    """Means, fusion margin, win and tie counts: what the table prints and criteria 3-5 assert on."""
    h = {key: float(np.mean(runs[key])) for key in ("fusion_ec", "fusion_eu", "v2s_ec")}
    h["singles"] = {tag: float(np.mean(v)) for tag, v in runs["singles"].items()}
    h["margin"] = h["fusion_ec"] - max(h["singles"].values())
    h["ec_wins"] = sum(a >= b for a, b in zip(runs["fusion_ec"], runs["fusion_eu"]))
    h["hub_wins"] = sum(b >= a for a, b in zip(runs["hub_s2v"], runs["hub_v2s"]))
    # k=1 skew over a few balanced unseen classes is 0 for any accurate model, so wins may be ties
    h["hub_ties"] = sum(b == a for a, b in zip(runs["hub_s2v"], runs["hub_v2s"]))
    return h


def all_class_hubness(model, ds, k):
    """Hubness skew at ``k`` of the test queries over every class's prototype,
    the seen classes as distractors, under EC."""
    ids = sorted(ds.seen | ds.unseen)
    prototypes = model.embed({tag: ds.table(tag).matrix(ids) for tag in TAGS}, TAGS)
    return hubness_skewness(pairwise_distances(model.map_visual(ds.test_visual.values), prototypes, EC), k)


@pytest.fixture(scope="module")
def bundle():
    start = time.perf_counter()
    runs = {
        "fusion_ec": [], "fusion_eu": [], "v2s_ec": [],
        "singles": {t: [] for t in TAGS}, "hub_s2v": [], "hub_v2s": [],
        "hub_all": {k: [] for k in (1, 5)},
    }
    for seed in SEEDS:
        ds = generate(SynthConfig(seed=seed))
        tc = TrainConfig(optimizer="adam", lr=3e-3, batch_size=64, epochs=200, seed=seed)
        m_s2v, _ = train(ds, benchmark_net(ds, S_TO_V), tc, TAGS)
        runs["fusion_ec"].append(evaluate(m_s2v, ds, EC, TAGS).top1)
        runs["fusion_eu"].append(evaluate(m_s2v, ds, EU, TAGS).top1)
        for tag in TAGS:
            m_one, _ = train(ds, benchmark_net(ds, S_TO_V), tc, (tag,))
            runs["singles"][tag].append(evaluate(m_one, ds, EC, (tag,)).top1)
        m_v2s, _ = train(ds, benchmark_net(ds, V_TO_S), tc, TAGS)
        runs["v2s_ec"].append(evaluate(m_v2s, ds, EC, TAGS).top1)
        d_s2v, _ = prediction_distances(m_s2v, ds, EC, TAGS)
        d_v2s, _ = prediction_distances(m_v2s, ds, EC, TAGS)
        runs["hub_s2v"].append(hubness_skewness(d_s2v, 1))
        runs["hub_v2s"].append(hubness_skewness(d_v2s, 1))
        for k, pairs in runs["hub_all"].items():
            pairs.append((all_class_hubness(m_s2v, ds, k), all_class_hubness(m_v2s, ds, k)))

    h, n = headline(runs), len(SEEDS)
    print(f"\n{6 * n} trainings in {time.perf_counter() - start:.1f}s, seeds {list(SEEDS)}")
    print(f"fusion s2v ec  : {np.round(runs['fusion_ec'], 4)}  mean {h['fusion_ec']:.4f}")
    for tag in TAGS:
        print(f"single {tag} ec    : {np.round(runs['singles'][tag], 4)}  mean {h['singles'][tag]:.4f}")
    print(f"fusion margin over best single: {h['margin']:+.4f}")
    print(f"fusion v2s ec  : {np.round(runs['v2s_ec'], 4)}  mean {h['v2s_ec']:.4f}")
    print(f"fusion s2v eu  : {np.round(runs['fusion_eu'], 4)}  mean {h['fusion_eu']:.4f}")
    print(f"hubness s2v    : {np.round(runs['hub_s2v'], 4)}")
    print(f"hubness v2s    : {np.round(runs['hub_v2s'], 4)}")
    hub_pairs = zip(SEEDS, runs["hub_s2v"], runs["hub_v2s"])
    print("hub (s2v, v2s) : " + ", ".join(
        f"seed {seed} ({a:.4f}, {b:.4f}){' tie' if a == b else ''}" for seed, a, b in hub_pairs
    ))
    print(f"ec >= euclidean: {h['ec_wins']}/{n} seeds")
    print(f"hub v2s >= s2v : {h['hub_wins']}/{n} seeds ({h['hub_ties']} tied)")
    for k, pairs in runs["hub_all"].items():  # a measurement, not a criterion
        print(f"hub all 24 k={k} (s2v, v2s) : " + ", ".join(
            f"seed {seed} ({a:.4f}, {b:.4f})" for seed, (a, b) in zip(SEEDS, pairs)
        ))
        print(f"hub all 24 k={k} v2s >= s2v : {sum(b >= a for a, b in pairs)}/{n} seeds "
              f"({sum(b == a for a, b in pairs)} tied)")
    return h


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_gradient_correctness():
    start = time.perf_counter()
    error = gradient_check(seed=0, step=1e-5)
    elapsed = time.perf_counter() - start
    report(1, "gradient correctness", error < 1e-6 and elapsed < 10.0)


def test_criterion_2_metric_inversion():
    v = np.array([1.0, 0.0])
    c1 = np.array([1.6, 0.0])
    c2 = np.array([1.05, 0.55])
    eu1, eu2 = metric_distance(v, c1, EU), metric_distance(v, c2, EU)
    ec1, ec2 = metric_distance(v, c1, EC), metric_distance(v, c2, EC)
    ok = (
        abs(eu1 - 0.36) < 1e-4
        and abs(eu2 - 0.305) < 1e-4
        and abs(ec1 - 0.0360) < 1e-4
        and abs(ec2 - 0.0618353) < 1e-4
        and eu2 < eu1  # squared Euclidean picks the nearer-but-misaligned class
        and ec1 < ec2  # the combined metric flips the assignment
    )
    report(2, "metric inversion", ok)


def test_criterion_3_fusion_beats_singles(bundle):
    report(3, "fusion beats singles", bundle["fusion_ec"] >= 0.80 and bundle["margin"] >= 0.05)


def test_criterion_4_direction(bundle):
    report(4, "semantic-to-visual direction",
           bundle["fusion_ec"] >= bundle["v2s_ec"] and bundle["hub_wins"] >= 4)


def test_criterion_5_metric_choice(bundle):
    report(5, "combined metric beats euclidean", bundle["ec_wins"] >= 4)


def test_criterion_6_oracle_equivalence():
    rng = np.random.default_rng(60)
    seen, unseen = list(range(4)), list(range(4, 14))
    train_m = FeatureMatrix(rng.uniform(0, 1, (20, 8)), np.repeat(seen, 5))
    test_m = FeatureMatrix(rng.uniform(0, 1, (100, 8)), np.repeat(unseen, 10))
    tables = [
        SemanticTable(tag, FeatureMatrix(rng.normal(size=(len(seen + unseen), 5)), seen + unseen))
        for tag in ("A", "B")
    ]
    ds = Dataset(train_m, test_m, tables, set(seen), set(unseen))
    model = init_model(
        NetConfig(modality_dims=ds.modality_dims(), head_hidden=6, head_out=5,
                  embed_dim=8), seed=1,
    )
    result = evaluate(model, ds, EC, ("A", "B"))
    distances, ids = prediction_distances(model, ds, EC, ("A", "B"))

    rows = distances.tolist()
    labels = test_m.labels.tolist()
    n = len(ids)
    top1 = top5 = 0
    for row, label in zip(rows, labels):
        order = sorted(range(n), key=lambda j: (row[j], j))
        top1 += ids[order[0]] == label
        top5 += label in [ids[j] for j in order[:5]]
    exact = result.top1 == top1 / 100 and result.top5 == top5 / 100

    counts = [0] * n
    for row in rows:
        counts[min(range(n), key=lambda j: (row[j], j))] += 1
    mean = sum(counts) / n
    m2 = sum((c - mean) ** 2 for c in counts) / n
    m3 = sum((c - mean) ** 3 for c in counts) / n
    hub_ok = abs(hubness_skewness(distances, 1) - m3 / m2**1.5) <= 1e-9 * abs(m3 / m2**1.5)

    proto = class_prototypes(test_m)
    proto_ok = True
    for cls in unseen:
        manual = [
            sum(col) / len(col)
            for col in zip(*(r for r, l in zip(test_m.values.tolist(), labels) if l == cls))
        ]
        got = proto.matrix([cls])[0]
        proto_ok &= bool(np.all(np.abs(got - manual) <= 1e-9 * np.abs(manual)))

    report(6, "oracle equivalence", exact and hub_ok and proto_ok)


def test_criterion_7_determinism(tmp_path):
    spec = (ModalitySpec("A", 5), ModalitySpec("B", 4))
    cfg = SynthConfig(n_classes=6, n_seen=4, samples_per_class=4, latent_dim=6,
                      embed_dim=16, modalities=spec, seed=9)
    ds = generate(cfg)
    net = NetConfig(modality_dims=ds.modality_dims(), head_hidden=6, head_out=8,
                    embed_dim=16)
    tc = TrainConfig(lr=1e-3, batch_size=8, epochs=3, seed=5)

    checks = []
    paths = [tmp_path / "a.ckpt", tmp_path / "b.ckpt"]
    for path in paths:
        model, _ = train(ds, net, tc, ("A", "B"))
        save_checkpoint(model, path)
    checks.append(paths[0].read_bytes() == paths[1].read_bytes())

    back = load_checkpoint(paths[0])
    save_checkpoint(back, tmp_path / "c.ckpt")
    checks.append((tmp_path / "c.ckpt").read_bytes() == paths[0].read_bytes())

    for name in ("r1.csv", "r2.csv"):
        cells = ablate(ds, net, tc, [("A",), ("A", "B")])
        emit_report(cells, "csv", tmp_path / name)
    checks.append((tmp_path / "r1.csv").read_bytes() == (tmp_path / "r2.csv").read_bytes())

    from zsl_embed.data import load_feature_matrix, save_feature_matrix

    save_feature_matrix(ds.visual, tmp_path / "m.zslf")
    again = load_feature_matrix(tmp_path / "m.zslf")
    save_feature_matrix(again, tmp_path / "m2.zslf")
    checks.append((tmp_path / "m.zslf").read_bytes() == (tmp_path / "m2.zslf").read_bytes())

    report(7, "determinism and persistence", all(checks))


def test_criterion_8_degenerate_inputs():
    zero = np.zeros(2)
    one = np.array([3.0, 4.0])
    checks = [
        cosine_sim(zero, one) == 0.0,
        cosine_sim(zero, zero) == 0.0,
        ec_distance(zero, one, eta=0.9) == 25.0,
        top_k_classes(np.zeros((1, 1)), np.array([[0.5], [0.5]]), EU, k=2).tolist() == [[0, 1]],
    ]

    rng = np.random.default_rng(8)
    seen, unseen = [0, 1], [2]
    ds = Dataset(
        FeatureMatrix(rng.uniform(0, 1, (4, 3)), np.array([0, 0, 1, 1])),
        FeatureMatrix(rng.uniform(0, 1, (3, 3)), np.array([2, 2, 2])),
        [SemanticTable("A", FeatureMatrix(rng.normal(size=(len(seen + unseen), 2)), seen + unseen))],
        set(seen),
        set(unseen),
    )
    model = init_model(
        NetConfig(modality_dims={"A": 2}, head_hidden=3, head_out=3, embed_dim=3),
        seed=0,
    )
    single = evaluate(model, ds, EC, ("A",))
    checks.append(single.top1 == 1.0 and single.top5 == 1.0)

    checks.append(raises_with(
        lambda: model.loss({"A": np.zeros((0, 2))}, np.zeros((0, 3)), ("A",)),
        "empty batch",
    ))
    checks.append(raises_with(
        lambda: Dataset(ds.visual, ds.test_visual, ds.semantics, {0, 1}, {1, 2}),
        "splits overlap",
    ))

    report(8, "degenerate inputs", all(checks))

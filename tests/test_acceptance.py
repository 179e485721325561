"""End-to-end acceptance checks.

Eight criteria: gradient correctness, the metric inversion example, the
three qualitative findings on the synthetic benchmark (fusion beats single
modalities, semantic-to-visual beats the reverse direction, the combined
metric beats plain squared Euclidean), oracle equivalence of the evaluation
stack, bit-level determinism, and the degenerate-input contracts. Each test
prints one ``criterion N (...): PASS|FAIL`` line; run with ``-s`` to see
them live. The shared five-seed benchmark bundle trains 30 small models and
takes about half a minute.
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
from zsl_embed.metric import MetricKind, cosine_sim, ec_distance, metric_distance, top_k_classes
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


def benchmark_train_config(seed):
    return TrainConfig(optimizer="adam", lr=3e-3, batch_size=64, epochs=200, seed=seed)


@pytest.fixture(scope="module")
def bundle():
    out = {
        "fusion_ec": [], "fusion_eu": [], "v2s_ec": [],
        "singles": {t: [] for t in TAGS}, "hub_s2v": [], "hub_v2s": [],
    }
    for seed in SEEDS:
        ds = generate(SynthConfig(seed=seed))
        tc = benchmark_train_config(seed)
        m_s2v, _ = train(ds, benchmark_net(ds, S_TO_V), tc, TAGS)
        out["fusion_ec"].append(evaluate(m_s2v, ds, EC, TAGS).top1)
        out["fusion_eu"].append(evaluate(m_s2v, ds, EU, TAGS).top1)
        for tag in TAGS:
            m_one, _ = train(ds, benchmark_net(ds, S_TO_V), tc, (tag,))
            out["singles"][tag].append(evaluate(m_one, ds, EC, (tag,)).top1)
        m_v2s, _ = train(ds, benchmark_net(ds, V_TO_S), tc, TAGS)
        out["v2s_ec"].append(evaluate(m_v2s, ds, EC, TAGS).top1)
        d_s2v, _ = prediction_distances(m_s2v, ds, EC, TAGS)
        d_v2s, _ = prediction_distances(m_v2s, ds, EC, TAGS)
        out["hub_s2v"].append(hubness_skewness(d_s2v, 1))
        out["hub_v2s"].append(hubness_skewness(d_v2s, 1))
    return out


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
    fusion = float(np.mean(bundle["fusion_ec"]))
    best_single = max(float(np.mean(v)) for v in bundle["singles"].values())
    report(3, "fusion beats singles",
           fusion >= 0.80 and fusion - best_single >= 0.05)


def test_criterion_4_direction(bundle):
    s2v = float(np.mean(bundle["fusion_ec"]))
    v2s = float(np.mean(bundle["v2s_ec"]))
    hub_wins = sum(
        b >= a for a, b in zip(bundle["hub_s2v"], bundle["hub_v2s"])
    )
    report(4, "semantic-to-visual direction", s2v >= v2s and hub_wins >= 4)


def test_criterion_5_metric_choice(bundle):
    wins = sum(a >= b for a, b in zip(bundle["fusion_ec"], bundle["fusion_eu"]))
    report(5, "combined metric beats euclidean", wins >= 4)


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

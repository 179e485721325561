import dataclasses
import functools
import math
import struct
import tempfile
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zsl_embed import network
from zsl_embed.data import Dataset, FeatureMatrix, SemanticTable
from zsl_embed.network import NetConfig, ParamBuffer, S_TO_V, V_TO_S, init_model
from zsl_embed.synthetic import SynthConfig, generate
from zsl_embed.training import (
    Adam,
    SgdMomentum,
    TrainConfig,
    load_checkpoint,
    save_checkpoint,
    save_history,
    train,
)


def scalar_adam(p, grads, lr, b1=0.9, b2=0.999, eps=1e-8):
    m = v = 0.0
    for t, g in enumerate(grads, 1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1**t)
        vhat = v / (1 - b2**t)
        p -= lr * mhat / (math.sqrt(vhat) + eps)
    return p


def scalar_sgd(p, grads, lr, mu):
    u = 0.0
    for g in grads:
        u = mu * u + g
        p -= lr * u
    return p


def tiny_dataset():
    rng = np.random.default_rng(0)
    visual = FeatureMatrix(rng.uniform(0, 1, (8, 4)), np.array([0, 0, 0, 0, 1, 1, 1, 1]))
    test_visual = FeatureMatrix(rng.uniform(0, 1, (4, 4)), np.array([2, 2, 3, 3]))
    tables = [
        SemanticTable(tag, FeatureMatrix(rng.normal(size=(4, 3)), range(4)))
        for tag in ("A", "B")
    ]
    return Dataset(visual, test_visual, tables, {0, 1}, {2, 3})


def tiny_net(direction=S_TO_V):
    return NetConfig(modality_dims={"A": 3, "B": 3}, head_hidden=4, head_out=3,
                     embed_dim=4, direction=direction)


# ---------------------------------------------------------------------------
# config


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(optimizer="adagrad")
    with pytest.raises(ValueError):
        TrainConfig(lr=0.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="lr must be positive and finite"):
            TrainConfig(lr=bad)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    for bad in (0, -1):
        with pytest.raises(ValueError, match=f"epochs must be at least 1, got {bad}"):
            TrainConfig(epochs=bad)


# ---------------------------------------------------------------------------
# optimizer updates


def buffer(**arrays):
    """A ParamBuffer holding copies of the given arrays."""
    buf = ParamBuffer({name: np.shape(a) for name, a in arrays.items()})
    for name, a in arrays.items():
        buf[name][...] = a
    return buf


def test_zero_gradient_is_fixed_point():
    for opt in (
        Adam(buffer(p=np.array([1.0, -2.0])), 1e-4),
        SgdMomentum(buffer(p=np.array([1.0, -2.0])), 1e-4),
    ):
        before = {k: v.copy() for k, v in opt.params.items()}
        for _ in range(3):
            opt.step(np.zeros(2))
        np.testing.assert_array_equal(opt.params["p"], before["p"])


def test_adam_first_step_closed_form():
    params = buffer(p=np.array([1.0]))
    opt = Adam(params, 1e-4)
    opt.step(np.array([0.5]))
    # bias correction makes m-hat = g and sqrt(v-hat) = |g| on step one
    assert params["p"][0] == pytest.approx(1.0 - 1e-4 * 0.5 / (0.5 + 1e-8), abs=1e-12)
    assert params["p"][0] == pytest.approx(0.9999, abs=1e-8)


def test_sgd_momentum_hand_iteration():
    params = buffer(p=np.array([1.0]))
    opt = SgdMomentum(params, 0.1)
    opt.step(np.array([1.0]))
    assert params["p"][0] == pytest.approx(0.9, abs=1e-15)
    opt.step(np.array([1.0]))
    assert params["p"][0] == pytest.approx(0.71, abs=1e-15)


def test_adam_matches_scalar_reference():
    rng = np.random.default_rng(10)
    grads = rng.normal(size=12)
    params = buffer(p=np.array([0.7]))
    opt = Adam(params, 0.01)
    for g in grads:
        opt.step(np.array([g]))
    want = scalar_adam(0.7, grads.tolist(), lr=0.01)
    assert params["p"][0] == pytest.approx(want, rel=1e-12)


def test_sgd_matches_scalar_reference():
    rng = np.random.default_rng(11)
    grads = rng.normal(size=12)
    params = buffer(p=np.array([0.7]))
    opt = SgdMomentum(params, 0.05)
    for g in grads:
        opt.step(np.array([g]))
    want = scalar_sgd(0.7, grads.tolist(), lr=0.05, mu=0.9)
    assert params["p"][0] == pytest.approx(want, rel=1e-12)


def test_vanishing_lr_leaves_params_unchanged():
    for opt in (
        Adam(buffer(p=np.array([1.0])), 1e-300),
        SgdMomentum(buffer(p=np.array([1.0])), 1e-300),
    ):
        for _ in range(10):
            opt.step(np.array([1.0]))
        assert opt.params["p"][0] == 1.0


def test_step_shape_mismatch():
    opt = Adam(buffer(p=np.zeros(3)), 1e-4)
    with pytest.raises(ValueError, match="shape"):
        opt.step(np.zeros(2))
    # a length-1 gradient would broadcast over every parameter
    with pytest.raises(ValueError, match="shape"):
        opt.step(np.zeros(1))
    with pytest.raises(ValueError, match="shape"):
        SgdMomentum(buffer(p=np.zeros(3)), 1e-4).step(np.zeros((3, 1)))


def reference_adam(params, grad_steps, lr):
    """Per-array Adam loop (betas 0.9 and 0.999, epsilon 1e-8), one array at a
    time, on copies of ``params``, with the moments kept scaled by 1/(1 - beta):
    m <- 0.9*m + g, v <- 0.999*v + g*g and p <- p - (m*a) / (sqrt(v*b) + eps)."""
    params = {k: v.copy() for k, v in params.items()}
    m = {k: np.zeros_like(v) for k, v in params.items()}
    v = {k: np.zeros_like(p) for k, p in params.items()}
    for t, grads in enumerate(grad_steps, 1):
        a = lr * (1.0 - 0.9) / (1.0 - 0.9**t)
        b = (1.0 - 0.999) / (1.0 - 0.999**t)
        for name, p in params.items():
            g = grads[name]
            m[name] *= 0.9
            m[name] += g
            v[name] *= 0.999
            v[name] += g * g
            p -= (m[name] * a) / (np.sqrt(v[name] * b) + 1e-8)
    return params


def reference_sgd(params, grad_steps, lr):
    """Per-array momentum loop (momentum 0.9), one array at a time, on copies of ``params``."""
    params = {k: v.copy() for k, v in params.items()}
    u = {k: np.zeros_like(v) for k, v in params.items()}
    for grads in grad_steps:
        for name, p in params.items():
            u[name] *= 0.9
            u[name] += grads[name]
            p -= lr * u[name]
    return params


@pytest.mark.parametrize(
    "opt_cls, reference, cfg",
    [
        (Adam, reference_adam, TrainConfig(lr=3e-3)),
        (SgdMomentum, reference_sgd, TrainConfig(optimizer="sgd", lr=0.05)),
    ],
)
def test_flat_optimizer_matches_per_array_loop_bitwise(opt_cls, reference, cfg):
    rng = np.random.default_rng(12)
    # "a" alone is longer than one optimizer block, so block edges fall inside arrays
    shapes = {"a": (257, 131), "b": (4,), "c": (2, 5), "d": (1,)}
    start = {name: rng.normal(size=shape) for name, shape in shapes.items()}
    grad_steps = []
    for _ in range(7):
        grads = {name: rng.normal(size=shape) for name, shape in shapes.items()}
        grads["b"][1] = 0.0  # exact zeros and a gradient that stays zero throughout
        grads["d"][...] = 0.0
        grad_steps.append(grads)
    params = buffer(**start)
    opt = opt_cls(params, cfg.lr)
    for grads in grad_steps:
        opt.step(buffer(**grads).flat)
    want = reference(start, grad_steps, cfg.lr)
    for name in shapes:
        assert params[name].tobytes() == want[name].tobytes(), name
    assert params["d"].tobytes() == start["d"].tobytes()


def test_adam_stays_within_1e_10_of_textbook_adam_over_2000_steps():
    """Kingma and Ba's update as written (moments (1 - beta)-weighted, bias
    corrections divided out), one array at a time, against the flat optimizer
    over more than one block. The error is measured against how far the
    parameters moved, so it is the error of the updates themselves."""
    rng = np.random.default_rng(14)
    shapes = {"a": (181, 191), "b": (4_000,), "c": (3,)}
    assert sum(math.prod(s) for s in shapes.values()) > network._BLOCK
    start = {name: rng.normal(size=shape) for name, shape in shapes.items()}
    params = buffer(**start)
    opt = Adam(params, 1e-3)
    want = {k: p.copy() for k, p in start.items()}
    m = {k: np.zeros_like(p) for k, p in start.items()}
    v = {k: np.zeros_like(p) for k, p in start.items()}
    for t in range(1, 2001):
        grads = {name: rng.normal(size=shape) for name, shape in shapes.items()}
        for name, p in want.items():
            g = grads[name]
            m[name] = 0.9 * m[name] + (1 - 0.9) * g
            v[name] = 0.999 * v[name] + (1 - 0.999) * g * g
            mhat = m[name] / (1 - 0.9**t)
            vhat = v[name] / (1 - 0.999**t)
            p -= 1e-3 * mhat / (np.sqrt(vhat) + 1e-8)
        opt.step(buffer(**grads).flat)
    for name in shapes:
        moved = np.max(np.abs(want[name] - start[name]))
        assert moved > 1e-3, name
        assert np.max(np.abs(params[name] - want[name])) <= 1e-10 * moved, name


# ---------------------------------------------------------------------------
# training loop


def class_rows(ds, tags, idx):
    """The s2v batch ``train`` documents for samples ``idx``: one semantic row
    per distinct class, in class order, and each sample's row among them."""
    ids = np.unique(ds.visual.labels[idx])
    rows = np.searchsorted(ids, ds.visual.labels[idx])
    return {t: ds.table(t).matrix(ids) for t in tags}, rows


def test_train_deterministic():
    ds = tiny_dataset()
    cfg = TrainConfig(lr=1e-3, batch_size=3, epochs=5, seed=4)
    m1, h1 = train(ds, tiny_net(), cfg, ("A", "B"))
    m2, h2 = train(ds, tiny_net(), cfg, ("A", "B"))
    assert h1.losses == h2.losses
    for name, p in m1.params.items():
        assert p.tobytes() == m2.params[name].tobytes()


def test_train_seed_changes_result():
    ds = tiny_dataset()
    base = TrainConfig(lr=1e-3, batch_size=3, epochs=5)
    import dataclasses

    m1, _ = train(ds, tiny_net(), dataclasses.replace(base, seed=1), ("A", "B"))
    m2, _ = train(ds, tiny_net(), dataclasses.replace(base, seed=2), ("A", "B"))
    assert m1.params["out.W3"].tobytes() != m2.params["out.W3"].tobytes()


@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
@pytest.mark.parametrize("direction", [S_TO_V, V_TO_S])
def test_untrained_parameters_stay_bitwise_equal(direction, optimizer):
    """``train`` on one head equals stepping a model that holds only that
    head, bitwise; that head starts as a model holding both heads draws it.
    A v2s model's head is a fixed target and keeps its draw bitwise."""
    ds = tiny_dataset()
    net = tiny_net(direction)
    cfg = TrainConfig(optimizer=optimizer, lr=1e-2, batch_size=3, epochs=4, seed=6)
    model, history = train(ds, net, cfg, ("A",))
    top = {"out.W3", "out.b3"} if direction == S_TO_V else {f"vmap.{p}{k}" for k in (1, 2, 3) for p in "Wb"}
    assert model.config.tags == ("A",)
    assert set(model.params) == {f"head.A.{p}{k}" for k in (1, 2) for p in "Wb"} | top

    ref = init_model(net, cfg.seed, ("A",))
    fresh = init_model(net, cfg.seed, ("A",))
    opt = (Adam if optimizer == "adam" else SgdMomentum)(ref.trained, cfg.lr)
    if direction == V_TO_S:  # fixed targets: every seen class is fused once, as train does
        ids = np.unique(ds.visual.labels)
        fused = ref.embed({"A": ds.table("A").matrix(ids)}, ("A",))
    n = ds.visual.rows
    order_rng = np.random.default_rng(cfg.seed)
    losses = []
    for _ in range(cfg.epochs):
        order = order_rng.permutation(n)
        total = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            if direction == V_TO_S:
                batch, rows = fused, np.searchsorted(ids, ds.visual.labels[idx])
            else:
                batch, rows = class_rows(ds, ("A",), idx)
            loss, grads = ref.loss_and_grad(batch, ds.visual.values[idx], ("A",), rows=rows)
            opt.step(grads.flat)
            total += loss * idx.size
        losses.append(total / n)
    assert history.losses == losses
    for name, p in model.params.items():
        assert p.tobytes() == ref.params[name].tobytes(), name
        if direction == V_TO_S and name.startswith("head."):
            assert p.tobytes() == fresh.params[name].tobytes(), name
        elif name.rsplit(".", 1)[1].startswith("W"):
            assert not np.array_equal(p, fresh.params[name]), name
    both = init_model(net, cfg.seed)
    for name, p in fresh.params.items():
        assert p.tobytes() == both.params[name].tobytes(), name


def test_train_matches_per_sample_semantic_rows():
    """Each batch's class rows, found from the per-sample labels of unsorted,
    non-contiguous class ids, are the ones ``train`` gathers."""
    rng = np.random.default_rng(5)
    labels = np.array([11, 2, 7, 2, 11, 11, 7, 2, 7])  # unsorted, non-contiguous ids
    visual = FeatureMatrix(rng.uniform(0, 1, (9, 4)), labels)
    test_visual = FeatureMatrix(rng.uniform(0, 1, (2, 4)), np.array([4, 4]))
    tables = [SemanticTable(t, FeatureMatrix(rng.normal(size=(4, 3)), [2, 4, 7, 11])) for t in "AB"]
    ds = Dataset(visual, test_visual, tables, {2, 7, 11}, {4})
    cfg = TrainConfig(lr=1e-2, batch_size=4, epochs=3, seed=8)
    model, history = train(ds, tiny_net(), cfg, ("A", "B"))

    ref = init_model(tiny_net(), cfg.seed)
    opt = Adam(ref.params, cfg.lr)
    order_rng = np.random.default_rng(cfg.seed)
    for _ in range(cfg.epochs):
        order = order_rng.permutation(9)
        for start in range(0, 9, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            batch, rows = class_rows(ds, "AB", idx)
            opt.step(ref.loss_and_grad(batch, visual.values[idx], ("A", "B"), rows=rows)[1].flat)
    assert model.params.flat.tobytes() == ref.params.flat.tobytes()
    assert len(history.losses) == 3


@pytest.mark.parametrize("direction", [S_TO_V, V_TO_S])
def test_train_runs_the_heads_once_per_class_of_a_batch(monkeypatch, direction):
    # s2v: once per batch, on at most its distinct classes; v2s: once per run, on every seen class
    ds = generate(SynthConfig(n_classes=8, n_seen=6, samples_per_class=10, seed=2))
    cfg = TrainConfig(lr=1e-3, batch_size=16, epochs=2, seed=3)
    net = NetConfig(ds.modality_dims(), head_hidden=4, head_out=3, embed_dim=ds.visual.dim,
                    direction=direction)
    seen = []
    forward = network.ReluStack.forward
    heads = {f"head.{tag}.W1": tag for tag in net.tags}  # a head stack by its first weight

    def recording(stack, x):
        if stack.names[0][0] in heads:
            seen.append((heads[stack.names[0][0]], x.shape[0]))
        return forward(stack, x)

    monkeypatch.setattr(network.ReluStack, "forward", recording)
    train(ds, net, cfg, net.tags)
    order_rng = np.random.default_rng(cfg.seed)
    distinct = []
    for _ in range(cfg.epochs):
        order = order_rng.permutation(ds.visual.rows)
        for start in range(0, ds.visual.rows, cfg.batch_size):
            distinct.append(np.unique(ds.visual.labels[order[start : start + cfg.batch_size]]).size)
    assert max(distinct) < cfg.batch_size  # so a per-sample forward would show
    for tag in net.tags:
        rows = [n for t, n in seen if t == tag]
        if direction == V_TO_S:
            assert rows == [len(ds.seen)], (tag, rows)
        else:
            assert len(rows) == len(distinct)
            assert all(n <= d for n, d in zip(rows, distinct)), (tag, rows, distinct)


@pytest.mark.parametrize("direction", [S_TO_V, V_TO_S])
@pytest.mark.parametrize("batch_size", [3, 4, 8])
def test_train_calls_loss_and_grad_once_per_batch(monkeypatch, batch_size, direction):
    # the benchmark's traced training times each step through this one method
    ds = tiny_dataset()
    cfg = TrainConfig(lr=1e-3, batch_size=batch_size, epochs=3, seed=2)
    calls = []
    loss_and_grad = network.EmbeddingModel.loss_and_grad

    def counting(model, inputs, targets, *args, **kwargs):
        calls.append(len(targets))
        return loss_and_grad(model, inputs, targets, *args, **kwargs)

    monkeypatch.setattr(network.EmbeddingModel, "loss_and_grad", counting)
    train(ds, tiny_net(direction), cfg, ("A", "B"))
    batches = [min(batch_size, ds.visual.rows - start) for start in range(0, ds.visual.rows, batch_size)]
    assert calls == batches * cfg.epochs


@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
def test_v2s_optimizer_and_gradient_hold_the_visual_map_alone(monkeypatch, optimizer):
    """A v2s run's optimizer state and gradient buffer hold ``model.trained``'s
    entries, the visual map's, and no entry of its fixed heads."""
    seen = []
    cls = Adam if optimizer == "adam" else SgdMomentum
    step = cls.step

    def spy(self, grad):
        seen.append((self, grad))
        step(self, grad)

    monkeypatch.setattr(cls, "step", spy)
    model, _ = train(tiny_dataset(), tiny_net(V_TO_S), TrainConfig(optimizer=optimizer, lr=1e-2, batch_size=4,
                                                                   epochs=2, seed=3), ("A", "B"))
    vmap = sum(p.size for name, p in model.params.items() if name.startswith("vmap."))
    assert model.trained.flat.size == vmap < model.params.flat.size
    assert list(model.trained) == [f"vmap.{p}{k}" for p in "Wb" for k in (1, 2, 3)]
    opt = seen[0][0]
    assert all(s[0] is opt for s in seen) and len(seen) == 4
    assert opt.params is model.trained
    state = [opt.m, opt.v] if optimizer == "adam" else [opt.velocity]
    for grad in [g for _, g in seen] + state:
        assert grad.shape == (vmap,)
    assert np.shares_memory(opt.params.flat, model.params.flat)


def test_v2s_fuse_once_equals_fusing_each_batch_bitwise():
    """``train`` fuses the seen-class table once; fusing each batch's distinct
    classes at every step gives the same bytes while every batch holds at
    least 2 classes (a 1-class batch runs its heads as a matrix-vector product)."""
    ds = generate(SynthConfig(seed=2))
    net = NetConfig(ds.modality_dims(), head_hidden=32, head_out=48, embed_dim=ds.visual.dim,
                    direction=V_TO_S)
    cfg = TrainConfig(lr=3e-3, batch_size=64, epochs=3, seed=7)
    model, history = train(ds, net, cfg, net.tags)

    ref = init_model(net, cfg.seed)
    opt = Adam(ref.trained, cfg.lr)
    n = ds.visual.rows
    order_rng = np.random.default_rng(cfg.seed)
    losses = []
    for _ in range(cfg.epochs):
        order = order_rng.permutation(n)
        total = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            batch, rows = class_rows(ds, net.tags, idx)
            assert rows.max() >= 1, start  # at least 2 classes
            fused = ref.embed(batch, net.tags)  # the batch's classes, fused at this step
            loss, grads = ref.loss_and_grad(fused, ds.visual.values[idx], net.tags, rows=rows)
            opt.step(grads.flat)
            total += loss * idx.size
        losses.append(total / n)
    assert history.losses == losses
    assert model.params.flat.tobytes() == ref.params.flat.tobytes()


def test_history_lengths_match_epochs():
    ds = tiny_dataset()
    _, history = train(ds, tiny_net(), TrainConfig(lr=0.01, epochs=7, seed=0), ("A", "B"))
    assert len(history.losses) == 7 and history.lr == 0.01


def test_loss_halves_on_default_synthetic_instance():
    ds = generate(SynthConfig(seed=0))
    net = NetConfig(modality_dims=ds.modality_dims(), head_hidden=16, head_out=24,
                    embed_dim=64)
    cfg = TrainConfig(lr=3e-3, batch_size=64, epochs=50, seed=0)
    _, history = train(ds, net, cfg, ds.modality_tags)
    assert history.losses[-1] < 0.5 * history.losses[0]


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_train_raises_on_non_finite_loss():
    # visual features of 1e160 overflow the squared error of the first batch to inf
    ds = tiny_dataset()
    ds = dataclasses.replace(ds, visual=FeatureMatrix(ds.visual.values * 1e160, ds.visual.labels))
    with pytest.raises(ValueError, match=r"training diverged: loss inf at epoch 0, batch \d+"):
        train(ds, tiny_net(), TrainConfig(epochs=1), ("A", "B"))


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("batch_size", [64, 256])
def test_train_raises_on_loss_blow_up(batch_size):
    # SGD at lr=5 lifts the second batch's loss 1e9-fold; at batch 256 the loss
    # then stays finite (up to 2.5e80) and the model scores like a random one
    ds = generate(SynthConfig(seed=1))
    net = NetConfig(modality_dims=ds.modality_dims(), head_hidden=32, head_out=48, embed_dim=64)
    cfg = TrainConfig(optimizer="sgd", lr=5.0, batch_size=batch_size, epochs=5, seed=1)
    message = r"training diverged: loss \S+ at epoch 0, batch 1 \(first batch: [\d.]+\)"
    with pytest.raises(ValueError, match=message):
        train(ds, net, cfg, ds.modality_tags)


def test_train_empty_training_set():
    rng = np.random.default_rng(0)
    visual = FeatureMatrix(np.zeros((0, 4)), np.zeros(0, dtype=int))
    test_visual = FeatureMatrix(rng.uniform(0, 1, (2, 4)), np.array([1, 1]))
    tables = [SemanticTable("A", FeatureMatrix(np.ones((2, 3)), [0, 1]))]
    ds = Dataset(visual, test_visual, tables, {0}, {1})
    with pytest.raises(ValueError, match="empty training set"):
        train(ds, tiny_net(), TrainConfig(epochs=1), ("A",))


def test_train_embed_dim_mismatch():
    ds = tiny_dataset()
    bad = NetConfig(modality_dims={"A": 3, "B": 3}, head_hidden=4, head_out=3,
                    embed_dim=9)
    with pytest.raises(ValueError, match="embed_dim"):
        train(ds, bad, TrainConfig(epochs=1), ("A", "B"))


def test_save_history_csv(tmp_path):
    from zsl_embed.training import TrainHistory

    h = TrainHistory(0.1, losses=[1.5, 0.25])
    p = tmp_path / "h.csv"
    save_history(h, p)
    assert p.read_text() == "epoch,loss,lr\n0,1.5,0.1\n1,0.25,0.1\n"


# ---------------------------------------------------------------------------
# checkpoints


def trained_model(direction=S_TO_V):
    ds = tiny_dataset()
    cfg = TrainConfig(lr=1e-3, batch_size=4, epochs=3, seed=2)
    model, _ = train(ds, tiny_net(direction), cfg, ("A", "B"))
    return model


@pytest.mark.parametrize("direction", [S_TO_V, V_TO_S])
def test_checkpoint_round_trip_bit_exact(tmp_path, direction):
    model = trained_model(direction)
    p = tmp_path / "m.ckpt"
    save_checkpoint(model, p)
    back = load_checkpoint(p)
    assert back.config == model.config
    assert set(back.params) == set(model.params)
    for name, arr in model.params.items():
        assert back.params[name].tobytes() == arr.tobytes()
    save_checkpoint(back, tmp_path / "m2.ckpt")
    assert (tmp_path / "m2.ckpt").read_bytes() == p.read_bytes()


def test_v2s_model_and_checkpoint_hold_no_shared_layer(tmp_path):
    model = trained_model(V_TO_S)
    assert model.fusion.out is None
    assert [name for name in model.params if name.startswith("out.")] == []
    p = tmp_path / "m.ckpt"
    save_checkpoint(model, p)
    data = p.read_bytes()
    (config_len,) = struct.unpack_from("<I", data, 8)
    assert len(data) == 12 + config_len + 8 * model.params.flat.size + 4
    assert set(load_checkpoint(p).params) == set(model.params)


@pytest.mark.parametrize("direction", [S_TO_V, V_TO_S])
def test_checkpoint_stores_the_flat_parameter_vector_after_the_config(tmp_path, direction):
    model = trained_model(direction)
    p = tmp_path / "m.ckpt"
    save_checkpoint(model, p)
    data = p.read_bytes()
    (config_len,) = struct.unpack_from("<I", data, 8)
    assert data[12 + config_len : -4] == model.params.flat.astype("<f8").tobytes()
    assert data[-4:] == struct.pack("<I", zlib.crc32(data[:-4]))


def relabelled(tmp_path, old, direction=S_TO_V, payload=None):
    """A path holding a version-4 checkpoint relabelled as ``old`` and resealed,
    its parameter bytes replaced by ``payload`` if one is given."""
    p = tmp_path / "m.ckpt"
    save_checkpoint(trained_model(direction), p)
    body = bytearray(p.read_bytes()[:-4])
    assert body[4:8] == struct.pack("<I", 4)
    body[4:8] = struct.pack("<I", old)
    if payload is not None:
        (config_len,) = struct.unpack_from("<I", body, 8)
        assert len(payload) == len(body) - 12 - config_len
        body[12 + config_len :] = payload
    p.write_bytes(resealed(bytes(body)))
    return p


def assert_version_rejected(tmp_path, old):
    """A version-4 checkpoint relabelled as ``old`` and resealed does not load."""
    with pytest.raises(ValueError, match=f"unsupported version {old}"):
        load_checkpoint(relabelled(tmp_path, old))


def test_checkpoint_version_1_is_rejected(tmp_path):
    # version 1 files held every configured head and a v2s shared layer
    assert_version_rejected(tmp_path, 1)


def test_checkpoint_version_2_is_rejected(tmp_path):
    # version 2 files held one record per parameter array, named and sorted by name
    assert_version_rejected(tmp_path, 2)


@pytest.mark.parametrize("direction", [S_TO_V, V_TO_S])
def test_checkpoint_version_3_is_rejected(tmp_path, direction):
    # version 3 laid out every weight, then every bias, so a v2s file put its heads first: it has
    # the same size and would load with its arrays swapped. Write one in that order.
    model = trained_model(direction)
    layers = [layer for stack in network._stacks(model.config).values() for layer in stack]
    v3_order = [w for w, _, _ in layers] + [b for _, b, _ in layers]
    assert sorted(v3_order) == sorted(model.params)
    assert (v3_order == list(model.params)) == (direction == S_TO_V)
    payload = np.concatenate([model.params[name].ravel() for name in v3_order]).astype("<f8").tobytes()
    with pytest.raises(ValueError, match="unsupported version 3"):
        load_checkpoint(relabelled(tmp_path, 3, direction, payload))


def test_checkpoint_truncated(tmp_path):
    model = trained_model()
    p = tmp_path / "m.ckpt"
    save_checkpoint(model, p)
    p.write_bytes(p.read_bytes()[:-10])
    with pytest.raises(ValueError, match="corrupted payload"):
        load_checkpoint(p)


def test_checkpoint_bit_flip(tmp_path):
    model = trained_model()
    p = tmp_path / "m.ckpt"
    save_checkpoint(model, p)
    data = bytearray(p.read_bytes())
    data[len(data) // 2] ^= 0xFF
    p.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="corrupted payload"):
        load_checkpoint(p)


def test_checkpoint_unsupported_version(tmp_path):
    p = tmp_path / "m.ckpt"
    p.write_bytes(b"ZSLC" + struct.pack("<I", 999) + b"\x00" * 16)
    with pytest.raises(ValueError, match="unsupported version"):
        load_checkpoint(p)


def test_checkpoint_bad_magic(tmp_path):
    p = tmp_path / "m.ckpt"
    p.write_bytes(b"WHAT" + struct.pack("<I", 1) + b"\x00" * 16)
    with pytest.raises(ValueError, match="malformed header"):
        load_checkpoint(p)


def resealed(body: bytes) -> bytes:
    """A checkpoint body with a valid trailing CRC32."""
    return body + struct.pack("<I", zlib.crc32(body))


def with_config(body: bytes, old: bytes, new: bytes) -> bytes:
    """Replace text in the config block, keeping its length prefix right."""
    (n,) = struct.unpack_from("<I", body, 8)
    config = body[12 : 12 + n].replace(old, new)
    return body[:8] + struct.pack("<I", len(config)) + config + body[12 + n :]


SIZE_MESSAGE = r"corrupted payload \(\d+ parameter bytes, the config needs \d+\)"


@pytest.mark.parametrize(
    "edit, message",
    [
        pytest.param(lambda b: with_config(b, b"head_hidden = 4", b"head_hidden = 5"), SIZE_MESSAGE,
                     id="wider-head-hidden"),
        pytest.param(lambda b: b + b"\x00" * 8, SIZE_MESSAGE, id="trailing-bytes"),
        pytest.param(lambda b: b[:-8], SIZE_MESSAGE, id="short-payload"),
        pytest.param(lambda b: with_config(b, b"embed_dim = 4", b"embed_dim = 10000000"), SIZE_MESSAGE,
                     id="huge-embed-dim"),
        (lambda b: b.replace(b"direction = s2v", b"direction = up"), "config block"),
        pytest.param(lambda b: with_config(b, b"head_out = 3", b"head_out = 3\nshuffle = True"),
                     r"config block: keys \[.*'shuffle'", id="extra-config-key"),
        pytest.param(lambda b: with_config(b, b"\nl2_lambda = 0.0005", b""),
                     r"config block: keys \[.*'head_out', 'modality_dims'\]", id="missing-config-key"),
        pytest.param(lambda b: with_config(b, b"head_out = 3", b"head_out 3"),
                     r"config block: line 4 'head_out 3' is not 'key = value'\)$", id="malformed-config-line"),
        pytest.param(lambda b: with_config(b, b"embed_dim = 4", b"embed_dim = four"),
                     r"config block: invalid literal for int\(\) with base 10: 'four'", id="non-integer-embed-dim"),
        pytest.param(lambda b: with_config(b, b"modality_dims = A:3", b"modality_dims = A,X:3"),
                     r"config block: bad modality spec 'A', expected TAG:dim", id="bad-modality-dims"),
        pytest.param(lambda b: with_config(b, b"modality_dims = A:3", b"modality_dims = A+X:3"),
                     r"config block: bad modality tag 'A\+X'", id="bad-modality-tag"),
    ],
)
def test_checkpoint_with_valid_crc_but_wrong_layout(tmp_path, edit, message):
    model = trained_model()
    p = tmp_path / "m.ckpt"
    save_checkpoint(model, p)
    body = p.read_bytes()[:-4]
    edited = edit(body)
    assert edited != body
    p.write_bytes(resealed(edited))
    with pytest.raises(ValueError, match=message):
        load_checkpoint(p)


def test_save_checkpoint_rejects_non_finite_parameter(tmp_path):
    model = trained_model()
    model.params["head.B.W2"][1, 2] = np.nan
    p = tmp_path / "m.ckpt"
    with pytest.raises(ValueError, match="parameter head.B.W2 is not finite"):
        save_checkpoint(model, p)
    assert not p.exists()


def test_load_checkpoint_rejects_non_finite_parameter(tmp_path):
    model = trained_model()
    p = tmp_path / "m.ckpt"
    save_checkpoint(model, p)
    body = p.read_bytes()[:-4]
    # the last 8 body bytes are the last entry of the last parameter in buffer order
    p.write_bytes(resealed(body[:-8] + struct.pack("<d", np.inf)))
    with pytest.raises(ValueError, match=f"parameter {list(model.params)[-1]} is not finite"):
        load_checkpoint(p)


def test_checkpoint_io_streams_without_copying_parameters(tmp_path):
    # 2,064,064 parameters (16.5 MB); the largest arrays hold 1,000,000 each
    model = init_model(NetConfig({"A": 1000}, head_hidden=1000, head_out=1000, embed_dim=64), seed=3)
    assert model.params.flat.size >= 2_000_000
    p = tmp_path / "m.ckpt"
    tracemalloc.start()
    try:
        save_checkpoint(model, p)
        saved = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        back = load_checkpoint(p)
        loaded = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert saved < 1_000_000
    assert loaded - back.params.flat.nbytes < 1_000_000
    assert back.params.flat.tobytes() == model.params.flat.tobytes()
    assert p.stat().st_size > model.params.flat.nbytes


def test_checkpoint_bit_flip_to_non_finite_value_is_a_corrupted_payload(tmp_path):
    # flipping the top exponent bit of 1.5 gives inf: the CRC32 must catch it first
    model = trained_model()
    model.params["head.A.W1"][0, 0] = 1.5
    p = tmp_path / "m.ckpt"
    save_checkpoint(model, p)
    data = bytearray(p.read_bytes())
    off = data.find(model.params["head.A.W1"].astype("<f8").tobytes())
    assert off > 0
    data[off + 7] ^= 0x40
    assert not math.isfinite(struct.unpack_from("<d", data, off)[0])
    p.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="corrupted payload"):
        load_checkpoint(p)


@functools.lru_cache(maxsize=1)
def checkpoint_bytes() -> tuple[bytes, dict[str, bytes]]:
    """A small trained checkpoint and each parameter's stored bytes."""
    model = trained_model()
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "m.ckpt"
        save_checkpoint(model, p)
        data = p.read_bytes()
    return data, {name: arr.astype("<f8").tobytes() for name, arr in model.params.items()}


# config text before a width, and the width, that a mutation may make huge
WIDTHS = {b"head_hidden = ": b"4", b"head_out = ": b"3", b"embed_dim = ": b"4", b"A:": b"3"}

# truncate (no reseal), flip up to three bits (no reseal), or reseal after giving
# the config a huge layer or modality width, or a parameter a non-finite value
CHECKPOINT_MUTATIONS = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 10**6)),
    st.tuples(st.just("flip"), st.lists(st.integers(0, 10**7), min_size=1, max_size=3)),
    st.tuples(st.just("huge"), st.sampled_from(sorted(WIDTHS)), st.integers(2**16, 2**63)),
    st.tuples(st.just("value"), st.integers(0, 10**6), st.sampled_from([np.nan, np.inf, -np.inf])),
)


@settings(max_examples=300, deadline=None)
@given(CHECKPOINT_MUTATIONS)
def test_checkpoint_reader_fuzz(mutation):
    """Every damaged checkpoint is rejected with ValueError, without a large allocation.

    A CRC32 catches any flip of up to three bits in a file this small (its
    Hamming distance is 4 up to 91607 bits), so unsealed flips never load.
    """
    data, stored = checkpoint_bytes()
    body = data[:-4]
    kind, *args = mutation
    match = None
    if kind == "truncate":
        mutated = data[: args[0] % len(data)]
    elif kind == "flip":
        out = bytearray(data)
        for bit in {b % (8 * len(data)) for b in args[0]}:  # distinct bits: no flip undoes another
            out[bit // 8] ^= 1 << (bit % 8)
        mutated = bytes(out)
    elif kind == "huge":
        prefix, width = args
        mutated = resealed(with_config(body, prefix + WIDTHS[prefix], prefix + str(width).encode()))
    else:
        index, value = args
        name = sorted(stored)[index % len(stored)]
        raw = stored[name]
        off = body.find(raw) + 8 * (index % (len(raw) // 8))
        mutated = resealed(body[:off] + struct.pack("<d", value) + body[off + 8 :])
        match = f"parameter {name} is not finite"
    assert mutated != data
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "m.ckpt"
        p.write_bytes(mutated)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=match):
                load_checkpoint(p)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
    assert peak < 256 * 1024

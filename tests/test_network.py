import itertools
import math
import os
import re
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

from zsl_embed import network as network_module
from zsl_embed.metric import _dot
from zsl_embed.network import (
    NetConfig,
    ParamBuffer,
    S_TO_V,
    V_TO_S,
    init_model,
    max_relative_error,
    numerical_gradients,
    param_shapes,
)


def toy_config(direction=S_TO_V, **kw):
    base = dict(
        modality_dims={"A": 3, "B": 2},
        head_hidden=4,
        head_out=3,
        embed_dim=5,
        direction=direction,
        l2_lambda=0.0,
    )
    base.update(kw)
    return NetConfig(**base)


def finite_difference(model, inputs, targets, active, step=1e-5, rows=None):
    """Independent central-difference loop over every parameter entry."""
    grads = ParamBuffer({name: param.shape for name, param in model.params.items()})
    for name, param in model.params.items():
        g = grads[name]
        it = np.nditer(param, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = param[idx]
            param[idx] = orig + step
            hi = model.loss(inputs, targets, active, rows)
            param[idx] = orig - step
            lo = model.loss(inputs, targets, active, rows)
            param[idx] = orig
            g[idx] = (hi - lo) / (2 * step)
            it.iternext()
    return grads


def jitter(model, rng, scale=0.3):
    for p in model.params.values():
        p += rng.uniform(-scale, scale, size=p.shape)


# ---------------------------------------------------------------------------
# config and init


def test_config_validation():
    with pytest.raises(ValueError):
        NetConfig(modality_dims={}, embed_dim=4)
    with pytest.raises(ValueError):
        NetConfig(modality_dims={"A": 0}, embed_dim=4)
    with pytest.raises(ValueError, match="embed_dim must be positive"):
        NetConfig(modality_dims={"A": 3}, embed_dim=0)
    with pytest.raises(ValueError):
        NetConfig(modality_dims={"A": 3}, embed_dim=4, direction="sideways")
    with pytest.raises(ValueError):
        NetConfig(modality_dims={"A": 3}, embed_dim=4, l2_lambda=-1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="l2_lambda must be finite"):
            NetConfig(modality_dims={"A": 3}, embed_dim=4, l2_lambda=bad)
    # "A,B:3" would read back from a checkpoint's modality_dims line as two items
    for tag in ("A,B", "A:B", "A+B", "", "A B"):
        with pytest.raises(ValueError, match="bad modality tag"):
            NetConfig({tag: 3}, head_hidden=4, head_out=3, embed_dim=5)


def test_init_deterministic_and_seed_sensitive():
    cfg = toy_config()
    a = init_model(cfg, seed=1).fusion
    b = init_model(cfg, seed=1).fusion
    c = init_model(cfg, seed=2).fusion
    for name in a.params:
        np.testing.assert_array_equal(a.params[name], b.params[name])
    assert not np.array_equal(a.params["head.A.W1"], c.params["head.A.W1"])


@pytest.mark.parametrize("direction", [S_TO_V, V_TO_S])
@pytest.mark.parametrize("n_heads", [1, 4])
def test_branch_params_are_the_models_own_views(direction, n_heads):
    # what a caller reads stack by stack: the fusion branch's and the visual map's arrays
    dims = dict(zip("CITW", (3, 2, 4, 5)))
    model = init_model(toy_config(direction, modality_dims=dims), seed=0, tags=tuple(dims)[:n_heads])
    branches = [model.fusion.params]
    if model.visual_map is not None:
        branches.append(model.visual_map.params)
    names = [name for params in branches for name in params]
    assert sorted(names) == sorted(model.params)
    for params in branches:
        for name, p in params.items():
            assert p is model.params[name], name
            assert p.base is model.params.flat, name


@pytest.mark.parametrize("direction", [S_TO_V, V_TO_S])
@pytest.mark.parametrize("tags", [("A",), ("B",), ("A", "B")])
def test_init_draws_every_configured_layer_in_order(direction, tags):
    # heads in tag order, the shared layer, then the visual map; held or not
    model = init_model(toy_config(direction), seed=3, tags=tags)
    layers = [("head.A.W1", 4, 3), ("head.A.W2", 3, 4), ("head.B.W1", 4, 2), ("head.B.W2", 3, 4),
              ("out.W3", 5, 3)]
    if direction == V_TO_S:
        layers += [("vmap.W1", 3, 5), ("vmap.W2", 4, 3), ("vmap.W3", 3, 4)]
    rng = np.random.default_rng(3)
    drawn = {}
    for name, n_out, n_in in layers:
        bound = math.sqrt(6.0 / (n_in + n_out))
        drawn[name] = rng.uniform(-bound, bound, size=(n_out, n_in))
    assert model.config.tags == tags
    for name, p in model.params.items():
        if name.rsplit(".", 1)[1].startswith("W"):
            assert p.tobytes() == drawn[name].tobytes(), name
        else:
            assert not p.any(), name


def test_init_glorot_bound():
    cfg = NetConfig(modality_dims={"A": 300}, head_hidden=512, head_out=8, embed_dim=8)
    net = init_model(cfg, seed=0).fusion
    bound = math.sqrt(6.0 / (300 + 512))
    w1 = net.params["head.A.W1"]
    assert w1.shape == (512, 300)
    assert np.abs(w1).max() <= bound
    assert np.abs(w1).max() > 0.9 * bound  # the bound is actually approached
    assert np.all(net.params["head.A.b1"] == 0.0)


def test_zero_weights_give_zero_embedding():
    model = init_model(toy_config(), seed=0)
    model.params.flat[:] = 0.0
    inputs = {"A": np.ones((2, 3)), "B": np.ones((2, 2))}
    np.testing.assert_array_equal(model.embed(inputs, ("A", "B")), np.zeros((2, 5)))
    np.testing.assert_array_equal(model.fusion.fuse(inputs, ("A", "B"))[0], np.zeros((2, 3)))


def test_hand_evaluated_chain():
    # one modality, 1-dim everywhere, weights 1/2/3 and zero biases: y=1 -> 6
    cfg = NetConfig(modality_dims={"A": 1}, head_hidden=1, head_out=1, embed_dim=1)
    model = init_model(cfg, seed=0)
    model.params["head.A.W1"][...] = 1.0
    model.params["head.A.W2"][...] = 2.0
    model.params["out.W3"][...] = 3.0
    inputs = {"A": np.array([[1.0]])}
    assert model.fusion.fuse(inputs, ("A",))[0].tolist() == [[2.0]]
    assert model.embed(inputs, ("A",)).tolist() == [[6.0]]


def test_fusion_additivity():
    cfg = toy_config(modality_dims={"A": 2, "B": 2})
    net = init_model(cfg, seed=3).fusion
    # same head weights and same input on both modalities -> fused doubles
    for suffix in ("W1", "b1", "W2", "b2"):
        net.params[f"head.B.{suffix}"][...] = net.params[f"head.A.{suffix}"]
    y = np.array([[0.3, -0.7], [1.1, 0.2]])
    fused_a, _ = net.fuse({"A": y}, ("A",))
    fused_ab, _ = net.fuse({"A": y, "B": y}, ("A", "B"))
    np.testing.assert_allclose(fused_ab, 2 * fused_a, rtol=1e-15)


def test_forward_subset_exclusion():
    # an inactive head contributes nothing, even with nonzero bias
    cfg = toy_config()
    net = init_model(cfg, seed=4).fusion
    net.params["head.B.b2"][...] = 100.0
    rng = np.random.default_rng(0)
    inputs = {"A": rng.normal(size=(1, 3)), "B": rng.normal(size=(1, 2))}
    fused_a, _ = net.fuse(inputs, ("A",))
    fused_ab, _ = net.fuse(inputs, ("A", "B"))
    assert fused_ab.max() > 50.0
    assert fused_a.max() < 50.0


def test_forward_active_order_irrelevant():
    rng = np.random.default_rng(1)
    inputs = {"A": rng.normal(size=(3, 3)), "B": rng.normal(size=(3, 2))}
    for direction in (S_TO_V, V_TO_S):
        model = init_model(toy_config(direction), seed=5)
        e1 = model.embed(inputs, ("A", "B"))
        e2 = model.embed(inputs, ("B", "A"))
        assert e1.tobytes() == e2.tobytes()


def test_forward_errors():
    model = init_model(toy_config(), seed=0)
    with pytest.raises(ValueError, match="empty"):
        model.embed({"A": np.ones((1, 3))}, ())
    with pytest.raises(ValueError, match="unknown"):
        model.embed({"A": np.ones((1, 3))}, ("Z",))
    with pytest.raises(ValueError, match="dim"):
        model.embed({"A": np.ones((1, 4))}, ("A",))
    with pytest.raises(ValueError, match="no input provided for modality B"):
        model.embed({"A": np.ones((1, 3))}, ("A", "B"))
    # a one-row input would broadcast over the other modality's rows
    with pytest.raises(ValueError, match="modality B: 1 rows for 2 rows of modality A"):
        model.embed({"A": np.ones((2, 3)), "B": np.ones((1, 2))}, ("A", "B"))


def test_a_bare_string_is_not_a_set_of_modalities():
    # set("CI") is {"C", "I"}: both tags exist, so splitting it would pick the wrong heads
    config = NetConfig({"C": 3, "I": 2, "CI": 4}, head_hidden=4, head_out=3, embed_dim=5)
    model = init_model(config, seed=0)
    inputs = {"C": np.ones((1, 3)), "I": np.ones((1, 2)), "CI": np.ones((1, 4))}
    for text in ("CI", "word", "C"):
        message = f"^active modalities must be a collection of tags, not the string {re.escape(repr(text))}$"
        for call in (
            lambda: config.check_active(text),
            lambda: init_model(config, seed=0, tags=text),
            lambda: model.embed(inputs, text),
        ):
            with pytest.raises(ValueError, match=message):
                call()
    assert config.check_active(["CI"]) == ("CI",)
    assert config.check_active(("I", "C")) == ("C", "I")
    tags = config.tags
    assert config.check_active(tags) is tags  # the canonical tuple passes as is


@pytest.mark.parametrize("direction", [S_TO_V, V_TO_S])
def test_one_dimensional_inputs_are_rejected(direction):
    model = init_model(toy_config(direction), seed=0)
    with pytest.raises(ValueError, match=r"expected a batch matrix, got shape \(3,\)"):
        model.embed({"A": np.ones(3)}, ("A",))
    with pytest.raises(ValueError, match="expected a batch matrix"):
        model.fusion.fuse({"A": np.ones((1, 3)), "B": np.ones(2)}, ("A", "B"))
    if direction == V_TO_S:
        with pytest.raises(ValueError, match=r"expected a batch matrix, got shape \(5,\)"):
            model.map_visual(np.ones(5))


def test_visual_map_identity_chain():
    cfg = NetConfig(modality_dims={"A": 1}, head_hidden=1, head_out=1, embed_dim=1,
                    direction=V_TO_S)
    model = init_model(cfg, seed=0)
    for name in ("vmap.W1", "vmap.W2", "vmap.W3"):
        model.visual_map.params[name][...] = 1.0
    assert model.map_visual(np.array([[2.0], [3.0]])).tolist() == [[2.0], [3.0]]


def test_visual_map_zero_weights():
    cfg = toy_config(direction=V_TO_S)
    model = init_model(cfg, seed=0)
    for p in model.visual_map.params.values():
        p[...] = 0.0
    np.testing.assert_array_equal(model.map_visual(np.ones((2, 5))), np.zeros((2, 3)))


def test_map_visual_requires_v2s():
    model = init_model(toy_config(), seed=0)
    with pytest.raises(ValueError, match="s2v"):
        model.map_visual(np.ones((1, 5)))


# ---------------------------------------------------------------------------
# loss


def test_perfect_fit_zero_loss():
    cfg = NetConfig(modality_dims={"A": 1}, head_hidden=1, head_out=1, embed_dim=1,
                    l2_lambda=0.0)
    model = init_model(cfg, seed=0)
    model.fusion.params["head.A.W1"][...] = 1.0
    model.fusion.params["head.A.W2"][...] = 2.0
    model.fusion.params["out.W3"][...] = 3.0
    loss, grads = model.loss_and_grad({"A": np.array([[1.0]])}, np.array([[6.0]]), ("A",))
    assert loss == 0.0
    for g in grads.values():
        np.testing.assert_array_equal(g, 0.0)


def test_loss_lower_bounded_by_regularizer():
    rng = np.random.default_rng(7)
    cfg = toy_config(l2_lambda=1e-3)
    model = init_model(cfg, seed=2)
    inputs = {"A": rng.normal(size=(4, 3)), "B": rng.normal(size=(4, 2))}
    targets = rng.uniform(0, 1, size=(4, 5))
    loss = model.loss(inputs, targets, ("A", "B"))
    reg = sum(
        float(np.sum(p * p))
        for name, p in model.params.items()
        if name.rsplit(".", 1)[-1].startswith("W")
    )
    assert loss >= 1e-3 * reg


def test_loss_batch_order_invariant():
    rng = np.random.default_rng(8)
    model = init_model(toy_config(), seed=3)
    inputs = {"A": rng.normal(size=(6, 3)), "B": rng.normal(size=(6, 2))}
    targets = rng.uniform(0, 1, size=(6, 5))
    perm = rng.permutation(6)
    a = model.loss(inputs, targets, ("A", "B"))
    b = model.loss({k: v[perm] for k, v in inputs.items()}, targets[perm], ("A", "B"))
    assert a == pytest.approx(b, rel=1e-12)


@pytest.mark.parametrize("direction", [S_TO_V, V_TO_S])
@pytest.mark.parametrize("lam", [0.0, 1e-3])
def test_forward_only_loss_equals_loss_and_grad_bitwise(direction, lam):
    rng = np.random.default_rng(12)
    inputs = {"A": rng.normal(size=(5, 3)), "B": rng.normal(size=(5, 2))}
    targets = rng.uniform(0, 1, size=(5, 5))
    for active in (("A",), ("A", "B")):
        model = init_model(toy_config(direction, l2_lambda=lam), seed=4, tags=active)
        jitter(model, rng)
        loss = model.loss(inputs, targets, active)
        assert loss.hex() == model.loss_and_grad(inputs, targets, active)[0].hex()


def test_loss_errors():
    model = init_model(toy_config(), seed=0)
    with pytest.raises(ValueError, match="empty batch"):
        model.loss_and_grad({"A": np.zeros((0, 3)), "B": np.zeros((0, 2))},
                            np.zeros((0, 5)), ("A", "B"))
    with pytest.raises(ValueError, match="embed_dim"):
        model.loss_and_grad({"A": np.ones((1, 3)), "B": np.ones((1, 2))},
                            np.ones((1, 4)), ("A", "B"))
    with pytest.raises(ValueError, match="rows"):
        model.loss_and_grad({"A": np.ones((2, 3)), "B": np.ones((1, 2))},
                            np.ones((2, 5)), ("A", "B"))


# per class: samples 0, 2 and 3 share class row 1; one class; every sample its own class
CLASS_ROWS = {"repeats": [1, 0, 1, 1, 2], "one class": [0, 0, 0], "all distinct": [2, 0, 3, 1]}


@pytest.mark.parametrize("direction", [S_TO_V, V_TO_S])
@pytest.mark.parametrize("rows", CLASS_ROWS.values(), ids=CLASS_ROWS.keys())
def test_class_rows_match_per_sample_rows(direction, rows):
    rng = np.random.default_rng(zlib.crc32(f"{direction}|{rows}".encode()))
    model = init_model(toy_config(direction, l2_lambda=1e-3), seed=7)
    jitter(model, rng)
    rows = np.array(rows)
    k = rows.max() + 1
    classes = {"A": rng.normal(size=(k, 3)), "B": rng.normal(size=(k, 2))}
    samples = {t: v[rows] for t, v in classes.items()}
    targets = rng.uniform(0, 1, size=(rows.size, 5))
    loss, grads = model.loss_and_grad(classes, targets, ("A", "B"), rows=rows)
    want, expected = model.loss_and_grad(samples, targets, ("A", "B"))
    assert loss == pytest.approx(want, rel=1e-12, abs=0.0)
    assert model.loss(classes, targets, ("A", "B"), rows=rows) == loss
    for name, g in expected.items():
        np.testing.assert_allclose(grads[name], g, rtol=1e-12, atol=0.0, err_msg=name)


@pytest.mark.parametrize(
    "rows, message",
    [
        ([[0], [1], [0]], r"shape \(3,\), got \(3, 1\)"),
        ([0, 1], r"shape \(3,\), got \(2,\)"),
        ([0.0, 1.0, 0.0], r"rows\[0\] = 0.0 is not an integer class-row index \(dtype float64\)"),
        ([True, False, True], r"rows\[0\] = True is not an integer class-row index \(dtype bool\)"),
        ([0, -1, 1], r"rows\[1\] = -1 is outside \[0, 2\)"),
        ([0, 1, 2], r"rows\[2\] = 2 is outside \[0, 2\)"),
    ],
)
@pytest.mark.parametrize("direction", [S_TO_V, V_TO_S])
def test_bad_class_rows_are_rejected(direction, rows, message):
    model = init_model(toy_config(direction), seed=0)
    inputs = {"A": np.ones((2, 3)), "B": np.ones((2, 2))}
    for call in (model.loss, model.loss_and_grad):
        with pytest.raises(ValueError, match=message):
            call(inputs, np.ones((3, 5)), ("A", "B"), rows=rows)


def test_class_rows_need_the_same_rows_in_every_input():
    # with rows the inputs hold class rows, whatever the number of targets
    model = init_model(toy_config(), seed=0)
    rows = np.array([0, 1, 1, 0])
    with pytest.raises(ValueError, match="modality B: 3 rows for 2 rows of modality A"):
        model.loss_and_grad({"A": np.ones((2, 3)), "B": np.ones((3, 2))}, np.ones((4, 5)), ("A", "B"), rows=rows)
    model.loss_and_grad({"A": np.ones((2, 3)), "B": np.ones((2, 2))}, np.ones((4, 5)), ("A", "B"), rows=rows)


def test_trainable_params_by_direction():
    # a model holds its heads and the stack its direction trains: out for s2v, vmap for v2s
    head_a = {"head.A.W1", "head.A.b1", "head.A.W2", "head.A.b2"}
    m_sv = init_model(toy_config(), seed=0, tags=("A",))
    assert set(m_sv.params) == head_a | {"out.W3", "out.b3"}
    m_vs = init_model(toy_config(direction=V_TO_S), seed=0, tags=("A",))
    assert set(m_vs.params) == head_a | {f"vmap.{p}{k}" for k in (1, 2, 3) for p in "Wb"}
    assert m_vs.fusion.out is None
    for model in (m_sv, m_vs):
        with pytest.raises(ValueError, match=r"unknown modalities: \['B'\]"):
            model.loss({"A": np.ones((1, 3)), "B": np.ones((1, 2))}, np.ones((1, 5)), ("A", "B"))
    with pytest.raises(ValueError, match="unknown modalities"):
        init_model(toy_config(), seed=0, tags=("A", "Z"))


@pytest.mark.parametrize("direction", [S_TO_V, V_TO_S])
def test_training_a_proper_subset_of_the_heads_raises(direction):
    model = init_model(toy_config(direction), seed=0)
    inputs = {"A": np.ones((2, 3)), "B": np.ones((2, 2))}
    targets = np.ones((2, 5))
    for call in (model.loss, model.loss_and_grad):
        with pytest.raises(ValueError, match=r"exactly the model's heads \['A', 'B'\]"):
            call(inputs, targets, ("B",))
    # every head, in any order, trains
    assert model.loss(inputs, targets, ("B", "A")) == model.loss_and_grad(inputs, targets, ("A", "B"))[0]


@pytest.mark.parametrize(
    "call, message",
    [
        ({"active": ("A",)}, "active must name exactly the model's heads ['A', 'B']"),
        ({"inputs": {"A": np.ones((2, 4)), "B": np.ones((2, 2))}}, "modality A: expected dim 3, got 4"),
        ({"inputs": {"A": np.ones((2, 3)), "B": np.ones((1, 2))}}, "modality B: 1 rows for 2 targets"),
        ({"rows": np.array([True, False])}, "rows[0] = True is not an integer class-row index (dtype bool)"),
        ({"rows": np.array([0, 2])}, "rows[1] = 2 is outside [0, 2), the inputs' class rows"),
        ({"targets": np.ones((0, 5))}, "empty batch"),
    ],
    ids=["inactive tags", "modality dim", "row count", "bool rows", "rows out of range", "empty batch"],
)
@pytest.mark.parametrize("direction", [S_TO_V, V_TO_S])
def test_loss_and_grad_input_errors_keep_their_messages(direction, call, message):
    model = init_model(toy_config(direction), seed=0)
    args = {"inputs": {"A": np.ones((2, 3)), "B": np.ones((2, 2))}, "targets": np.ones((2, 5)),
            "active": ("A", "B"), "rows": None} | call
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        model.loss_and_grad(args["inputs"], args["targets"], args["active"], rows=args["rows"])


def layer_names(prefix, first, n):
    return [(f"{prefix}.W{k}", f"{prefix}.b{k}") for k in range(first, first + n)]


def dense_relu(p, x, names):
    """Every layer's output of a dense-ReLU stack, after its input ``x``."""
    acts = [x]
    for w, b in names:
        x = x @ p[w].T
        x += p[b]
        np.maximum(x, 0.0, out=x)
        acts.append(x)
    return acts


def per_head_fuse(p, inputs, tags):
    """Each head run as its own stack, and their outputs summed in sorted tag order."""
    heads = {t: dense_relu(p, inputs[t], layer_names(f"head.{t}", 1, 2)) for t in sorted(tags)}
    fused = None
    for acts in heads.values():
        fused = acts[-1] if fused is None else fused + acts[-1]
    return heads, fused


def per_head_oracle(model, inputs, targets, rows):
    """``loss_and_grad``'s loss and gradients, with every head its own stack of
    two dense-ReLU layers, the heads summed in sorted tag order, and the
    backward pass run one head at a time, each op as the model orders it."""
    p, cfg = model.params, model.config
    lam, m = cfg.l2_lambda, targets.shape[0]
    grads = {name: np.empty_like(a) for name, a in p.items()}

    def backward(acts, d_out, names):
        for k in reversed(range(len(names))):
            w, b = names[k]
            dz = d_out * (acts[k + 1] > 0)
            np.matmul(dz.T, acts[k], out=grads[w])
            np.add.reduce(dz, axis=0, out=grads[b])
            d_out = dz @ p[w]
        return d_out

    def per_class(d, scale):
        if rows is None:
            return scale * d
        onehot = np.zeros((fused.shape[0], rows.size))
        onehot[rows, np.arange(rows.size)] = scale
        return onehot @ d

    heads, fused = per_head_fuse(p, inputs, cfg.tags)
    if cfg.direction == S_TO_V:
        names = layer_names("out", 3, 1)
        top = dense_relu(p, fused, names)
        residual = (top[-1] if rows is None else top[-1][rows]) - targets
    else:
        names = layer_names("vmap", 1, 3)
        top = dense_relu(p, targets, names)
        residual = top[-1] - (fused if rows is None else fused[rows])
    w = p.flat[model.weights]
    loss = float(np.add.reduce(residual * residual, axis=None)) / m + lam * float(_dot(w, w))
    if cfg.direction == S_TO_V:
        d_fused = backward(top, per_class(residual, 2.0 / m), names)
    else:
        backward(top, (2.0 / m) * residual, names)
        d_fused = per_class(residual, -2.0 / m)
    for t, acts in heads.items():
        backward(acts, d_fused, layer_names(f"head.{t}", 1, 2))
    for name, g in grads.items():
        if name.rsplit(".", 1)[1].startswith("W"):
            g += (2.0 * lam) * p[name]
    return loss, grads


def per_head_embed(model, inputs, tags):
    """``embed`` with every head its own stack, summed in sorted tag order."""
    _, fused = per_head_fuse(model.params, inputs, tags)
    if model.config.direction == V_TO_S:
        return fused
    return dense_relu(model.params, fused, layer_names("out", 3, 1))[-1]


@pytest.mark.parametrize("class_rows", [False, True], ids=["rows=None", "repeated rows"])
@pytest.mark.parametrize("direction", [S_TO_V, V_TO_S])
@pytest.mark.parametrize("n_heads", [1, 2, 3, 4])
def test_head_bank_matches_per_head_heads_bitwise(n_heads, direction, class_rows):
    # the model's bank of heads (one ReluStack each) against an oracle written apart from it
    rng = np.random.default_rng(zlib.crc32(f"{n_heads}|{direction}|{class_rows}".encode()))
    dims = {"C": 7, "I": 5, "T": 9, "W": 3}
    config = NetConfig(dims, embed_dim=6, head_hidden=8, head_out=5, direction=direction, l2_lambda=1e-3)
    for held in itertools.combinations(sorted(dims), n_heads):
        model = init_model(config, seed=3, tags=held)
        jitter(model, rng)
        m, k = 11, (4 if class_rows else 11)
        rows = np.array([1, 0, 3, 1, 1, 2, 0, 3, 3, 1, 2]) if class_rows else None
        inputs = {t: rng.normal(size=(k, dims[t])) for t in held}
        targets = rng.uniform(0, 1, size=(m, 6))
        loss, grads = model.loss_and_grad(inputs, targets, held, rows=rows)
        want, expected = per_head_oracle(model, inputs, targets, rows)
        assert loss.hex() == want.hex(), held
        assert list(grads) == list(expected)
        for name, g in expected.items():
            assert grads[name].tobytes() == g.tobytes(), (held, name)
        for size in range(1, n_heads + 1):
            for subset in itertools.combinations(held, size):
                got = model.embed(inputs, subset[::-1])
                assert got.tobytes() == per_head_embed(model, inputs, subset).tobytes(), (held, subset)


# ---------------------------------------------------------------------------
# gradients against an independent finite-difference loop


def random_instance(rng, direction, active=("A", "B"), tags=("A", "B"), class_rows=False):
    """A jittered model, its inputs and targets, and ``rows``: None, or with
    ``class_rows`` up to 3 class rows shared by more samples, so classes repeat."""
    dims = {t: int(rng.integers(2, 9)) for t in tags}
    cfg = NetConfig(
        modality_dims=dims,
        head_hidden=int(rng.integers(2, 9)),
        head_out=int(rng.integers(2, 9)),
        embed_dim=int(rng.integers(2, 9)),
        direction=direction,
        l2_lambda=float(rng.uniform(0, 1e-3)),
    )
    model = init_model(cfg, seed=int(rng.integers(0, 2**31)), tags=active)
    jitter(model, rng)
    m = int(rng.integers(1, 5))
    k = int(rng.integers(1, 4)) if class_rows else m
    rows = rng.integers(0, k, size=m + k) if class_rows else None
    inputs = {t: rng.normal(size=(k, dims[t])) for t in tags}
    targets = rng.uniform(0, 1, size=(m if rows is None else rows.size, cfg.embed_dim))
    return model, inputs, targets, rows


@pytest.mark.parametrize("direction", [S_TO_V, V_TO_S])
@pytest.mark.parametrize("active", [("A",), ("B",), ("A", "B")])
def test_gradients_match_finite_differences(direction, active):
    rng = np.random.default_rng(zlib.crc32(f"{direction}|{active}".encode()))
    for class_rows in (False, True):
        model, inputs, targets, rows = random_instance(rng, direction, active, class_rows=class_rows)
        _, analytic = model.loss_and_grad(inputs, targets, active, rows=rows)
        numeric = finite_difference(model, inputs, targets, active, rows=rows)
        assert set(analytic) == set(numeric)
        err = max_relative_error(analytic, numeric)
        assert err < 1e-6, f"class_rows={class_rows}"


def test_gradient_with_regularization_includes_weight_term():
    rng = np.random.default_rng(42)
    cfg = toy_config(l2_lambda=0.01)
    model = init_model(cfg, seed=1)
    jitter(model, rng)
    inputs = {"A": rng.normal(size=(3, 3)), "B": rng.normal(size=(3, 2))}
    targets = rng.uniform(0, 1, size=(3, 5))
    _, analytic = model.loss_and_grad(inputs, targets, ("A", "B"))
    numeric = finite_difference(model, inputs, targets, ("A", "B"))
    assert max_relative_error(analytic, numeric) < 1e-6


@pytest.mark.parametrize("direction", [S_TO_V, V_TO_S])
def test_numerical_gradients_equal_the_independent_loop_bitwise(direction):
    rng = np.random.default_rng(zlib.crc32(direction.encode()))
    model, inputs, targets, _ = random_instance(rng, direction)
    numeric = numerical_gradients(model, inputs, targets, ("A", "B"), step=1e-5)
    expected = finite_difference(model, inputs, targets, ("A", "B"))
    assert isinstance(numeric, ParamBuffer)
    assert list(numeric) == list(expected)
    for name in expected:
        assert numeric[name].tobytes() == expected[name].tobytes(), name


def test_max_relative_error_mismatched_bundles():
    with pytest.raises(ValueError, match="gradient buffers hold 2 and 3 values"):
        max_relative_error(ParamBuffer({"a": (2,)}), ParamBuffer({"a": (3,)}))


@pytest.mark.parametrize("direction", [S_TO_V, V_TO_S])
def test_returned_gradients_survive_later_calls(direction):
    rng = np.random.default_rng(13)
    model = init_model(toy_config(direction=direction, l2_lambda=1e-3), seed=2)
    inputs = {"A": rng.normal(size=(3, 3)), "B": rng.normal(size=(3, 2))}
    targets = rng.uniform(0, 1, size=(3, 5))
    _, grads = model.loss_and_grad(inputs, targets, ("A", "B"))
    kept = {name: g.copy() for name, g in grads.items()}
    flat = grads.flat.copy()
    model.loss(inputs, targets[::-1], ("A", "B"))
    model.loss_and_grad({k: 2 * v for k, v in inputs.items()}, targets, ("A", "B"))
    model.loss_and_grad(inputs, targets[::-1], ("A", "B"))
    for name, g in grads.items():
        assert g.tobytes() == kept[name].tobytes(), name
    assert grads.flat.tobytes() == flat.tobytes()


@pytest.mark.parametrize("direction", [S_TO_V, V_TO_S])
@pytest.mark.parametrize("active", [("A", "B"), ("B",)])
def test_gradients_into_a_dirty_buffer_equal_a_fresh_call_bitwise(direction, active):
    rng = np.random.default_rng(21)
    model = init_model(toy_config(direction=direction, l2_lambda=1e-3), seed=5, tags=active)
    jitter(model, rng)
    inputs = {"A": rng.normal(size=(4, 3)), "B": rng.normal(size=(4, 2))}
    targets = rng.uniform(0, 1, size=(4, 5))
    loss, fresh = model.loss_and_grad(inputs, targets, active)
    out = ParamBuffer(param_shapes(model.config))
    out.flat[:] = rng.normal(size=out.flat.size)  # left over from an earlier step
    loss_out, grads = model.loss_and_grad(inputs, targets, active, out=out)
    assert grads is out
    assert loss_out.hex() == loss.hex()
    assert out.flat.tobytes() == fresh.flat.tobytes()


@pytest.mark.parametrize("direction", [S_TO_V, V_TO_S])
def test_param_shapes_put_every_weight_before_every_bias(direction):
    names = list(param_shapes(toy_config(direction=direction)))
    kinds = [name.rsplit(".", 1)[1][0] for name in names]
    n_weights = kinds.count("W")
    assert kinds == ["W"] * n_weights + ["b"] * (len(names) - n_weights)
    model = init_model(toy_config(direction=direction), seed=0)
    assert list(model.params) == names
    size = sum(model.params[name].size for name in names[:n_weights])
    for name in names[:n_weights]:  # every weight is a view into the leading span of flat
        assert np.shares_memory(model.params[name], model.params.flat[:size])
        assert not np.shares_memory(model.params[name], model.params.flat[size:])
    assert model.weights == slice(0, size)


# checkpoints store params.flat in this order with no names or shapes: a reorder
# needs a new checkpoint version
PINNED_LAYOUTS = {
    S_TO_V: [("head.A.W1", (4, 3)), ("head.A.W2", (3, 4)), ("head.B.W1", (4, 2)), ("head.B.W2", (3, 4)),
             ("out.W3", (5, 3)), ("head.A.b1", (4,)), ("head.A.b2", (3,)), ("head.B.b1", (4,)),
             ("head.B.b2", (3,)), ("out.b3", (5,))],
    V_TO_S: [("head.A.W1", (4, 3)), ("head.A.W2", (3, 4)), ("head.B.W1", (4, 2)), ("head.B.W2", (3, 4)),
             ("vmap.W1", (3, 5)), ("vmap.W2", (4, 3)), ("vmap.W3", (3, 4)), ("head.A.b1", (4,)),
             ("head.A.b2", (3,)), ("head.B.b1", (4,)), ("head.B.b2", (3,)), ("vmap.b1", (3,)),
             ("vmap.b2", (4,)), ("vmap.b3", (3,))],
}


@pytest.mark.parametrize("direction", [S_TO_V, V_TO_S])
def test_param_shapes_layout_is_pinned(direction):
    assert list(param_shapes(toy_config(direction=direction)).items()) == PINNED_LAYOUTS[direction]


@pytest.mark.parametrize("direction", [S_TO_V, V_TO_S])
def test_weight_slice_with_a_modality_tagged_w(direction):
    # the names head.W.b1 and head.W.b2 contain ".W"; the penalty still covers no bias
    model = init_model(toy_config(direction, modality_dims={"W": 3, "b": 2}, l2_lambda=1e-3), seed=1)
    weights = [p for name, p in model.params.items() if name.rsplit(".", 1)[1].startswith("W")]
    assert model.weights == slice(0, sum(p.size for p in weights))
    # zero weights and a large bias in the first layer: every output, residual and
    # gradient is exactly zero unless the penalty takes in that bias
    model.params.flat[:] = 0.0
    model.params["head.W.b1"][...] = 7.0
    inputs = {"W": np.ones((2, 3)), "b": np.ones((2, 2))}
    loss, grads = model.loss_and_grad(inputs, np.zeros((2, 5)), ("W", "b"))
    assert loss == 0.0
    assert not grads.flat.any()


@pytest.mark.parametrize("direction", [S_TO_V, V_TO_S])
@pytest.mark.parametrize("active", [("A", "B"), ("A",), ("B",)])
def test_l2_penalty_equals_the_per_array_sum(direction, active):
    # zero inputs, targets and biases make every activation and the residual exactly
    # zero, so the loss is the penalty alone
    lam = 1e-3
    model = init_model(toy_config(direction=direction, l2_lambda=lam), seed=6, tags=active)
    jitter(model, np.random.default_rng(22))
    for name, p in model.params.items():
        if name.rsplit(".", 1)[1].startswith("b"):
            p[...] = 0.0
    inputs = {"A": np.zeros((3, 3)), "B": np.zeros((3, 2))}
    reference = sum(
        float(np.sum(p * p)) for name, p in model.params.items() if name.rsplit(".", 1)[1].startswith("W")
    )
    loss = model.loss(inputs, np.zeros((3, 5)), active)
    assert loss == pytest.approx(lam * reference, rel=1e-12, abs=0.0)


PENALTY_CHILD = """
import sys
import numpy as np
from zsl_embed.network import NetConfig, S_TO_V, V_TO_S, init_model
for direction in (S_TO_V, V_TO_S):
    config = NetConfig({"A": 300}, head_hidden=64, head_out=128, embed_dim=256,
                       direction=direction, l2_lambda=1e-3)
    model = init_model(config, seed=3)
    assert model.weights.stop > 20_000
    # zero inputs, targets and biases: the loss is the penalty alone
    inputs = {"A": np.zeros((2, 300))}
    sys.stdout.write(model.loss(inputs, np.zeros((2, 256)), ("A",)).hex())
"""


def test_l2_penalty_does_not_depend_on_the_blas_thread_count():
    # OpenBLAS threads a ddot of more than 10,000 terms, which changes its rounding
    src = str(Path(network_module.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = [
        subprocess.run(
            [sys.executable, "-c", PENALTY_CHILD],
            env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads},
            capture_output=True, text=True, check=True, timeout=120,
        ).stdout
        for threads in ("1", "2")
    ]
    assert outputs[0] and outputs[0] == outputs[1]

import math
import zlib

import numpy as np
import pytest

from zsl_embed.network import (
    NetConfig,
    S_TO_V,
    V_TO_S,
    init_model,
    max_relative_error,
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


def finite_difference(model, inputs, targets, active, step=1e-5):
    """Independent central-difference loop over every parameter entry."""
    grads = {}
    for name, param in model.params.items():
        g = np.zeros_like(param)
        it = np.nditer(param, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = param[idx]
            param[idx] = orig + step
            hi = model.loss(inputs, targets, active)
            param[idx] = orig - step
            lo = model.loss(inputs, targets, active)
            param[idx] = orig
            g[idx] = (hi - lo) / (2 * step)
            it.iternext()
        grads[name] = g
    return grads


def jitter(model, rng, scale=0.3):
    for p in model.params.values():
        p += rng.uniform(-scale, scale, size=p.shape)


# ---------------------------------------------------------------------------
# config and init


def test_config_validation():
    with pytest.raises(ValueError):
        NetConfig(modality_dims={})
    with pytest.raises(ValueError):
        NetConfig(modality_dims={"A": 0})
    with pytest.raises(ValueError):
        NetConfig(modality_dims={"A": 3}, direction="sideways")
    with pytest.raises(ValueError):
        NetConfig(modality_dims={"A": 3}, l2_lambda=-1.0)


def test_init_deterministic_and_seed_sensitive():
    cfg = toy_config()
    a = init_model(cfg, seed=1).fusion
    b = init_model(cfg, seed=1).fusion
    c = init_model(cfg, seed=2).fusion
    for name in a.params:
        np.testing.assert_array_equal(a.params[name], b.params[name])
    assert not np.array_equal(a.params["head.A.W1"], c.params["head.A.W1"])


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
    cfg = toy_config()
    net = init_model(cfg, seed=0).fusion
    for p in net.params.values():
        p[...] = 0.0
    embedded, fused = net.forward({"A": np.ones(3), "B": np.ones(2)}, ("A", "B"))
    np.testing.assert_array_equal(embedded, np.zeros(5))
    np.testing.assert_array_equal(fused, np.zeros(3))


def test_hand_evaluated_chain():
    # one modality, 1-dim everywhere, weights 1/2/3 and zero biases: y=1 -> 6
    cfg = NetConfig(modality_dims={"A": 1}, head_hidden=1, head_out=1, embed_dim=1)
    net = init_model(cfg, seed=0).fusion
    net.params["head.A.W1"][...] = 1.0
    net.params["head.A.W2"][...] = 2.0
    net.params["out.W3"][...] = 3.0
    embedded, fused = net.forward({"A": np.array([1.0])}, ("A",))
    assert fused[0] == 2.0
    assert embedded[0] == 6.0


def test_fusion_additivity():
    cfg = toy_config(modality_dims={"A": 2, "B": 2})
    net = init_model(cfg, seed=3).fusion
    # same head weights and same input on both modalities -> fused doubles
    for suffix in ("W1", "b1", "W2", "b2"):
        net.params[f"head.B.{suffix}"][...] = net.params[f"head.A.{suffix}"]
    y = np.array([0.3, -0.7])
    _, fused_a = net.forward({"A": y}, ("A",))
    _, fused_ab = net.forward({"A": y, "B": y}, ("A", "B"))
    np.testing.assert_allclose(fused_ab, 2 * fused_a, rtol=1e-15)


def test_forward_subset_exclusion():
    # an inactive head contributes nothing, even with nonzero bias
    cfg = toy_config()
    net = init_model(cfg, seed=4).fusion
    net.params["head.B.b2"][...] = 100.0
    rng = np.random.default_rng(0)
    inputs = {"A": rng.normal(size=3), "B": rng.normal(size=2)}
    _, fused_a = net.forward(inputs, ("A",))
    _, fused_ab = net.forward(inputs, ("A", "B"))
    assert fused_ab.max() > 50.0
    assert fused_a.max() < 50.0


def test_forward_active_order_irrelevant():
    cfg = toy_config()
    net = init_model(cfg, seed=5).fusion
    rng = np.random.default_rng(1)
    inputs = {"A": rng.normal(size=3), "B": rng.normal(size=2)}
    e1, f1 = net.forward(inputs, ("A", "B"))
    e2, f2 = net.forward(inputs, ("B", "A"))
    np.testing.assert_array_equal(e1, e2)
    np.testing.assert_array_equal(f1, f2)


def test_forward_errors():
    net = init_model(toy_config(), seed=0).fusion
    with pytest.raises(ValueError, match="empty"):
        net.forward({"A": np.ones(3)}, ())
    with pytest.raises(ValueError, match="unknown"):
        net.forward({"A": np.ones(3)}, ("Z",))
    with pytest.raises(ValueError, match="dim"):
        net.forward({"A": np.ones(4)}, ("A",))


def test_visual_map_identity_chain():
    cfg = NetConfig(modality_dims={"A": 1}, head_hidden=1, head_out=1, embed_dim=1,
                    direction=V_TO_S)
    model = init_model(cfg, seed=0)
    for name in ("vmap.W1", "vmap.W2", "vmap.W3"):
        model.visual_map.params[name][...] = 1.0
    out = model.map_visual(np.array([2.0]))
    assert out[0] == 2.0


def test_visual_map_zero_weights():
    cfg = toy_config(direction=V_TO_S)
    model = init_model(cfg, seed=0)
    for p in model.visual_map.params.values():
        p[...] = 0.0
    np.testing.assert_array_equal(model.map_visual(np.ones(5)), np.zeros(3))


def test_map_visual_requires_v2s():
    model = init_model(toy_config(), seed=0)
    with pytest.raises(ValueError, match="s2v"):
        model.map_visual(np.ones(5))


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
    model = init_model(toy_config(direction, l2_lambda=lam), seed=4)
    jitter(model, rng)
    inputs = {"A": rng.normal(size=(5, 3)), "B": rng.normal(size=(5, 2))}
    targets = rng.uniform(0, 1, size=(5, 5))
    for active in (("A",), ("A", "B")):
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


# ---------------------------------------------------------------------------
# gradients against an independent finite-difference loop


def random_instance(rng, direction, tags=("A", "B")):
    dims = {t: int(rng.integers(2, 9)) for t in tags}
    cfg = NetConfig(
        modality_dims=dims,
        head_hidden=int(rng.integers(2, 9)),
        head_out=int(rng.integers(2, 9)),
        embed_dim=int(rng.integers(2, 9)),
        direction=direction,
        l2_lambda=float(rng.uniform(0, 1e-3)),
    )
    model = init_model(cfg, seed=int(rng.integers(0, 2**31)))
    jitter(model, rng)
    m = int(rng.integers(1, 5))
    inputs = {t: rng.normal(size=(m, dims[t])) for t in tags}
    targets = rng.uniform(0, 1, size=(m, cfg.embed_dim))
    return model, inputs, targets


@pytest.mark.parametrize("direction", [S_TO_V, V_TO_S])
@pytest.mark.parametrize("active", [("A",), ("B",), ("A", "B")])
def test_gradients_match_finite_differences(direction, active):
    rng = np.random.default_rng(zlib.crc32(f"{direction}|{active}".encode()))
    model, inputs, targets = random_instance(rng, direction)
    _, analytic = model.loss_and_grad(inputs, targets, active)
    numeric = finite_difference(model, inputs, targets, active)
    assert set(analytic) == set(numeric)
    err = max_relative_error(analytic, numeric)
    assert err < 1e-6


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


def test_gradients_only_cover_active_heads():
    model = init_model(toy_config(), seed=0)
    rng = np.random.default_rng(0)
    inputs = {"A": rng.normal(size=(2, 3))}
    targets = rng.uniform(0, 1, size=(2, 5))
    _, grads = model.loss_and_grad(inputs, targets, ("A",))
    assert set(grads) == set(model.params)
    assert all(not g.any() for name, g in grads.items() if name.startswith("head.B."))


def test_max_relative_error_mismatched_bundles():
    with pytest.raises(ValueError):
        max_relative_error({"a": np.zeros(1)}, {"b": np.zeros(1)})


@pytest.mark.parametrize("direction", [S_TO_V, V_TO_S])
def test_returned_gradients_survive_later_calls(direction):
    rng = np.random.default_rng(13)
    model = init_model(toy_config(direction=direction, l2_lambda=1e-3), seed=2)
    inputs = {"A": rng.normal(size=(3, 3)), "B": rng.normal(size=(3, 2))}
    targets = rng.uniform(0, 1, size=(3, 5))
    _, grads = model.loss_and_grad(inputs, targets, ("A", "B"))
    kept = {name: g.copy() for name, g in grads.items()}
    flat = grads.flat.copy()
    model.loss(inputs, targets, ("A",))
    model.loss_and_grad({k: 2 * v for k, v in inputs.items()}, targets, ("A", "B"))
    model.loss_and_grad(inputs, targets[::-1], ("B",))
    for name, g in grads.items():
        assert g.tobytes() == kept[name].tobytes(), name
    assert grads.flat.tobytes() == flat.tobytes()


def test_gradient_buffer_is_zero_outside_trained_parameters():
    model = init_model(toy_config(direction=V_TO_S), seed=0)
    jitter(model, np.random.default_rng(1))
    rng = np.random.default_rng(2)
    _, grads = model.loss_and_grad({"B": rng.normal(size=(2, 2))},
                                   rng.uniform(0, 1, size=(2, 5)), ("B",))
    assert set(grads) == set(model.params)
    assert grads.flat.shape == model.params.flat.shape
    # the named views do not overlap, so every nonzero entry lies inside a trained one
    trained = sum(int(np.count_nonzero(g)) for name, g in grads.items() if not name.startswith("head.A."))
    assert trained > 0
    assert np.count_nonzero(grads.flat) == trained

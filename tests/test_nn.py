"""MLP forward contracts, Adam update arithmetic, JSON persistence.

The fused one-node ``Mlp.forward`` and the flat in-place ``Adam`` are checked
for exact equality (bytes, not a tolerance) against oracles: the per-layer
tape formulation of the forward pass kept here, which applies the activation
formulas of ``tape_oracle.ORACLE_ACTIVATIONS``, and ``tape_oracle.OracleAdam``.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import check_mlp_gradients
from flowconformal.nn import (
    ACTIVATIONS,
    Adam,
    Mlp,
    MlpSpec,
    mlp_from_dict,
    mlp_to_dict,
    params_from_json,
    params_to_json,
    to_json,
)
from tape_oracle import OracleAdam, TapeTensor, tape


def test_identity_layer_passes_through():
    net = Mlp.identity(2)
    x = np.array([[1.5, -2.0]])
    np.testing.assert_array_equal(net.predict(x), x)


def test_affine_layer_hand_example():
    # W=[[2]], b=[1], identity: 2*3+1 = 7
    spec = MlpSpec((1, 1), (), "identity")
    net = Mlp(spec, layers=[(np.array([[2.0]]), np.array([1.0]))])
    assert net.predict(np.array([[3.0]]))[0, 0] == pytest.approx(7.0)


def test_three_layer_shape_contract():
    rng = np.random.default_rng(0)
    net = Mlp(MlpSpec((2, 5, 5, 1), ("relu", "relu"), "identity"), rng=rng)
    out = net.predict(rng.normal(size=(4, 2)))
    assert out.shape == (4, 1)


def test_forward_shape_errors_name_the_problem():
    rng = np.random.default_rng(0)
    net = Mlp(MlpSpec((3, 2), (), "identity"), rng=rng)
    with pytest.raises(ValueError, match="input width 2 != expected 3"):
        net.predict(np.ones((1, 2)))
    with pytest.raises(ValueError, match="batch, features"):
        net.predict(np.ones(3))


def test_spec_validation():
    with pytest.raises(ValueError, match="at least"):
        MlpSpec((4,), ())
    with pytest.raises(ValueError, match="positive"):
        MlpSpec((4, 0), ())
    with pytest.raises(ValueError, match="hidden activations"):
        MlpSpec((4, 3, 2), ())
    with pytest.raises(ValueError, match="unknown activation"):
        MlpSpec((4, 2), (), "softplus")
    assert set(ACTIVATIONS) == {"relu", "leaky-relu", "tanh", "sigmoid", "identity"}


def test_explicit_layer_shape_validation():
    spec = MlpSpec((2, 3), (), "identity")
    with pytest.raises(ValueError, match="weight shape"):
        Mlp(spec, layers=[(np.ones((3, 2)), np.zeros(3))])
    with pytest.raises(ValueError, match="bias shape"):
        Mlp(spec, layers=[(np.ones((2, 3)), np.zeros(2))])
    with pytest.raises(ValueError, match="expected 1 layers"):
        Mlp(spec, layers=[(np.ones((2, 3)), np.zeros(3)), (np.ones((3, 3)), np.zeros(3))])


def test_init_requires_rng_or_layers():
    with pytest.raises(ValueError, match="rng"):
        Mlp(MlpSpec((2, 2), (), "identity"))


def test_init_bounds_follow_fan_in_fan_out():
    rng = np.random.default_rng(42)
    net = Mlp(MlpSpec((100, 50), (), "identity"), rng=rng)
    w = net.layers[0][0].data
    bound = np.sqrt(6.0 / 150.0)
    assert np.abs(w).max() <= bound
    assert np.abs(w).max() > 0.8 * bound  # uniform support is actually used
    assert np.all(net.layers[0][1].data == 0.0)


def test_adam_first_step_hand_example():
    # g=1, lr=0.01: bias correction gives m_hat = v_hat = 1, so the update is
    # -lr * 1/(1 + eps) which is -0.01 to within eps
    p = TapeTensor(np.array(0.5), requires_grad=True)
    p.grad = np.array(1.0)
    opt = Adam([p], lr=0.01)
    opt.step()
    assert p.data == pytest.approx(0.5 - 0.01, abs=1e-9)
    assert opt.t == 1
    assert p.grad is None


def test_adam_zero_grad_leaves_params():
    p = TapeTensor(np.array([1.0, 2.0]), requires_grad=True)
    opt = Adam([p], lr=0.1)
    opt.step()  # grad None counts as zero
    np.testing.assert_array_equal(p.data, [1.0, 2.0])
    assert opt.t == 1


def test_adam_opposite_grads_symmetric_updates():
    p = TapeTensor(np.array([0.0, 0.0]), requires_grad=True)
    p.grad = np.array([1.0, -1.0])
    opt = Adam([p], lr=0.05)
    opt.step()
    assert p.data[0] == pytest.approx(-p.data[1])
    assert p.data[0] < 0 < p.data[1]


def test_adam_rejects_bad_hyperparams_and_nan_grad():
    p = TapeTensor(np.array(0.0), requires_grad=True)
    with pytest.raises(ValueError, match="learning rate"):
        Adam([p], lr=0.0)
    with pytest.raises(ValueError, match="betas"):
        Adam([p], beta1=1.0)
    opt = Adam([p])
    p.grad = np.array(np.nan)
    with pytest.raises(FloatingPointError):
        opt.step()


def test_adam_determinism():
    def run():
        rng = np.random.default_rng(9)
        net = Mlp(MlpSpec((3, 4, 1), ("tanh",), "identity"), rng=rng)
        opt = Adam(net.parameters(), lr=1e-2)
        x = rng.normal(size=(8, 3))
        for _ in range(25):
            loss = (net(TapeTensor(x)) ** 2).mean()
            loss.backward()
            opt.step()
        return [p.data.copy() for p in net.parameters()]

    a, b = run(), run()
    for pa, pb in zip(a, b):
        assert np.array_equal(pa, pb)


def test_mlp_gradcheck_each_activation():
    rng = np.random.default_rng(23)
    x = rng.normal(size=(3, 2))
    for act in ACTIVATIONS:
        net = Mlp(MlpSpec((2, 4, 2), (act,), "identity"), rng=rng)
        check_mlp_gradients(net, lambda net=net: (net(TapeTensor(x)) ** 2).mean())


def test_json_roundtrip_exact():
    rng = np.random.default_rng(31)
    net = Mlp(MlpSpec((3, 5, 2), ("leaky-relu",), "sigmoid"), rng=rng)
    text = params_to_json(net)
    back = params_from_json(text)
    assert back.spec == net.spec
    for (w1, b1), (w2, b2) in zip(net.layers, back.layers):
        assert np.array_equal(w1.data, w2.data)
        assert np.array_equal(b1.data, b2.data)
    x = rng.normal(size=(4, 3))
    assert np.array_equal(net.predict(x), back.predict(x))


def test_mlp_dict_version_guard():
    rng = np.random.default_rng(1)
    doc = mlp_to_dict(Mlp(MlpSpec((1, 1), (), "identity"), rng=rng))
    doc["version"] = 99
    with pytest.raises(ValueError, match="version"):
        mlp_from_dict(doc)


# -- fused MLP node and flat Adam against their per-layer / per-parameter oracles --

def _tape_forward(net, x):
    """Mlp.forward as one tape node per matmul, bias add and activation: the oracle."""
    h = tape(x)
    tags = net.spec.activations + (net.spec.final_activation,)
    for (w, b), tag in zip(net.layers, tags):
        h = h.matmul(w) + tape(b).reshape(1, -1)
        if tag != "identity":
            h = getattr(h, tag.replace("-", "_"))()
    return h


def _tape_predict(net, x):
    return _tape_forward(net, TapeTensor(np.asarray(x, dtype=np.float64))).data


def _same(a, b):
    """Bit-identical arrays: same shape and the same bytes (so -0.0 != 0.0)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _grads(tensors):
    return [None if t.grad is None else t.grad.copy() for t in tensors]


def _clear(tensors):
    for t in tensors:
        t.grad = None


def _assert_same_grads(fused, oracle):
    assert len(fused) == len(oracle)
    for gf, go in zip(fused, oracle):
        assert (gf is None) == (go is None)
        if gf is not None:
            assert _same(gf, go)


@pytest.mark.parametrize("act", ACTIVATIONS)
@pytest.mark.parametrize("input_grad", [False, True])
def test_fused_forward_equals_tape_oracle(act, input_grad):
    rng = np.random.default_rng(5)
    net = Mlp(MlpSpec((3, 6, 5, 4), (act, act), act), rng=rng)
    for _, b in net.layers:  # non-zero biases, so the bias path is exercised
        b.data = rng.normal(size=b.data.shape)
    x = TapeTensor(rng.normal(size=(7, 3)), requires_grad=input_grad)
    weight = rng.normal(size=(7, 4))
    tensors = net.parameters() + [x]

    results = []
    for forward in (Mlp.forward, _tape_forward):
        out = forward(net, x)
        (out * weight).sum().backward()
        results.append((out.data.copy(), _grads(tensors)))
        _clear(tensors)
    (out_f, grads_f), (out_o, grads_o) = results
    assert _same(out_f, out_o)
    _assert_same_grads(grads_f, grads_o)
    assert (grads_f[-1] is not None) == input_grad
    assert _same(net.predict(x.data), out_f)
    assert _same(net.predict(x.data), _tape_predict(net, x.data))


def test_fused_forward_matches_oracle_with_networks_reused_in_one_graph():
    # the shape of loss_cycle plus the latent MMD term: the inverse map is used
    # three times and the generator twice, one feeding the other
    rng = np.random.default_rng(8)
    gen = Mlp(MlpSpec((2, 8, 8, 3), ("relu", "relu"), "identity"), rng=rng)
    inv = Mlp(MlpSpec((3, 8, 8, 2), ("relu", "relu"), "identity"), rng=rng)
    xt = TapeTensor(rng.normal(size=(16, 3)))
    zt = TapeTensor(rng.normal(size=(16, 2)))
    tensors = gen.parameters() + inv.parameters()

    def loss(forward):
        dx = xt - forward(gen, forward(inv, xt))
        dz = zt - forward(inv, forward(gen, zt))
        enc = forward(inv, xt)
        return ((dx * dx).sum(axis=1).sqrt().mean() + (dz * dz).sum(axis=1).sqrt().mean()
                + (enc * enc).mean())

    results = []
    for forward in (Mlp.forward, _tape_forward):
        value = loss(forward)
        value.backward()
        results.append((value.data.copy(), _grads(tensors)))
        _clear(tensors)
    assert _same(results[0][0], results[1][0])
    _assert_same_grads(results[0][1], results[1][1])


def test_fused_node_is_one_tape_node():
    rng = np.random.default_rng(2)
    net = Mlp(MlpSpec((2, 4, 4, 1), ("tanh", "tanh"), "sigmoid"), rng=rng)
    x = TapeTensor(rng.normal(size=(3, 2)))
    out = net(x)
    assert out._parents == (x, *net.parameters())
    assert all(p._parents == () for p in out._parents)


def _adam_params(rng):
    # two "networks" sharing the middle pair, as opt_main and opt_pred share the inverse map
    return [TapeTensor(rng.normal(size=shape), requires_grad=True)
            for shape in ((3, 4), (4,), (4, 2), (2,), ())]


def test_flat_adam_equals_per_parameter_oracle():
    rng = np.random.default_rng(12)
    fused = _adam_params(np.random.default_rng(4))
    oracle = _adam_params(np.random.default_rng(4))
    opts = []
    for params, cls in ((fused, Adam), (oracle, OracleAdam)):
        opts.append((cls(params[:4], lr=1e-2), cls(params[2:], lr=3e-3, beta1=0.5)))
    for step in range(5):
        for which in (0, 1):
            grads = [rng.normal(size=p.data.shape) for p in fused]
            for params, pair in zip((fused, oracle), opts):
                for i, (p, g) in enumerate(zip(params, grads)):
                    # one parameter has no gradient on alternate steps
                    p.grad = None if (i == 3 and step % 2) else g.copy()
                pair[which].step()
            for pf, po in zip(fused, oracle):
                assert _same(pf.data, po.data)
    assert opts[0][0].t == opts[1][0].t == 5


# gradients of every scale: signed zeros, subnormals, and values whose square
# or first moment overflows
_ADAM_GRADS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
                     1e-160, 1e154, -1e154, 1e308, -1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False))


@given(grads=st.lists(st.lists(_ADAM_GRADS, min_size=27, max_size=27), min_size=1, max_size=4),
       lr=st.sampled_from([1e-4, 1e-3, 0.5]))
def test_flat_adam_bytes_equal_the_oracle_on_extreme_gradients(grads, lr):
    fused = _adam_params(np.random.default_rng(4))
    oracle = _adam_params(np.random.default_rng(4))
    opts = [Adam(fused, lr=lr), OracleAdam(oracle, lr=lr)]
    with np.errstate(all="ignore"):
        for flat in grads:
            flat = np.asarray(flat)
            for params, opt in zip((fused, oracle), opts):
                at = 0
                for p in params:
                    p.grad = flat[at:at + p.data.size].reshape(p.data.shape).copy()
                    at += p.data.size
                opt.step()
            for pf, po in zip(fused, oracle):
                assert _same(pf.data, po.data)


def test_flat_adam_nan_gradient_raises_and_leaves_parameters():
    params = _adam_params(np.random.default_rng(6))
    opt = Adam(params)
    before = [p.data.copy() for p in params]
    for p in params:
        p.grad = np.ones_like(p.data)
    params[2].grad = params[2].grad.copy()
    params[2].grad[1, 0] = np.nan
    with pytest.raises(FloatingPointError, match="non-finite"):
        opt.step()
    assert opt.t == 0
    for p, b in zip(params, before):
        assert _same(p.data, b)


def test_training_with_oracles_writes_the_same_model_bytes(tmp_path, monkeypatch):
    from flowconformal import roundtrip

    rng = np.random.default_rng(21)
    x_pos = rng.normal(size=(160, 3))
    x_neg = rng.normal(loc=3.0, size=(100, 3))
    arch = roundtrip.FlowArchitecture(input_dim=3, latent_dim=2, gen_hidden=(12, 12),
                                      inv_hidden=(12, 12), disc_hidden=(12, 12))
    config = roundtrip.TrainConfig(epochs=2, batch_size=32, seed=7, w_mmd=8.0, w_cycle=0.5)

    def train_and_save(name):
        model, trace = roundtrip.train_class_flow(x_pos, x_neg, 1, arch, config)
        path = tmp_path / name
        roundtrip.save_class_flow(model, str(path))
        return path.read_bytes(), trace.to_dict()

    fused = train_and_save("fused.json")
    monkeypatch.setattr(Mlp, "forward", _tape_forward)
    monkeypatch.setattr(Mlp, "__call__", _tape_forward)
    monkeypatch.setattr(Mlp, "predict", _tape_predict)
    monkeypatch.setattr(roundtrip, "Adam", OracleAdam)
    oracle = train_and_save("oracle.json")
    assert fused == oracle


def test_to_json_float_rows_match_the_general_path():
    row = [0.1, -2.5e-300, 1e21, 3.0, -0.0, 5e-324]
    assert to_json(row) == "[" + ",".join(format(v, ".17g") for v in row) + "]"
    assert to_json([1.5, 2, True, None, np.float64(0.25)]) == "[1.5,2,true,null,0.25]"
    assert to_json([]) == "[]"
    assert to_json((2.0, 3.0)) == "[2,3]"
    for bad in ([1.0, float("nan")], [float("inf")], [1, np.float64(np.inf)]):
        with pytest.raises(ValueError, match="non-finite"):
            to_json(bad)

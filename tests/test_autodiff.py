"""Tape engine: the backward walk of ``Tensor`` and the per-op oracle ops of
``tape_oracle.TapeTensor``, against central finite differences; and the
activation table, byte for byte against its plain-formula oracle."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from conftest import FD_STEP, finite_diff_grad, max_grad_error
from flowconformal.autodiff import ACTIVATION_TABLE, Tensor, as_tensor
from tape_oracle import ORACLE_ACTIVATIONS, TapeTensor


def test_add_mul_scalar_chain():
    x = TapeTensor(np.array(3.0), requires_grad=True)
    y = (x * 2.0 + 1.0) * x  # f = 2x^2 + x, f' = 4x + 1
    y.backward()
    assert y.data == pytest.approx(21.0)
    assert x.grad == pytest.approx(13.0)


def test_grad_of_linear_map_is_input():
    x = np.array([1.5, -2.0, 0.25])
    w = TapeTensor(np.array([0.1, 0.2, 0.3]), requires_grad=True)
    loss = (w * x).sum()
    loss.backward()
    np.testing.assert_allclose(w.grad, x, rtol=0, atol=0)


def test_sigmoid_grad_at_zero_is_quarter_x():
    # loss = sigmoid(w.x) with w.x == 0: d/dw = sigma'(0) * x = 0.25 x
    x = np.array([2.0, -1.0])
    w = TapeTensor(np.array([0.5, 1.0]), requires_grad=True)  # w.x = 1 - 1 = 0
    loss = (w * x).sum().sigmoid()
    loss.backward()
    np.testing.assert_allclose(w.grad, 0.25 * x, rtol=1e-15)


def test_backward_requires_scalar():
    t = TapeTensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        (t * 2.0).backward()


def test_non_finite_data_rejected():
    with pytest.raises(ValueError, match="finite"):
        Tensor(np.array([1.0, np.inf]))
    with pytest.raises(ValueError, match="finite"):
        Tensor(np.array(np.nan))


def test_gradient_accumulates_across_uses():
    x = TapeTensor(np.array(2.0), requires_grad=True)
    y = x * x + x * 3.0  # dy/dx = 2x + 3 = 7
    y.backward()
    assert x.grad == pytest.approx(7.0)


def test_broadcast_add_unbroadcasts_grad():
    a = TapeTensor(np.ones((3, 2)), requires_grad=True)
    b = TapeTensor(np.array([10.0, 20.0]), requires_grad=True)
    ((a + b) * 1.0).sum().backward()
    assert a.grad.shape == (3, 2)
    assert b.grad.shape == (2,)
    np.testing.assert_allclose(b.grad, [3.0, 3.0])


def test_matmul_shapes_and_grad():
    a = TapeTensor(np.arange(6, dtype=float).reshape(2, 3), requires_grad=True)
    b = TapeTensor(np.arange(12, dtype=float).reshape(3, 4), requires_grad=True)
    (a.matmul(b)).sum().backward()
    np.testing.assert_allclose(a.grad, np.ones((2, 4)) @ b.data.T)
    np.testing.assert_allclose(b.grad, a.data.T @ np.ones((2, 4)))
    with pytest.raises(ValueError, match="inner dimensions"):
        a.matmul(TapeTensor(np.ones((2, 2))))
    with pytest.raises(ValueError, match="2-D"):
        TapeTensor(np.ones(3)).matmul(TapeTensor(np.ones((3, 1))))


def test_truediv_by_tensor_rejected():
    a = TapeTensor(np.ones(2))
    with pytest.raises(TypeError):
        a / a


def test_mean_and_sum_axis_grads():
    x = TapeTensor(np.arange(12, dtype=float).reshape(3, 4), requires_grad=True)
    x.sum(axis=1).mean().backward()
    np.testing.assert_allclose(x.grad, np.full((3, 4), 1.0 / 3.0))


def test_sqrt_subgradient_zero_at_zero():
    x = TapeTensor(np.array([0.0, 4.0]), requires_grad=True)
    x.sqrt().sum().backward()
    np.testing.assert_allclose(x.grad, [0.0, 0.25])


def test_log_requires_positive():
    with pytest.raises(ValueError, match="positive"):
        TapeTensor(np.array([1.0, 0.0])).log()


def test_clip_gradient_mask():
    x = TapeTensor(np.array([-2.0, 0.5, 3.0]), requires_grad=True)
    x.clip(0.0, 1.0).sum().backward()
    np.testing.assert_allclose(x.grad, [0.0, 1.0, 0.0])


@pytest.mark.parametrize("op", ["exp", "log", "sqrt", "tanh", "sigmoid",
                                "relu", "leaky_relu"])
def test_pointwise_ops_match_finite_differences(op):
    rng = np.random.default_rng(17)
    base = rng.uniform(0.2, 2.0, size=(3, 2))  # positive domain fits log/sqrt
    t = TapeTensor(base, requires_grad=True)
    getattr(t, op)().sum().backward()

    def f(arr):
        return float(getattr(TapeTensor(arr), op)().sum().data)

    numeric = finite_diff_grad(f, base.copy())
    assert max_grad_error(t.grad, numeric) < 1e-5


def test_pow_matches_finite_differences():
    rng = np.random.default_rng(3)
    base = rng.uniform(0.5, 2.0, size=(4,))
    t = TapeTensor(base, requires_grad=True)
    (t ** 3).sum().backward()
    numeric = finite_diff_grad(lambda a: float((TapeTensor(a) ** 3).sum().data), base.copy())
    assert max_grad_error(t.grad, numeric) < 1e-5


def test_reshape_transpose_roundtrip_grad():
    x = TapeTensor(np.arange(6, dtype=float).reshape(2, 3), requires_grad=True)
    (x.T.reshape(6) * np.arange(6.0)).sum().backward()
    assert x.grad.shape == (2, 3)
    expected = np.arange(6.0).reshape(3, 2).T
    np.testing.assert_allclose(x.grad, expected)


def test_composite_expression_matches_finite_differences():
    rng = np.random.default_rng(11)
    base = rng.normal(size=(4, 3))

    def build(arr):
        t = TapeTensor(arr, requires_grad=True)
        u = (t.tanh() * 2.0 + t.sigmoid()).relu()
        return t, (u * u).sum(axis=1).sqrt().mean()

    t, loss = build(base)
    loss.backward()
    numeric = finite_diff_grad(lambda a: float(build(a)[1].data), base.copy())
    assert max_grad_error(t.grad, numeric) < 1e-5


def test_determinism_bit_identical():
    rng = np.random.default_rng(5)
    base = rng.normal(size=(5, 4))
    outs = []
    for _ in range(2):
        t = TapeTensor(base.copy(), requires_grad=True)
        ((t.sigmoid() * t.tanh()).sum(axis=0) ** 2).sum().backward()
        outs.append(t.grad.copy())
    assert np.array_equal(outs[0], outs[1])


def test_finiteness_on_wide_range():
    grid = np.linspace(-100.0, 100.0, 41).reshape(-1, 1)
    t = TapeTensor(grid, requires_grad=True)
    out = t.sigmoid() + t.tanh() + t.relu() * 1e-2 + t.leaky_relu() * 1e-2
    s = out.sum()
    s.backward()
    assert np.all(np.isfinite(out.data))
    assert np.all(np.isfinite(t.grad))


def test_as_tensor_passthrough_and_wrap():
    t = Tensor(np.array(1.0))
    assert as_tensor(t) is t
    wrapped = as_tensor(2.5)
    assert isinstance(wrapped, Tensor)
    assert wrapped.data == pytest.approx(2.5)
    assert not wrapped.requires_grad


def test_constant_graph_records_nothing():
    a = TapeTensor(np.ones(3))
    out = a * 2.0 + 1.0
    assert not out.requires_grad
    assert out._parents == ()


def test_fd_step_matches_protocol():
    assert FD_STEP == 1e-6


# -- the activation table against its plain-formula oracle ------------------------

# signed zeros (the relu kinks and the sigmoid's branch point), the smallest
# subnormals, the normal/subnormal boundary, the overflow edge of 0.2x and of
# g * y * (1 - y), and +-745, where exp(-|x|) underflows to the last subnormal
_EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e-320, -1e-320, 2.2250738585072014e-308,
          -2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308,
          -1.7976931348623157e308, 745.0, -745.0, 745.2, -745.2, 709.8, -709.8,
          36.8, -36.8, 1.0, -1.0, 0.2, -0.2]
_VALUES = st.one_of(st.sampled_from(_EDGES),
                    st.floats(allow_nan=False, allow_infinity=False))
_BATCHES = arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=12),
                  elements=_VALUES)


def _same(a, b):
    """Same shape, dtype and bytes, so -0.0 differs from 0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("tag", list(ACTIVATION_TABLE))
@given(x=_BATCHES, data=st.data())
def test_activation_bytes_equal_the_oracle(tag, x, data):
    g = data.draw(arrays(np.float64, x.shape, elements=_VALUES), label="g")
    forward, backward = ACTIVATION_TABLE[tag]
    oracle_forward, oracle_backward = ORACLE_ACTIVATIONS[tag]
    with np.errstate(all="ignore"):
        y = oracle_forward(x)
        assert _same(forward(x), y)
        assert _same(backward(g, x, y), oracle_backward(g, x, y))

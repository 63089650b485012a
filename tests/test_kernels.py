"""Gaussian kernel and unbiased squared MMD against brute-force oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from conftest import FD_STEP, finite_diff_grad, max_grad_error
from flowconformal.errors import ConfigError, DataError
from flowconformal.kernels import (
    KernelSpec,
    MEDIAN_HEURISTIC,
    _sq_dists,
    kernel_eval,
    median_bandwidth,
    mmd2_unbiased,
    mmd2_unbiased_graph,
    resolve_bandwidth,
)
from tape_oracle import TapeTensor


def brute_force_mmd2(u, v, bw):
    """Plain-Python triple-sum evaluation of the unbiased estimator."""
    def k(a, b):
        d2 = sum((ai - bi) ** 2 for ai, bi in zip(a, b))
        return math.exp(-d2 / (bw * bw))

    m, n = len(u), len(v)
    t1 = sum(k(u[i], u[j]) for i in range(m) for j in range(m) if i != j)
    t2 = sum(k(v[i], v[j]) for i in range(n) for j in range(n) if i != j)
    t3 = sum(k(u[i], v[j]) for i in range(m) for j in range(n))
    return t1 / (m * (m - 1)) + t2 / (n * (n - 1)) - 2.0 * t3 / (m * n)


def tape_mmd2(u, v, bw):
    """The estimator composed from generic tape ops, as an independent oracle.

    It builds (m, n, d) difference tensors and lets the tape differentiate
    them, so it shares no code with the fused node beyond the Tensor class.
    """
    def gram(a, b):
        m, d = a.shape
        n = b.shape[0]
        diff = a.reshape(m, 1, d) - b.reshape(1, n, d)
        sq = (diff * diff).sum(axis=2)
        return (sq * (-1.0 / (bw * bw))).exp()

    a, b = u, v
    m, n = a.shape[0], b.shape[0]
    term_x = (gram(a, a).sum() - float(m)) * (1.0 / (m * (m - 1)))
    term_y = (gram(b, b).sum() - float(n)) * (1.0 / (n * (n - 1)))
    return term_x + term_y - gram(a, b).sum() * (2.0 / (m * n))


def fused_and_tape(u, v, bw):
    """(value, grad_u, grad_v) from the fused node and from the tape oracle."""
    out = []
    for fn in (lambda a, b: mmd2_unbiased_graph(a, b, KernelSpec(bandwidth=bw)),
               lambda a, b: tape_mmd2(a, b, bw)):
        ut, vt = TapeTensor(u, requires_grad=True), TapeTensor(v, requires_grad=True)
        node = fn(ut, vt)
        node.backward()
        out.append((float(node.data), ut.grad, vt.grad))
    return out


def test_kernel_hand_values():
    spec = KernelSpec(bandwidth=1.0)
    assert kernel_eval(spec, np.array([0.0]), np.array([0.0])) == 1.0
    assert kernel_eval(spec, np.array([0.0]), np.array([1.0])) == pytest.approx(
        math.exp(-1.0), rel=1e-15)


def test_kernel_symmetry_random_pairs():
    rng = np.random.default_rng(4)
    spec = KernelSpec(bandwidth=0.7)
    for _ in range(20):
        u, v = rng.normal(size=3), rng.normal(size=3)
        assert kernel_eval(spec, u, v) == kernel_eval(spec, v, u)


def test_kernel_dimension_mismatch():
    spec = KernelSpec(bandwidth=1.0)
    with pytest.raises(DataError, match="dimension"):
        kernel_eval(spec, np.zeros(2), np.zeros(3))


def test_kernel_spec_validation():
    with pytest.raises(ConfigError):
        KernelSpec()  # neither bandwidth nor rule
    with pytest.raises(ConfigError):
        KernelSpec(bandwidth=0.0)
    with pytest.raises(ConfigError):
        KernelSpec(bandwidth=1.0, bandwidth_rule=MEDIAN_HEURISTIC)
    with pytest.raises(ConfigError):
        KernelSpec(family="laplace", bandwidth=1.0)


def test_median_bandwidth_hand_cases():
    pts = np.array([[0.0], [1.0], [2.0]])
    assert median_bandwidth(pts) == pytest.approx(1.0)
    two = np.array([[0.0], [5.0]])
    assert median_bandwidth(two) == pytest.approx(5.0)


def test_median_bandwidth_mean_fallback():
    # 4 coincident points + 1 apart: 6 of 10 pairwise distances are zero,
    # so the median is zero and the mean (2.8) takes over
    pts = np.array([[0.0], [0.0], [0.0], [0.0], [7.0]])
    dists = [0.0] * 6 + [7.0] * 4
    assert np.median(dists) == 0.0
    assert median_bandwidth(pts) == pytest.approx(float(np.mean(dists)))


def test_median_bandwidth_degenerate_error():
    pts = np.zeros((4, 2))
    with pytest.raises(DataError, match="degenerate sample for bandwidth"):
        median_bandwidth(pts)
    with pytest.raises(DataError):
        median_bandwidth(np.zeros((1, 2)))


def duplicated_rows(rng, copies, scale):
    """``copies`` copies of one random row, the kind the Gram expansion rounds."""
    d = int(rng.integers(1, 9))
    return np.repeat(rng.normal(size=(1, d)) * scale, copies, axis=0)


def test_median_bandwidth_duplicate_rows_are_exact_zeros():
    # the Gram expansion leaves ~1e-12 residue of either sign between
    # duplicated non-zero rows; those pairs must still count as exactly zero.
    # 4 duplicates and one distant row give 6 zero pairs out of 10, so the
    # median is zero and the mean takes over
    pts = np.array([[0.1, 0.7]] * 4 + [[3.3, 1e3]])
    far = math.dist(pts[0], pts[-1])
    assert median_bandwidth(pts) == pytest.approx(4.0 * far / 10.0, rel=1e-12)
    # 3 duplicates and one distant row: 3 zero pairs of 6, median halfway
    assert median_bandwidth(pts[1:]) == pytest.approx(far / 2.0, rel=1e-12)
    rng = np.random.default_rng(18)
    for scale in (0.1, 1.0, 10.0, 1e3):
        for _ in range(25):
            dup = duplicated_rows(rng, 4, scale)
            other = dup[:1] + rng.normal(size=dup[:1].shape) * scale
            far = math.dist(dup[0], other[0])
            assert median_bandwidth(np.vstack([dup, other])) == pytest.approx(
                4.0 * far / 10.0, rel=1e-9)
            with pytest.raises(DataError, match="degenerate sample for bandwidth"):
                median_bandwidth(dup)


def test_median_bandwidth_matches_direct_distances():
    # rows far from the origin: without centring, the expansion would lose
    # ~1e-6 of each squared distance to cancellation at this offset
    rng = np.random.default_rng(17)
    for d in (1, 2, 8):
        x = rng.normal(size=(40, d)) * 3.0 + 1e5
        direct = [math.dist(x[i], x[j]) for i in range(40) for j in range(i + 1, 40)]
        assert median_bandwidth(x) == pytest.approx(float(np.median(direct)), rel=1e-12)


def oracle_median_bandwidth(samples):
    """median_bandwidth as first written: every pair's root, then np.median."""
    x = np.asarray(samples, dtype=np.float64)
    iu = np.triu_indices(x.shape[0], k=1)
    xc = x - x.mean(axis=0)
    sq = _sq_dists(xc, xc.copy())[iu]
    _, key = np.unique(x, axis=0, return_inverse=True)
    key = key.ravel()
    sq[key[iu[0]] == key[iu[1]]] = 0.0
    pair = np.sqrt(sq)
    med = float(np.median(pair))
    if med > 0:
        return med
    mean = float(pair.mean())
    if mean > 0:
        return mean
    raise DataError("degenerate sample for bandwidth: all points identical")


@given(rows=st.integers(2, 40).flatmap(lambda n: arrays(
           np.float64, (n, 2), elements=st.sampled_from([0.0, -0.0, 1.0, 2.5, -3.0, 1e-300]))
       | arrays(np.float64, (n, 3), elements=st.floats(-1e6, 1e6))))
def test_median_bandwidth_bytes_equal_the_oracle(rows):
    # few distinct values give coincident rows, a zero median and the all-equal error
    try:
        expected = oracle_median_bandwidth(rows)
    except DataError:
        with pytest.raises(DataError, match="degenerate"):
            median_bandwidth(rows)
        return
    assert np.float64(median_bandwidth(rows)).tobytes() == np.float64(expected).tobytes()


def test_sq_dists_of_one_operand_equals_two_equal_operands():
    rng = np.random.default_rng(19)
    x = rng.normal(size=(30, 3)) * 7.0
    assert _sq_dists(x, x).tobytes() == _sq_dists(x, x.copy()).tobytes()


def test_resolve_bandwidth_passthrough_and_rule():
    fixed = KernelSpec(bandwidth=2.0)
    assert resolve_bandwidth(fixed, np.zeros((3, 1))).bandwidth == 2.0
    rule = KernelSpec(bandwidth_rule=MEDIAN_HEURISTIC)
    resolved = resolve_bandwidth(rule, np.array([[0.0], [1.0], [2.0]]))
    assert resolved.bandwidth == pytest.approx(1.0)


def test_mmd_identical_singleton_pairs_zero():
    a = np.array([[1.5, -2.0], [1.5, -2.0]])
    est = mmd2_unbiased(a, a.copy(), KernelSpec(bandwidth=1.0))
    assert est.value == pytest.approx(0.0, abs=1e-15)
    assert est.m == est.n == 2


def test_mmd_hand_value_negative():
    u = np.array([[0.0], [1.0]])
    est = mmd2_unbiased(u, u.copy(), KernelSpec(bandwidth=1.0))
    assert est.value == pytest.approx(math.exp(-1.0) - 1.0, rel=1e-14)


def test_mmd_requires_two_points_each_side():
    spec = KernelSpec(bandwidth=1.0)
    with pytest.raises(DataError):
        mmd2_unbiased(np.zeros((1, 1)), np.zeros((5, 1)), spec)
    with pytest.raises(DataError):
        mmd2_unbiased(np.zeros((5, 1)), np.zeros((1, 1)), spec)


def test_mmd_brute_force_oracle_small_instances():
    rng = np.random.default_rng(12)
    spec_pool = [0.5, 1.0, 2.3]
    for _ in range(100):
        m = int(rng.integers(2, 26))
        n = int(rng.integers(2, 26))
        d = int(rng.integers(1, 7))
        u = rng.normal(size=(m, d))
        v = rng.normal(size=(n, d)) + rng.normal()
        bw = float(rng.choice(spec_pool))
        est = mmd2_unbiased(u, v, KernelSpec(bandwidth=bw))
        want = brute_force_mmd2(u.tolist(), v.tolist(), bw)
        assert est.value == pytest.approx(want, abs=1e-12)


def test_mmd_swap_symmetry_exact():
    rng = np.random.default_rng(8)
    spec = KernelSpec(bandwidth=1.3)
    for _ in range(10):
        u = rng.normal(size=(6, 2))
        v = rng.normal(size=(9, 2))
        assert mmd2_unbiased(u, v, spec).value == mmd2_unbiased(v, u, spec).value


def test_mmd_null_unbiasedness():
    rng = np.random.default_rng(99)
    spec = KernelSpec(bandwidth=1.0)
    vals = np.empty(2000)
    for i in range(2000):
        u = rng.normal(size=(20, 1))
        v = rng.normal(size=(20, 1))
        vals[i] = mmd2_unbiased(u, v, spec).value
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(vals.mean()) < 4.0 * se


def test_mmd_separation_signal():
    rng = np.random.default_rng(7)
    spec = KernelSpec(bandwidth=1.0)
    null_vals = np.array([
        mmd2_unbiased(rng.normal(size=(200, 1)), rng.normal(size=(200, 1)), spec).value
        for _ in range(50)
    ])
    null_se = null_vals.std(ddof=1)
    shifted = mmd2_unbiased(rng.normal(size=(200, 1)),
                            rng.normal(size=(200, 1)) + 5.0, spec).value
    assert shifted > 10.0 * null_se


def test_mmd_gradient_matches_finite_differences():
    rng = np.random.default_rng(21)
    u = rng.normal(size=(6, 2))
    v = rng.normal(size=(7, 2)) + 1.0
    spec = KernelSpec(bandwidth=1.4)
    ut = TapeTensor(u, requires_grad=True)
    mmd2_unbiased_graph(ut, v, spec).backward()
    numeric = np.zeros_like(u)
    for i in range(u.shape[0]):
        for j in range(u.shape[1]):
            up, um = u.copy(), u.copy()
            up[i, j] += FD_STEP
            um[i, j] -= FD_STEP
            numeric[i, j] = (mmd2_unbiased(up, v, spec).value
                             - mmd2_unbiased(um, v, spec).value) / (2 * FD_STEP)
    assert max_grad_error(ut.grad, numeric) < 1e-5


def test_numeric_wrapper_equals_graph_path():
    rng = np.random.default_rng(14)
    u = rng.normal(size=(5, 3))
    v = rng.normal(size=(8, 3))
    spec = KernelSpec(bandwidth=0.9)
    graph_val = float(mmd2_unbiased_graph(TapeTensor(u), TapeTensor(v), spec).data)
    assert mmd2_unbiased(u, v, spec).value == graph_val


def test_mmd_unresolved_bandwidth_rejected():
    rule = KernelSpec(bandwidth_rule=MEDIAN_HEURISTIC)
    with pytest.raises(ConfigError, match="resolve"):
        mmd2_unbiased(np.zeros((3, 1)), np.ones((3, 1)), rule)


# -- fused node against the tape oracle ------------------------------------------


@pytest.mark.parametrize("d", [2, 8])
def test_fused_node_matches_tape_oracle_at_batch_size(d):
    rng = np.random.default_rng(40 + d)
    u = rng.normal(size=(128, d))
    v = rng.normal(size=(128, d)) * 1.3 + 0.4
    (val, gu, gv), (want, wu, wv) = fused_and_tape(u, v, bw=1.1)
    assert abs(val - want) <= 1e-12
    assert np.max(np.abs(gu - wu)) <= 1e-12
    assert np.max(np.abs(gv - wv)) <= 1e-12


def test_fused_node_gradients_match_finite_differences_in_both_operands():
    rng = np.random.default_rng(23)
    u = rng.normal(size=(5, 3))
    v = rng.normal(size=(7, 3)) + 0.5
    spec = KernelSpec(bandwidth=1.2)
    ut, vt = TapeTensor(u, requires_grad=True), TapeTensor(v, requires_grad=True)
    mmd2_unbiased_graph(ut, vt, spec).backward()
    num_u = finite_diff_grad(lambda a: mmd2_unbiased(a, v, spec).value, u.copy())
    num_v = finite_diff_grad(lambda b: mmd2_unbiased(u, b, spec).value, v.copy())
    assert max_grad_error(ut.grad, num_u) < 1e-5
    assert max_grad_error(vt.grad, num_v) < 1e-5


def test_fused_node_gradient_when_both_operands_are_one_tensor():
    rng = np.random.default_rng(24)
    u = rng.normal(size=(6, 2))
    spec = KernelSpec(bandwidth=0.8)
    ut = TapeTensor(u, requires_grad=True)
    mmd2_unbiased_graph(ut, ut, spec).backward()
    # d/du of f(u, u) sums both operand slots
    at = TapeTensor(u, requires_grad=True)
    tape_mmd2(at, at, 0.8).backward()
    assert np.max(np.abs(ut.grad - at.grad)) <= 1e-14


def test_fused_node_swap_gives_bit_identical_gradients():
    rng = np.random.default_rng(25)
    spec = KernelSpec(bandwidth=1.3)
    for m, n in [(6, 9), (9, 6), (8, 8)]:
        u = rng.normal(size=(m, 2))
        v = rng.normal(size=(n, 2))
        u1, v1 = TapeTensor(u, requires_grad=True), TapeTensor(v, requires_grad=True)
        u2, v2 = TapeTensor(u, requires_grad=True), TapeTensor(v, requires_grad=True)
        mmd2_unbiased_graph(u1, v1, spec).backward()
        mmd2_unbiased_graph(v2, u2, spec).backward()
        assert np.array_equal(u1.grad, u2.grad)
        assert np.array_equal(v1.grad, v2.grad)


def test_fused_node_centres_far_offset_rows():
    # without centring, ||a||^2 ~ 1e6 and the expansion would lose about 1e-10
    # of every squared distance; with it the brute-force oracle still agrees
    rng = np.random.default_rng(26)
    for _ in range(10):
        u = rng.normal(size=(9, 2)) + 1e3
        v = rng.normal(size=(11, 2)) + 1e3 + 0.5
        est = mmd2_unbiased(u, v, KernelSpec(bandwidth=0.7))
        assert est.value == pytest.approx(brute_force_mmd2(u.tolist(), v.tolist(), 0.7),
                                          abs=1e-12)


def test_fused_node_coincident_rows_stay_finite():
    dup = np.array([[0.1, 0.7]] * 4 + [[3.3, 1e3]])
    other = np.array([[0.1, 0.7]] * 3 + [[3.3, 1e3]])
    spec = KernelSpec(bandwidth=0.5)
    ut, vt = TapeTensor(dup, requires_grad=True), TapeTensor(other, requires_grad=True)
    node = mmd2_unbiased_graph(ut, vt, spec)
    node.backward()
    assert np.isfinite(node.data)
    assert np.all(np.isfinite(ut.grad)) and np.all(np.isfinite(vt.grad))
    want = brute_force_mmd2(dup.tolist(), other.tolist(), 0.5)
    assert float(node.data) == pytest.approx(want, abs=1e-12)
    # the squared distances never go negative, even where duplicated rows
    # cancel to rounding residue of either sign
    rng = np.random.default_rng(27)
    for scale in (1.0, 10.0, 1e3):
        for _ in range(25):
            rows = np.vstack([duplicated_rows(rng, 3, scale)] * 2)
            sq = _sq_dists(rows, rows[::-1])
            assert np.all(sq >= 0.0) and np.all(np.isfinite(sq))
            ut = TapeTensor(rows, requires_grad=True)
            node = mmd2_unbiased_graph(ut, rows[::-1].copy(), KernelSpec(bandwidth=0.1))
            node.backward()
            assert np.isfinite(node.data) and np.all(np.isfinite(ut.grad))


def test_fused_node_drops_the_diagonal_exactly():
    # points spread far beyond the bandwidth: every off-diagonal kernel value
    # underflows to 0, so only the diagonal could contribute, and the
    # U-statistic excludes it. Subtracting m from a diagonal that the Gram
    # expansion rounds below 1 would leave a visible residue here
    rng = np.random.default_rng(28)
    for d in (2, 3, 8):
        u = rng.normal(size=(20, d)) * 1e3
        v = rng.normal(size=(15, d)) * 1e3
        assert mmd2_unbiased(u, v, KernelSpec(bandwidth=1e-2)).value == 0.0

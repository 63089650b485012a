"""Conformal scores, p-values, and predictive sets.

Oracles: hand-counted p-values on tiny pools, the chi-square law of squared
norms under an identity encoder, the exact discrete-uniform law of smoothed
p-values on exchangeable draws, and a closed-form two-sided normal tail rule
that must rank-agree with conformal p-values in one dimension.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from flowconformal.conformal import (
    ConformalConfig,
    ScorePool,
    _p_from_sorted,
    build_score_pool,
    load_p_values,
    load_pools,
    load_sets,
    nonconformity_scores,
    p_value_matrix,
    predictive_set,
    save_p_values,
    save_pools,
    save_sets,
)
from flowconformal.errors import ConfigError, DataError
from flowconformal.evaluation import chi2_moment_check
from flowconformal.nn import Mlp, MlpSpec
from flowconformal.roundtrip import ClassFlowModel
from conformal_oracle import p_value


def make_affine_model(weight, bias, label=1):
    """Model whose encoder is a fixed affine map; other nets are shape fillers."""
    w = np.asarray(weight, dtype=np.float64)
    b = np.asarray(bias, dtype=np.float64)
    p, d = w.shape
    inv = Mlp(MlpSpec((p, d), (), "identity"), layers=[(w, b)])
    gen = Mlp(MlpSpec((d, p), (), "identity"),
              layers=[(np.zeros((d, p)), np.zeros(p))])
    disc = Mlp(MlpSpec((p, 1), (), "sigmoid"),
               layers=[(np.zeros((p, 1)), np.zeros(1))])
    head = Mlp(MlpSpec((d, 1), (), "sigmoid"),
               layers=[(np.zeros((d, 1)), np.zeros(1))])
    return ClassFlowModel(label, gen, inv, disc, head)


def make_identity_model(d, label=1):
    return make_affine_model(np.eye(d), np.zeros(d), label)


# -- scores ----------------------------------------------------------------------

def test_score_is_squared_norm_of_encoding():
    model = make_identity_model(2)
    assert nonconformity_scores(model, np.array([[3.0, 4.0]]))[0] == 25.0


def test_scores_batch_matches_rows():
    model = make_identity_model(2)
    x = np.array([[0.0, 0.0], [1.0, 1.0], [3.0, 4.0]])
    assert np.array_equal(nonconformity_scores(model, x), [0.0, 2.0, 25.0])


def test_score_uses_the_encoder_not_raw_input():
    # halving encoder quarters the score
    model = make_affine_model(np.array([[0.5]]), np.zeros(1))
    assert nonconformity_scores(model, np.array([[4.0]]))[0] == 4.0


def test_build_pool_sorts_scores():
    model = make_identity_model(2)
    x = np.array([[3.0, 4.0], [0.0, 0.0], [1.0, 1.0]])
    pool = build_score_pool(model, x)
    assert pool.class_label == 1
    assert np.array_equal(pool.scores, [0.0, 2.0, 25.0])
    assert pool.size == 3


def test_build_pool_rejects_empty_rows():
    model = make_identity_model(2)
    with pytest.raises(DataError, match="non-empty"):
        build_score_pool(model, np.empty((0, 2)))


def test_score_pool_validation():
    with pytest.raises(ConfigError, match="positive"):
        ScorePool(0, np.array([1.0]))
    with pytest.raises(DataError, match="non-empty"):
        ScorePool(1, np.array([]))
    with pytest.raises(DataError, match="negative"):
        ScorePool(1, np.array([1.0, -0.5]))
    with pytest.raises(DataError, match="non-finite"):
        ScorePool(1, np.array([1.0, np.nan]))


# -- p-values ----------------------------------------------------------------------

POOL_1234 = ScorePool(1, np.array([1.0, 2.0, 3.0, 4.0]))


def test_smoothed_p_value_hand_counts():
    # pool {1,2,3,4}: pi = (1 + #{pool >= t}) / 5
    assert p_value(POOL_1234, 2.5, "smoothed") == 0.6
    assert p_value(POOL_1234, 100.0, "smoothed") == 0.2
    assert p_value(POOL_1234, 0.5, "smoothed") == 1.0
    assert p_value(POOL_1234, 2.0, "smoothed") == 0.8


def test_paper_literal_p_value_hand_counts():
    # pool {1,2,3,4}: pi = #{t >= pool} / 4
    assert p_value(POOL_1234, 100.0, "paper-literal") == 1.0
    assert p_value(POOL_1234, 0.5, "paper-literal") == 0.0
    assert p_value(POOL_1234, 2.0, "paper-literal") == 0.5
    assert p_value(POOL_1234, 2.5, "paper-literal") == 0.5


def test_p_value_mode_validation():
    with pytest.raises(ConfigError, match="p_value_mode"):
        p_value(POOL_1234, 1.0, "bogus")
    with pytest.raises(DataError, match="finite"):
        p_value(POOL_1234, np.nan, "smoothed")


def test_conformal_config_validation():
    cfg = ConformalConfig()
    assert cfg.alpha == 0.05 and cfg.p_value_mode == "smoothed"
    with pytest.raises(ConfigError, match="alpha"):
        ConformalConfig(alpha=0.0)
    with pytest.raises(ConfigError, match="alpha"):
        ConformalConfig(alpha=1.0)
    with pytest.raises(ConfigError, match="p_value_mode"):
        ConformalConfig(p_value_mode="other")


def test_smoothed_p_monotone_nonincreasing_in_score():
    rng = np.random.default_rng(3)
    pool = ScorePool(1, rng.chisquare(3, size=200))
    grid = np.linspace(0.0, 20.0, 250)
    vals = [p_value(pool, t, "smoothed") for t in grid]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_paper_literal_p_monotone_nondecreasing_in_score():
    rng = np.random.default_rng(4)
    pool = ScorePool(1, rng.chisquare(3, size=200))
    grid = np.linspace(0.0, 20.0, 250)
    vals = [p_value(pool, t, "paper-literal") for t in grid]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_p_value_invariant_to_pool_order():
    rng = np.random.default_rng(5)
    scores = rng.chisquare(2, size=50)
    a = ScorePool(1, scores)
    b = ScorePool(1, scores[rng.permutation(50)])
    for t in np.linspace(0.0, 12.0, 40):
        assert p_value(a, t) == p_value(b, t)
        assert p_value(a, t, "paper-literal") == p_value(b, t, "paper-literal")


# scores with frequent exact ties, as a pool of rounded or clamped scores has
score_lists = st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 7.5]) | st.floats(0.0, 50.0),
                       min_size=1, max_size=40)


@given(score_lists, score_lists)
def test_smoothed_p_values_lie_in_half_open_unit_interval(pool, new):
    p = _p_from_sorted(np.sort(pool), np.asarray(new), "smoothed")
    assert np.all(p > 0.0) and np.all(p <= 1.0)


@pytest.mark.parametrize("mode, sign", [("smoothed", -1), ("paper-literal", 1)])
@given(pool=score_lists, new=score_lists)
def test_p_values_are_monotone_in_the_score(mode, sign, pool, new):
    # smoothed p falls as the score grows; paper-literal p rises
    p = _p_from_sorted(np.sort(pool), np.sort(new), mode)
    assert np.all(sign * np.diff(p) >= 0.0)


@given(st.lists(st.sampled_from([0.0, 1.0, 2.0]) | st.floats(0.0, 50.0),
                min_size=2, max_size=40),
       st.floats(0.0, 1.0))
def test_smoothed_p_values_super_uniform_over_rotations(scores, alpha):
    # each of the n + 1 scores in turn is the new one, the other n the pool;
    # under exchangeability each rotation is equally likely, so super-
    # uniformity is: at most floor(alpha (n + 1)) rotations have p <= alpha.
    # The floor is counted as k / (n + 1) <= alpha in the p-values' own
    # float division, so alpha = k / (n + 1) rounds alike on both sides.
    s = np.asarray(scores)
    n1 = s.size
    hits = sum(int(_p_from_sorted(np.sort(np.delete(s, r)), s[r], "smoothed") <= alpha)
               for r in range(n1))
    assert hits <= int(np.sum(np.arange(1.0, n1 + 1.0) / n1 <= alpha))


def test_smoothed_p_values_super_uniform_on_exchangeable_draws():
    # with a fresh pool of 19 per draw, the smoothed p-value is uniform on
    # {1/20, ..., 20/20}, so P(pi <= a) = floor(20 a) / 20 exactly
    rng = np.random.default_rng(11)
    reps, pool_n = 100_000, 19
    x = rng.standard_normal((reps, pool_n + 1)) ** 2
    t = x[:, 0]
    pools = x[:, 1:]
    ge = (pools >= t[:, None]).sum(axis=1)
    pi = (1.0 + ge) / (pool_n + 1.0)
    # the vectorized count must agree with the library on sampled rows
    for i in range(0, reps, 9973):
        lib = p_value(ScorePool(1, pools[i]), float(t[i]), "smoothed")
        assert pi[i] == lib
    for a in (0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99):
        target = np.floor(20.0 * a) / 20.0
        se = np.sqrt(target * (1.0 - target) / reps)
        rate = float(np.mean(pi <= a))
        assert abs(rate - target) <= max(3.0 * se, 1e-12), (a, rate, target)
        assert rate <= a + 3.0 * se


def test_scores_follow_chi_square_under_identity_encoder():
    d, n = 5, 10_000
    rng = np.random.default_rng(19)
    model = make_identity_model(d)
    scores = nonconformity_scores(model, rng.standard_normal((n, d)))
    rep = chi2_moment_check(scores, d, level=0.01)
    assert abs(rep.mean - 5.0) <= 0.15
    assert abs(rep.variance - 10.0) <= 1.0
    assert not rep.ks.reject


def test_conformal_p_ranks_match_two_sided_normal_tail():
    # one class N(mu, sigma^2) with the exact standardizing encoder; conformal
    # p-values must rank-agree with the analytic rule 2 min(Phi(u), 1 - Phi(u))
    scipy_stats = pytest.importorskip("scipy.stats")
    normal_cdf = scipy_stats.norm.cdf
    mu, sigma = 2.0, 1.5
    model = make_affine_model(np.array([[1.0 / sigma]]), np.array([-mu / sigma]))
    rng = np.random.default_rng(23)
    pool = build_score_pool(model, rng.normal(mu, sigma, size=(2000, 1)))
    xs = np.concatenate([
        rng.normal(mu, sigma, size=250),
        np.linspace(mu - 4.0 * sigma, mu + 4.0 * sigma, 250),
    ])
    conf = np.array([p_value(pool, t) for t in nonconformity_scores(model, xs[:, None])])
    u = (xs - mu) / sigma
    analytic = np.array([2.0 * min(normal_cdf(v), 1.0 - normal_cdf(v)) for v in u])
    rho = scipy_stats.spearmanr(conf, analytic).statistic
    assert rho > 0.99


# -- predictive sets ----------------------------------------------------------------

def test_predictive_set_keeps_classes_clearing_alpha():
    member = predictive_set(np.array([[0.9, 0.03, 0.2]]), 0.05)
    assert member.dtype == bool
    assert member.tolist() == [[True, False, True]]


def test_predictive_set_boundary_p_equal_alpha_is_kept():
    assert predictive_set(np.array([[0.05, 0.049]]), 0.05).tolist() == [[True, False]]


def test_tiny_alpha_keeps_every_class():
    assert predictive_set(np.array([[0.9, 0.03, 0.2]]), 1e-9).all()


def test_empty_set_flags_outlier():
    member = predictive_set(np.array([[0.01, 0.02], [0.01, 0.5]]), 0.05)
    assert (~member.any(axis=1)).tolist() == [True, False]


def test_predictive_set_alpha_validation():
    pm = np.array([[0.5]])
    with pytest.raises(ConfigError, match="alpha"):
        predictive_set(pm, 0.0)
    with pytest.raises(ConfigError, match="alpha"):
        predictive_set(pm, 1.0)


p_matrices = arrays(np.float64, st.tuples(st.integers(0, 30), st.integers(1, 5)),
                    elements=st.sampled_from([0.01, 0.04, 0.05, 0.1, 0.3, 1.0])
                    | st.floats(0.0, 1.0))


@given(p_matrices, st.floats(1e-6, 0.999), st.floats(1e-6, 0.999))
def test_flow_sets_are_monotone_in_alpha(pm, a, b):
    lo, hi = min(a, b), max(a, b)
    assert np.all(predictive_set(pm, hi) <= predictive_set(pm, lo))


@given(p_matrices, st.floats(1e-6, 0.999), st.data())
def test_flow_sets_are_invariant_to_row_order(pm, alpha, data):
    perm = np.array(data.draw(st.permutations(range(pm.shape[0]))), dtype=np.int64)
    assert np.array_equal(predictive_set(pm[perm], alpha), predictive_set(pm, alpha)[perm])


def test_p_value_matrix_orders_by_model_and_checks_alignment():
    models = [make_identity_model(1, label=1),
              make_affine_model(np.array([[1.0]]), np.array([-5.0]), label=2)]
    pools = [build_score_pool(models[0], np.linspace(-2, 2, 50).reshape(-1, 1)),
             build_score_pool(models[1], np.linspace(3, 7, 50).reshape(-1, 1))]
    labels, mat = p_value_matrix(models, pools, np.array([[0.0]]))
    assert labels == (1, 2)
    assert mat[0, 0] > mat[0, 1]
    with pytest.raises(ConfigError, match="pool per model"):
        p_value_matrix(models, pools[:1], np.array([[0.0]]))
    with pytest.raises(ConfigError, match="paired with pool"):
        p_value_matrix(models, list(reversed(pools)), np.array([[0.0]]))


def test_p_value_matrix_rows_match_single_sample_path():
    rng = np.random.default_rng(29)
    models = [make_identity_model(2, label=1),
              make_affine_model(np.eye(2) * 0.5, np.zeros(2), label=2)]
    pools = [build_score_pool(m, rng.standard_normal((100, 2))) for m in models]
    x = rng.standard_normal((7, 2))
    labels, mat = p_value_matrix(models, pools, x)
    assert labels == (1, 2) and mat.shape == (7, 2)
    for i in range(7):
        row = [p_value(pool, nonconformity_scores(model, x[i:i + 1])[0])
               for model, pool in zip(models, pools)]
        assert np.array_equal(mat[i], row)


@pytest.mark.parametrize("mode", ["smoothed", "paper-literal"])
def test_p_value_matrix_bit_identical_to_per_row_p_value_with_ties(mode):
    # integer-valued pools and test scores make ties with pool entries common,
    # where the side of the search decides the count
    rng = np.random.default_rng(33)
    models = [make_identity_model(1, label=1), make_affine_model([[2.0]], [0.0], label=2)]
    pools = [ScorePool(1, rng.integers(0, 6, size=40).astype(float)),
             ScorePool(2, np.repeat([0.0, 4.0, 9.0], 5))]
    x = np.sqrt(rng.integers(0, 12, size=(60, 1)).astype(float))
    labels, mat = p_value_matrix(models, pools, x, mode)
    assert labels == (1, 2)
    for j, (model, pool) in enumerate(zip(models, pools)):
        scores = nonconformity_scores(model, x)
        assert np.isin(scores, pool.scores).any()
        want = np.array([p_value(pool, t, mode) for t in scores])
        assert np.array_equal(mat[:, j], want)
        # and both agree with counting the pool directly, row by row
        n = pool.scores.size
        if mode == "smoothed":
            counted = [(1.0 + np.sum(pool.scores >= t)) / (n + 1.0) for t in scores]
        else:
            counted = [np.sum(pool.scores <= t) / n for t in scores]
        assert np.array_equal(mat[:, j], np.array(counted))


def test_p_value_matrix_rejects_non_finite_scores_and_unknown_mode():
    models = [make_identity_model(1)]
    pools = [ScorePool(1, np.arange(5.0))]
    with np.errstate(over="ignore"), pytest.raises(DataError, match="finite"):
        p_value_matrix(models, pools, np.array([[0.5], [1e200]]))  # score overflows
    with pytest.raises(ConfigError, match="p_value_mode"):
        p_value_matrix(models, pools, np.array([[0.5]]), "lower-tail")


# -- CSV round-trips ---------------------------------------------------------------

def test_pool_csv_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(31)
    pools = [ScorePool(1, rng.chisquare(2, size=30)),
             ScorePool(2, rng.chisquare(5, size=20))]
    path = str(tmp_path / "pools.csv")
    save_pools(pools, path)
    loaded = load_pools(path)
    assert [p.class_label for p in loaded] == [1, 2]
    for orig, back in zip(pools, loaded):
        assert np.array_equal(orig.scores, back.scores)


def test_pool_csv_header_and_empty_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("score,class\n1,1\n")
    with pytest.raises(DataError, match="header"):
        load_pools(str(bad))
    empty = tmp_path / "empty.csv"
    empty.write_text("class,score\n")
    with pytest.raises(DataError, match="no score rows"):
        load_pools(str(empty))


def test_p_value_csv_roundtrip_exact(tmp_path):
    mat = np.array([[1.0 / 3.0, 0.2], [0.05, 1.0]])
    path = str(tmp_path / "pv.csv")
    save_p_values(path, (1, 2), mat)
    labels, back = load_p_values(path)
    assert labels == (1, 2)
    assert np.array_equal(back, mat)


@pytest.mark.parametrize("field, shown", [("nan", "nan"), ("7.5", "7.5"), ("-0.25", "-0.25"),
                                          ("inf", "inf"), ("1.0000000000000002",
                                                           "1.0000000000000002")],
                         ids=["nan", "above-one", "negative", "inf", "one-ulp-above-one"])
def test_p_value_csv_rejects_a_value_outside_the_unit_interval(tmp_path, field, shown):
    path = tmp_path / "pv.csv"
    path.write_text(f"sample_id,pi_3,pi_5\n0,0,1\n1,0.5,{field}\n2,{field},0.5\n")
    with pytest.raises(DataError) as exc:
        load_p_values(str(path))
    assert str(exc.value) == (f"{path}: data row 2 holds {shown} in column pi_5; "
                              f"p-values lie in [0, 1]")


@pytest.mark.parametrize("row, message", [
    ("0,1.5", "class_label must be positive, got 0"),
    ("-3,1.5", "class_label must be positive, got -3"),
    ("2,-1.5", "scores are squared norms and cannot be negative"),
    ("2,nan", "score pool contains non-finite values"),
], ids=["label-0", "label-negative", "score-negative", "score-nan"])
def test_pool_csv_names_the_file_of_a_bad_row(tmp_path, row, message):
    path = tmp_path / "pools.csv"
    path.write_text(f"class,score\n1,0.5\n{row}\n")
    with pytest.raises(DataError) as exc:
        load_pools(str(path))
    assert str(exc.value) == f"{path}: {message}"


def test_set_csv_roundtrip_with_outlier_token(tmp_path):
    member = np.array([[True, False, True], [False, False, False], [False, True, False]])
    path = str(tmp_path / "sets.csv")
    save_sets(path, (1, 2, 3), member)
    raw = (tmp_path / "sets.csv").read_text().splitlines()
    assert raw == ["sample_id,in_1,in_2,in_3", "0,1,0,1", "1,0,0,0", "2,0,1,0"]
    labels, back = load_sets(path)
    assert labels == (1, 2, 3)
    assert np.array_equal(back, member)


def test_set_csv_labels_are_the_classes_named(tmp_path):
    # the header names every class in the writer's order, so a class no
    # row's set contains keeps its column
    path = str(tmp_path / "sets.csv")
    member = np.array([[False, False, True], [False, False, False]])
    save_sets(path, (9, 4, 7), member)
    labels, back = load_sets(path)
    assert labels == (9, 4, 7)
    assert np.array_equal(back, member)

"""Coverage, size errors, uniformity checks, and report emission.

Oracles: hand-counted fixtures for every metric, the exact KS distance of the
evenly spaced grid i/(n+1), and the finite-sample coverage guarantee of
conformal sets on exchangeable draws.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from flowconformal.conformal import ScorePool, p_value, predictive_set
from flowconformal.errors import ConfigError, DataError
from flowconformal.evaluation import (
    build_report,
    chi2_moment_check,
    coverage,
    emit_histogram,
    emit_report,
    empirical_type1,
    ks_critical_value,
    ks_statistic,
    ks_uniformity,
    size_error_excess,
    size_error_paper,
)


CLASSES = (1, 2, 3)


def sets_of(*labels_per_point, classes=CLASSES):
    """Membership matrix with one row per point and one column per class."""
    return np.array([[c in labels for c in classes] for labels in labels_per_point],
                    dtype=bool).reshape(len(labels_per_point), len(classes))


# -- coverage and size ----------------------------------------------------------------

def test_coverage_counts_true_class_membership():
    sets = sets_of((1,), (2,), (1, 2))
    assert coverage(sets, [1, 1, 2], CLASSES) == pytest.approx(2.0 / 3.0)
    assert coverage(sets_of((1,), (1, 2)), [1, 2], CLASSES) == 1.0
    assert coverage(sets_of((2,), (1,)), [1, 2], CLASSES) == 0.0


def test_coverage_counts_empty_sets_for_outliers():
    sets = sets_of((), (1,))
    assert coverage(sets, [0, 0], CLASSES) == 0.5


def test_size_error_paper_fixtures():
    # inlier with a pair: |set| = 2
    assert size_error_paper(sets_of((1, 2)), [1]) == 2.0
    # outlier with a singleton: 1 - 1 = 0
    assert size_error_paper(sets_of((3,)), [0]) == 0.0
    # outlier correctly flagged: 0 - 1 = -1
    assert size_error_paper(sets_of(()), [0]) == -1.0


def test_size_error_excess_fixtures():
    # inlier with a triple carries 2 excess classes
    assert size_error_excess(sets_of((1, 2, 3)), [1]) == 2.0
    # outlier with a singleton carries 1; ideal outcomes carry 0
    assert size_error_excess(sets_of((3,)), [0]) == 1.0
    assert size_error_excess(sets_of((1,), ()), [1, 0]) == 0.0


def test_metric_alignment_errors():
    with pytest.raises(DataError, match="sets"):
        coverage(sets_of((1,)), [1, 2], CLASSES)
    with pytest.raises(DataError, match="at least one"):
        coverage(np.zeros((0, 3), dtype=bool), [], CLASSES)
    with pytest.raises(DataError, match="for 3 classes"):
        coverage(np.ones((2, 1), dtype=bool), [1, 2], CLASSES)


# -- KS and type-I ----------------------------------------------------------------------

def test_ks_statistic_of_even_grid_is_one_over_n_plus_one():
    n = 99
    grid = np.arange(1, n + 1) / (n + 1)
    stat = ks_statistic(grid, lambda v: v)
    assert abs(stat - 1.0 / (n + 1)) < 1e-12
    res = ks_uniformity(grid, level=0.01)
    assert not res.reject


def test_ks_statistic_single_point():
    assert ks_statistic(np.array([0.5]), lambda v: v) == 0.5


def test_ks_rejects_a_point_mass():
    res = ks_uniformity(np.full(100, 0.5), level=0.01)
    assert res.statistic == 0.5
    assert res.reject


def test_ks_critical_value_formula():
    # sqrt(-ln(level / 2) / 2) / sqrt(n)
    got = ks_critical_value(100, 0.01)
    assert abs(got - math.sqrt(-math.log(0.005) / 2.0) / 10.0) < 1e-15
    with pytest.raises(ConfigError, match="level"):
        ks_critical_value(100, 0.0)


def test_ks_uniformity_input_validation():
    with pytest.raises(DataError, match="at least 20"):
        ks_uniformity(np.linspace(0.1, 0.9, 19))
    with pytest.raises(DataError, match=r"\[0, 1\]"):
        ks_uniformity(np.linspace(0.0, 1.5, 30))
    with pytest.raises(DataError, match="non-empty"):
        ks_statistic(np.array([]), lambda v: v)


def test_empirical_type1_counts_at_or_below_alpha():
    assert empirical_type1(np.array([0.01, 0.04, 0.05, 0.5]), 0.05) == 0.75
    with pytest.raises(DataError, match="at least one"):
        empirical_type1(np.array([]), 0.05)


def test_chi2_moment_check_accepts_matching_draws():
    rng = np.random.default_rng(7)
    rep = chi2_moment_check(rng.chisquare(3, size=2000), d=3)
    assert abs(rep.mean - 3.0) < 0.25
    assert abs(rep.variance - 6.0) < 1.0
    assert not rep.ks.reject
    assert rep.d == 3


def test_chi2_moment_check_rejects_wrong_distribution():
    rng = np.random.default_rng(8)
    rep = chi2_moment_check(rng.exponential(1.0, size=2000), d=5)
    assert rep.ks.reject


def test_chi2_moment_check_validation():
    with pytest.raises(ConfigError, match="degrees of freedom"):
        chi2_moment_check(np.ones(200), d=0)
    with pytest.raises(DataError, match="at least 100"):
        chi2_moment_check(np.ones(50), d=2)


# -- conformal coverage guarantee ----------------------------------------------------

def test_conformal_sets_meet_coverage_guarantee_on_exchangeable_draws():
    # squared standard-normal draws are exchangeable with the pool, so the
    # smoothed p-value keeps P(true class dropped) <= alpha
    alpha = 0.1
    rng = np.random.default_rng(12)
    pool = ScorePool(1, (rng.standard_normal((500, 2)) ** 2).sum(axis=1))
    t_new = (rng.standard_normal((2000, 2)) ** 2).sum(axis=1)
    sets = predictive_set(np.array([[p_value(pool, t)] for t in t_new]), alpha)
    got = coverage(sets, np.ones(2000, dtype=int), (1,))
    bound = 1.0 - alpha - 3.0 * math.sqrt(alpha * (1.0 - alpha) / 2000.0)
    assert got >= bound


# -- reports and histograms -------------------------------------------------------------

def _report_fixture():
    sets = sets_of((1,), (1, 2), (2,), (), (3,))
    labels = np.array([1, 1, 2, 0, 0])
    pmat = np.array([
        [0.50, 0.01, 0.02],
        [0.30, 0.20, 0.01],
        [0.02, 0.40, 0.03],
        [0.01, 0.02, 0.03],
        [0.02, 0.01, 0.30],
    ])
    return sets, labels, pmat


def test_build_report_schema_and_ranges():
    sets, labels, pmat = _report_fixture()
    rep = build_report(sets, labels, alpha=0.05, class_labels=(1, 2, 3), p_matrix=pmat)
    doc = rep.to_dict()
    assert set(doc) == {"coverage", "size_error_paper", "size_error_excess",
                        "type1_per_class", "outlier_detection_rate", "ks", "counts"}
    assert 0.0 <= doc["coverage"] <= 1.0
    assert doc["coverage"] == coverage(sets, labels, CLASSES)
    assert doc["size_error_paper"] == size_error_paper(sets, labels)
    assert doc["size_error_excess"] == size_error_excess(sets, labels)
    assert doc["outlier_detection_rate"] == 0.5
    assert doc["counts"] == {"n_test": 5, "n_inliers": 3, "n_outliers": 2,
                             "per_class": {"1": 2, "2": 1, "3": 0}}


def test_build_report_type1_from_p_values():
    sets, labels, pmat = _report_fixture()
    rep = build_report(sets, labels, alpha=0.05, class_labels=(1, 2, 3), p_matrix=pmat)
    by_class = {row["class"]: row["rate"] for row in rep.type1_per_class}
    # class 1 rows have own-class p-values 0.50 and 0.30, none <= 0.05
    assert by_class[1] == 0.0
    # the class 2 row has own-class p-value 0.40
    assert by_class[2] == 0.0
    assert 3 not in by_class  # no class-3 test rows
    # ks entries need >= 20 rows per class; this fixture has too few
    assert rep.ks == []


def test_build_report_type1_from_set_membership_without_p_values():
    sets = sets_of((1,), (2,), (1, 2), (2,), classes=(1, 2))
    labels = np.array([1, 1, 2, 2])
    rep = build_report(sets, labels, alpha=0.05, class_labels=(1, 2))
    by_class = {row["class"]: row["rate"] for row in rep.type1_per_class}
    assert by_class[1] == 0.5
    assert by_class[2] == 0.0
    assert rep.outlier_detection_rate is None


def test_build_report_ks_present_with_enough_rows():
    rng = np.random.default_rng(13)
    n = 40
    sets = sets_of(*[(1,)] * n, classes=(1,))
    labels = np.ones(n, dtype=int)
    pmat = rng.uniform(size=(n, 1))
    rep = build_report(sets, labels, alpha=0.05, class_labels=(1,), p_matrix=pmat)
    assert len(rep.ks) == 1
    assert rep.ks[0]["class"] == 1
    assert not rep.ks[0]["reject"]


@st.composite
def _graded_arms(draw):
    """(sets, labels, p-values, class labels) of one arm: outliers (label 0),
    classes with no rows, and classes with the 20 rows a KS check needs."""
    classes = tuple(draw(st.lists(st.integers(1, 9), min_size=1, max_size=4, unique=True)))
    n = draw(st.integers(1, 60))
    labels = np.array(draw(st.lists(st.sampled_from((0,) + classes[:2]), min_size=n,
                                    max_size=n)))
    sets = draw(arrays(np.bool_, (n, len(classes))))
    pmat = draw(arrays(np.float64, (n, len(classes)), elements=st.floats(0, 1)))
    return sets, labels, pmat, classes


@given(_graded_arms(), st.floats(0.01, 0.99), st.data())
def test_build_report_is_independent_of_row_order(arm, alpha, data):
    sets, labels, pmat, classes = arm
    order = np.array(data.draw(st.permutations(range(labels.size))))
    for p_matrix in (pmat, None):
        before = build_report(sets, labels, alpha, classes, p_matrix=p_matrix)
        after = build_report(sets[order], labels[order], alpha, classes,
                             p_matrix=None if p_matrix is None else p_matrix[order])
        assert after.to_dict() == before.to_dict()


def test_build_report_rejects_misshaped_p_matrix():
    sets, labels, pmat = _report_fixture()
    with pytest.raises(DataError, match="shape"):
        build_report(sets, labels, alpha=0.05, class_labels=(1, 2), p_matrix=pmat)


def test_emit_report_writes_expected_json(tmp_path):
    sets, labels, pmat = _report_fixture()
    rep = build_report(sets, labels, alpha=0.05, class_labels=(1, 2, 3), p_matrix=pmat)
    path = tmp_path / "report.json"
    emit_report(rep, str(path))
    text = path.read_text()
    assert json.loads(text) == rep.to_dict()
    # one compact line; each float is its shortest round-trip text, its repr
    assert text.count("\n") == 1 and ", " not in text and ": " not in text
    assert f'"coverage":{rep.coverage!r},' in text
    assert f'"size_error_paper":{rep.size_error_paper!r},' in text


def test_histogram_counts_sum_to_sample_size(tmp_path):
    rng = np.random.default_rng(14)
    pv = rng.uniform(size=137)
    path = tmp_path / "hist.csv"
    emit_histogram(pv, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "bin_left,bin_right,count"
    assert len(lines) == 21
    counts = [int(line.split(",")[2]) for line in lines[1:]]
    assert sum(counts) == 137


def test_histogram_empty_input_gives_zero_counts(tmp_path):
    path = tmp_path / "hist.csv"
    emit_histogram([], str(path))
    lines = path.read_text().splitlines()
    counts = [int(line.split(",")[2]) for line in lines[1:]]
    assert counts == [0] * 20


def test_histogram_is_byte_deterministic(tmp_path):
    pv = np.linspace(0.0, 1.0, 50)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_histogram(pv, str(a))
    emit_histogram(pv, str(b))
    assert a.read_bytes() == b.read_bytes()


def test_histogram_validation(tmp_path):
    with pytest.raises(ConfigError, match="bins"):
        emit_histogram([0.5], str(tmp_path / "h.csv"), bins=0)
    with pytest.raises(DataError, match=r"\[0, 1\]"):
        emit_histogram([1.5], str(tmp_path / "h.csv"))

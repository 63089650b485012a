"""Probability-scaling and cumulative-mass baselines plus the shared classifier.

Oracles: hand-worked set constructions on exact binary-fraction probability
rows, the order statistic defining the calibrated mass threshold, the
finite-sample coverage guarantee of the calibrated baseline, per-row
reference loops that the vectorized membership matrices must match exactly,
and the Tensor-op cross-entropy (``loss_oracle``) that the classifier's fused
loss node must match bit for bit.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from flowconformal import baselines
from flowconformal.autodiff import Tensor
from flowconformal.baselines import (
    ApsCalibration,
    ClassifierConfig,
    aps_calibrate,
    aps_set,
    save_prob_matrix,
    scaling_set,
    train_softmax_classifier,
)
from flowconformal._table import read_matrix
from flowconformal.errors import ConfigError, DataError
from loss_oracle import tape_cross_entropy


# -- scaling sets -----------------------------------------------------------------

def test_scaling_adds_classes_until_mass_reached():
    assert scaling_set(np.array([[0.6, 0.3, 0.1]]), alpha=0.05).tolist() == [[True] * 3]


def test_scaling_stops_at_first_sufficient_class():
    member = scaling_set(np.array([[0.97, 0.02, 0.01]]), alpha=0.05)
    assert member.tolist() == [[True, False, False]]


def test_scaling_alpha_zero_returns_every_class():
    assert scaling_set(np.full((1, 4), 0.25), alpha=0.0).all()


def test_scaling_keeps_every_class_when_rounding_leaves_mass_short():
    probs = np.full((1, 10), 0.1)
    assert np.cumsum(probs)[-1] < 1.0
    assert scaling_set(probs, alpha=0.0).all()


def test_scaling_set_size_monotone_in_alpha():
    probs = np.array([[0.4, 0.3, 0.2, 0.1]])
    sizes = [int(scaling_set(probs, a).sum()) for a in (0.0, 0.1, 0.3, 0.5, 0.7, 0.9)]
    assert all(x >= y for x, y in zip(sizes, sizes[1:]))


def test_scaling_never_empty():
    rng = np.random.default_rng(1)
    raw = rng.uniform(0.05, 1.0, size=(25, 4))
    probs = raw / raw.sum(axis=1, keepdims=True)
    for a in (0.01, 0.5, 0.99):
        assert scaling_set(probs, a).any(axis=1).all()


def test_scaling_ties_break_toward_lower_column():
    probs = np.array([[0.4, 0.4, 0.2]])
    assert scaling_set(probs, alpha=0.5).tolist() == [[True, True, False]]
    assert scaling_set(probs, alpha=0.6).tolist() == [[True, False, False]]


def test_scaling_validation():
    with pytest.raises(ConfigError, match="alpha"):
        scaling_set(np.array([[1.0]]), alpha=1.0)
    with pytest.raises(DataError, match="sums to"):
        scaling_set(np.array([[0.5, 0.4]]), alpha=0.1)
    with pytest.raises(DataError, match=r"\[0, 1\]"):
        scaling_set(np.array([[1.4, -0.4]]), alpha=0.1)
    with pytest.raises(DataError, match="matrix"):
        scaling_set(np.array([0.5, 0.5]), alpha=0.1)


# -- calibrated mass threshold ------------------------------------------------------

def _uniform_rows_with_labels():
    # uniform rows over 4 classes; true labels 1..4 give exact cumulative
    # scores 0.25, 0.5, 0.75, 1.0 (ties order by column index)
    probs = np.full((4, 4), 0.25)
    labels = np.array([1, 2, 3, 4])
    return probs, labels


def test_aps_threshold_is_the_order_statistic():
    probs, labels = _uniform_rows_with_labels()
    # n = 4, alpha = 0.4: k = ceil(5 * 0.6) = 3, third smallest score is 0.75
    cal = aps_calibrate(probs, labels, (1, 2, 3, 4), alpha=0.4)
    assert cal.threshold == 0.75
    assert cal.n_cal == 4
    # alpha = 0.8: k = ceil(5 * 0.2) = 1, smallest score is 0.25
    assert aps_calibrate(probs, labels, (1, 2, 3, 4), alpha=0.8).threshold == 0.25


def test_aps_threshold_clamps_to_one_when_index_exceeds_n():
    probs, labels = _uniform_rows_with_labels()
    # n = 4, alpha = 0.05: k = ceil(5 * 0.95) = 5 > 4, so the threshold is 1
    assert aps_calibrate(probs, labels, (1, 2, 3, 4), alpha=0.05).threshold == 1.0


def test_aps_threshold_with_identical_scores():
    probs = np.tile([0.75, 0.25], (4, 1))
    labels = np.ones(4, dtype=int)
    assert aps_calibrate(probs, labels, (1, 2), alpha=0.4).threshold == 0.75


def test_aps_calibration_validation():
    probs, labels = _uniform_rows_with_labels()
    with pytest.raises(ConfigError, match="alpha"):
        aps_calibrate(probs, labels, (1, 2, 3, 4), alpha=0.0)
    with pytest.raises(DataError, match="aligned"):
        aps_calibrate(probs, labels[:2], (1, 2, 3, 4), alpha=0.1)
    with pytest.raises(DataError, match="columns"):
        aps_calibrate(probs, labels, (1, 2), alpha=0.1)
    with pytest.raises(DataError, match="not among"):
        aps_calibrate(probs, np.array([1, 2, 3, 9]), (1, 2, 3, 4), alpha=0.1)
    with pytest.raises(ConfigError, match="threshold"):
        ApsCalibration(threshold=0.0, n_cal=4, alpha=0.1)
    with pytest.raises(ConfigError, match="n_cal"):
        ApsCalibration(threshold=0.5, n_cal=0, alpha=0.1)


def test_aps_set_accumulates_mass_to_threshold():
    cal = ApsCalibration(threshold=0.75, n_cal=10, alpha=0.1)
    assert aps_set(np.array([[0.5, 0.3, 0.2]]), cal).tolist() == [[True, True, False]]


def test_aps_set_threshold_one_returns_every_class():
    cal = ApsCalibration(threshold=1.0, n_cal=10, alpha=0.1)
    assert aps_set(np.array([[0.5, 0.3, 0.2]]), cal).all()


def test_aps_set_small_threshold_returns_top_singleton():
    cal = ApsCalibration(threshold=0.01, n_cal=10, alpha=0.1)
    assert aps_set(np.array([[0.2, 0.5, 0.3]]), cal).tolist() == [[False, True, False]]


def test_aps_set_never_empty():
    rng = np.random.default_rng(2)
    cal = ApsCalibration(threshold=0.5, n_cal=10, alpha=0.1)
    raw = rng.uniform(0.05, 1.0, size=(25, 3))
    assert aps_set(raw / raw.sum(axis=1, keepdims=True), cal).any(axis=1).all()


# -- vectorized sets against per-row reference loops ---------------------------------

def _oracle_mass_set(row, level):
    """Columns in descending probability (stable) until the running mass reaches level."""
    total = 0.0
    keep = []
    for j in np.argsort(-row, kind="stable"):
        keep.append(j)
        total += row[j]
        if total >= level:
            break
    member = np.zeros(row.size, dtype=bool)
    member[keep] = True
    return member


def _oracle_aps_calibrate(probs, labels, class_labels, alpha):
    scores = []
    for row, label in zip(probs, labels):
        true_col = list(class_labels).index(label)
        csum = 0.0
        for j in np.argsort(-row, kind="stable"):
            csum += row[j]
            if j == true_col:
                break
        scores.append(csum)
    n = len(scores)
    k = int(np.ceil((n + 1) * (1.0 - alpha)))
    return 1.0 if k > n else float(np.sort(scores)[k - 1])


@st.composite
def prob_matrices(draw, max_rows=20, max_cols=6):
    # few distinct weights make tied rows common; normalized rows often sum
    # to a hair below 1, so the last running mass can fall short of 1 - alpha
    shape = draw(st.tuples(st.integers(1, max_rows), st.integers(1, max_cols)))
    raw = draw(arrays(np.float64, shape,
                      elements=st.sampled_from([0.0, 1.0, 2.0, 3.0]) | st.floats(0.01, 10.0)))
    raw[raw.sum(axis=1) == 0, 0] = 1.0
    return raw / raw.sum(axis=1, keepdims=True)


alphas = st.sampled_from([0.0, 0.05, 0.2]) | st.floats(0.0, 0.99)


@given(prob_matrices(), alphas)
def test_scaling_set_equals_per_row_loop(probs, alpha):
    expected = [_oracle_mass_set(row, 1.0 - alpha) for row in probs]
    assert np.array_equal(scaling_set(probs, alpha), expected)


@given(prob_matrices(), st.sampled_from([1.0, 0.5]) | st.floats(1e-9, 1.0))
def test_aps_set_equals_per_row_loop(probs, threshold):
    cal = ApsCalibration(threshold=threshold, n_cal=10, alpha=0.1)
    expected = [_oracle_mass_set(row, threshold) for row in probs]
    assert np.array_equal(aps_set(probs, cal), expected)


@given(prob_matrices(), st.floats(0.01, 0.99), st.data())
def test_aps_calibrate_equals_per_row_loop(probs, alpha, data):
    class_labels = tuple(range(3, 3 + probs.shape[1]))
    labels = data.draw(st.lists(st.sampled_from(class_labels),
                                min_size=probs.shape[0], max_size=probs.shape[0]))
    cal = aps_calibrate(probs, np.array(labels), class_labels, alpha)
    assert cal.threshold == _oracle_aps_calibrate(probs, labels, class_labels, alpha)
    assert cal.n_cal == probs.shape[0]


# -- shared classifier -----------------------------------------------------------------

def _two_class_data(n_per_class, seed):
    rng = np.random.default_rng(seed)
    x = np.vstack([rng.normal(0.0, 1.0, size=(n_per_class, 1)),
                   rng.normal(6.0, 1.0, size=(n_per_class, 1))])
    y = np.concatenate([np.ones(n_per_class, dtype=int),
                        np.full(n_per_class, 2, dtype=int)])
    return x, y


def test_classifier_config_validation():
    with pytest.raises(ConfigError, match=">= 1"):
        ClassifierConfig(epochs=0)
    with pytest.raises(ConfigError, match="lr"):
        ClassifierConfig(lr=0.0)


def test_classifier_separates_distant_classes():
    x, y = _two_class_data(200, seed=3)
    clf = train_softmax_classifier(x, y, ClassifierConfig(epochs=30), seed=4)
    assert clf.class_labels == (1, 2)
    xt, yt = _two_class_data(200, seed=5)
    probs = clf.predict_proba(xt)
    predicted = np.asarray(clf.class_labels)[probs.argmax(axis=1)]
    assert float(np.mean(predicted == yt)) > 0.95


def test_classifier_probability_rows_sum_to_one():
    x, y = _two_class_data(50, seed=6)
    clf = train_softmax_classifier(x, y, ClassifierConfig(epochs=5), seed=7)
    probs = clf.predict_proba(x)
    assert np.all(np.abs(probs.sum(axis=1) - 1.0) < 1e-9)
    assert np.all(probs >= 0.0)


def test_classifier_training_is_deterministic():
    x, y = _two_class_data(50, seed=8)
    a = train_softmax_classifier(x, y, ClassifierConfig(epochs=5), seed=9)
    b = train_softmax_classifier(x, y, ClassifierConfig(epochs=5), seed=9)
    assert np.array_equal(a.predict_proba(x), b.predict_proba(x))


@given(arrays(np.float64, st.tuples(st.integers(1, 9), st.integers(2, 6)),
              elements=st.floats(-30.0, 30.0)), st.data())
def test_fused_cross_entropy_matches_the_tape_graph(logits, data):
    labels = data.draw(arrays(np.int64, logits.shape[0],
                              elements=st.integers(0, logits.shape[1] - 1)))
    onehot = np.eye(logits.shape[1])[labels]
    results = []
    for loss_fn in (baselines._cross_entropy, tape_cross_entropy):
        x = Tensor(logits, requires_grad=True)
        loss = loss_fn(x, onehot)
        loss.backward()
        results.append((np.asarray(loss.data).tobytes(), x.grad.tobytes()))
    assert results[0] == results[1]


@pytest.mark.parametrize("n, dim, classes, config", [
    (300, 2, 3, ClassifierConfig(epochs=4)),
    (90, 16, 9, ClassifierConfig(hidden=(8, 4), epochs=3, batch_size=7)),
])
def test_fused_cross_entropy_trains_the_tape_parameters(n, dim, classes, config):
    rng = np.random.default_rng(dim)
    x, y = rng.normal(size=(n, dim)), rng.integers(1, classes + 1, n)
    fused = train_softmax_classifier(x, y, config, seed=5)
    with mock.patch.object(baselines, "_cross_entropy", tape_cross_entropy):
        tape = train_softmax_classifier(x, y, config, seed=5)
    for a, b in zip(fused.net.parameters(), tape.net.parameters()):
        assert a.data.tobytes() == b.data.tobytes()


def test_classifier_rejects_degenerate_inputs():
    with pytest.raises(DataError, match="aligned"):
        train_softmax_classifier(np.zeros((3, 1)), np.ones(2, dtype=int),
                                 ClassifierConfig(), seed=0)
    with pytest.raises(DataError, match="at least 2 classes"):
        train_softmax_classifier(np.zeros((3, 1)), np.ones(3, dtype=int),
                                 ClassifierConfig(), seed=0)


def test_aps_coverage_meets_finite_sample_guarantee():
    # calibrated threshold gives coverage >= 1 - alpha up to binomial noise
    alpha = 0.1
    x, y = _two_class_data(300, seed=10)
    clf = train_softmax_classifier(x, y, ClassifierConfig(epochs=30), seed=11)
    xc, yc = _two_class_data(500, seed=12)
    cal = aps_calibrate(clf.predict_proba(xc), yc, clf.class_labels, alpha)
    xt, yt = _two_class_data(1000, seed=13)
    probs = clf.predict_proba(xt)
    member = aps_set(probs, cal)
    covered = float(np.mean(member[np.arange(yt.size), yt - 1]))
    assert covered >= 1.0 - alpha - 0.02


# -- CSV round-trip ----------------------------------------------------------------------

def test_prob_matrix_roundtrip_exact(tmp_path):
    mat = np.array([[0.25, 0.75], [1.0 / 3.0, 2.0 / 3.0]])
    path = str(tmp_path / "probs.csv")
    save_prob_matrix(path, (1, 2), mat)
    labels, back = read_matrix(path, "p_")
    assert labels == (1, 2)
    assert np.array_equal(back, mat)


def test_prob_matrix_header_and_shape_validation(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("id,p_1\n0,1.0\n")
    with pytest.raises(DataError, match="header"):
        read_matrix(str(bad), "p_")
    bad.write_text("sample_id,q_1\n0,1.0\n")
    with pytest.raises(DataError, match="column"):
        read_matrix(str(bad), "p_")
    for matrix in (np.zeros((2, 3)), np.zeros(2)):
        with pytest.raises(DataError, match=r"bad.csv: matrix shape \(2,( 3)?\) != \(n, 2\)"):
            save_prob_matrix(str(bad), (1, 2), matrix)

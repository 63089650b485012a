"""Classifier-based predictive-set baselines: probability scaling and APS.

Both consume an (n, L) probability matrix from a shared softmax classifier
and return a boolean (n, L) membership matrix with the same columns.
Scaling adds classes in descending probability until the retained mass
reaches 1 - alpha. APS calibrates a mass threshold on held-out labeled rows:
the calibration score of a row is the cumulative sorted probability through
its true class, the threshold is the ceil((n+1)(1-alpha))-th smallest score
(clamped to 1 when that index exceeds n), and test sets include classes until
the cumulative mass reaches the threshold. Neither baseline can return an
empty set.

``fit_baselines`` fits a run's classifier and APS calibration, for
``evaluate`` and the acceptance checks alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from ._table import FLOAT, write_matrix
from .config import ClassifierConfig
from .datasets import LabeledDataset, sorted_labels, split_stratified
from .errors import ConfigError, DataError
from .nn import Adam, Mlp, MlpSpec

__all__ = [
    "ClassifierConfig",
    "SoftmaxClassifier",
    "train_softmax_classifier",
    "scaling_set",
    "ApsCalibration",
    "aps_calibrate",
    "aps_set",
    "fit_baselines",
    "save_prob_matrix",
]

_PROB_TOL = 1e-9


@dataclass
class SoftmaxClassifier:
    """Logit network plus the class labels its output columns refer to."""

    net: Mlp
    class_labels: tuple[int, ...]

    def __post_init__(self):
        self.class_labels = tuple(int(v) for v in self.class_labels)
        if len(self.class_labels) != self.net.spec.output_dim:
            raise ConfigError("one output column per class label is required")
        if len(set(self.class_labels)) != len(self.class_labels):
            raise ConfigError(f"duplicate class labels {self.class_labels}")

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        logits = self.net.predict(np.asarray(x, dtype=np.float64))
        shifted = logits - logits.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        return e / e.sum(axis=1, keepdims=True)


def train_softmax_classifier(
    features: np.ndarray,
    labels: np.ndarray,
    config: ClassifierConfig,
    seed: int,
) -> SoftmaxClassifier:
    """Cross-entropy training of an MLP over the observed class labels."""
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if x.ndim != 2 or x.shape[0] != y.shape[0] or x.shape[0] == 0:
        raise DataError("features and labels must be non-empty and aligned")
    class_labels = tuple(int(v) for v in sorted_labels(y))
    if len(class_labels) < 2:
        raise DataError(f"need at least 2 classes, got {class_labels}")
    onehot = np.zeros((x.shape[0], len(class_labels)))
    onehot[np.arange(x.shape[0]), np.searchsorted(class_labels, y)] = 1.0

    rng = np.random.default_rng(seed)
    spec = MlpSpec((x.shape[1], *config.hidden, len(class_labels)),
                   ("relu",) * len(config.hidden), "identity")
    net = Mlp(spec, rng=rng)
    opt = Adam(net.parameters(), lr=config.lr)
    n = x.shape[0]
    batch = min(config.batch_size, n)
    steps = max(n // batch, 1)
    for _ in range(config.epochs):
        perm = rng.permutation(n)
        for step in range(steps):
            sel = perm[step * batch:(step + 1) * batch]
            loss = _cross_entropy(net(Tensor(x[sel])), onehot[sel])
            if not np.isfinite(loss.data):
                raise FloatingPointError(f"non-finite classifier loss {float(loss.data)}")
            loss.backward()
            opt.step()
    return SoftmaxClassifier(net, class_labels)


def _cross_entropy(logits: Tensor, onehot: np.ndarray) -> Tensor:
    """Mean cross-entropy of softmax(logits) against the one-hot rows, as one
    tape node. Forward and backward make the numpy calls of the Tensor ops
    ``-((log_softmax(logits) * onehot).sum(axis=1).mean())`` in their order,
    so values and gradients are bit-identical to that graph."""
    centered = logits.data - logits.data.max(axis=1, keepdims=True)
    e = np.exp(centered)
    norm = e.sum(axis=1, keepdims=True)
    log_probs = centered - np.log(norm)
    scale = 1.0 / logits.data.shape[0]
    loss = -((log_probs * onehot).sum(axis=1).sum() * scale)

    def backward(g):
        g_log_probs = np.broadcast_to(-g * scale, logits.data.shape) * onehot
        g_norm = (-g_log_probs).sum(axis=1, keepdims=True) / norm
        logits._accum(g_log_probs + g_norm * e)

    return logits._make(loss, (logits,), backward)


def _check_probs(probs: np.ndarray) -> np.ndarray:
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2:
        raise DataError(f"probabilities must be an (n, L) matrix, got shape {probs.shape}")
    if np.any(probs < -_PROB_TOL) or np.any(probs > 1 + _PROB_TOL):
        raise DataError("probabilities must lie in [0, 1]")
    sums = probs.sum(axis=1)
    off = np.abs(sums - 1.0) > _PROB_TOL
    if off.any():
        raise DataError(f"probability row {int(np.argmax(off))} sums to {sums[off][0]}, expected 1")
    return np.clip(probs, 0.0, 1.0)


def _sorted_mass(probs: np.ndarray):
    """Columns by descending probability (ties toward the lower column) and running mass."""
    order = np.argsort(-probs, axis=1, kind="stable")
    return order, np.cumsum(np.take_along_axis(probs, order, axis=1), axis=1)


def _mass_set(probs: np.ndarray, level: float) -> np.ndarray:
    """Top classes of each row through the first whose running mass reaches ``level``."""
    order, mass = _sorted_mass(_check_probs(probs))
    reached = mass >= level
    keep = np.cumsum(reached, axis=1) - reached == 0
    member = np.zeros(keep.shape, dtype=bool)
    np.put_along_axis(member, order, keep, axis=1)
    return member


def scaling_set(probs: np.ndarray, alpha: float) -> np.ndarray:
    """Top classes until retained probability mass reaches 1 - alpha; never empty."""
    if not 0.0 <= alpha < 1.0:
        raise ConfigError(f"alpha must lie in [0, 1), got {alpha}")
    return _mass_set(probs, 1.0 - alpha)


@dataclass(frozen=True)
class ApsCalibration:
    threshold: float
    n_cal: int
    alpha: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.n_cal < 1:
            raise ConfigError(f"n_cal must be >= 1, got {self.n_cal}")
        if not 0.0 < self.threshold <= 1.0:
            raise ConfigError(f"threshold must lie in (0, 1], got {self.threshold}")


def aps_calibrate(probs: np.ndarray, labels: np.ndarray, class_labels,
                  alpha: float) -> ApsCalibration:
    """Mass threshold from held-out rows' cumulative scores at their true class."""
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must lie in (0, 1), got {alpha}")
    probs = np.asarray(probs, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    class_labels = tuple(int(v) for v in class_labels)
    if probs.ndim != 2 or probs.shape[0] != y.shape[0] or probs.shape[0] == 0:
        raise DataError("calibration probabilities and labels must be non-empty and aligned")
    if probs.shape[1] != len(class_labels):
        raise DataError(f"{probs.shape[1]} columns for {len(class_labels)} labels")
    probs = _check_probs(probs)
    is_true = y[:, None] == np.asarray(class_labels)[None, :]
    unknown = ~is_true.any(axis=1)
    if unknown.any():
        raise DataError(f"calibration label {int(y[unknown][0])} not among {class_labels}")
    order, mass = _sorted_mass(probs)
    true_col = np.argmax(is_true, axis=1)
    scores = mass[np.arange(y.size), np.argmax(order == true_col[:, None], axis=1)]
    n = scores.size
    k = int(np.ceil((n + 1) * (1.0 - alpha)))
    if k > n:
        threshold = 1.0
    else:
        threshold = float(np.sort(scores)[k - 1])
    return ApsCalibration(threshold=threshold, n_cal=n, alpha=alpha)


def aps_set(probs: np.ndarray, cal: ApsCalibration) -> np.ndarray:
    """Top classes until cumulative mass reaches the calibrated threshold."""
    return _mass_set(probs, cal.threshold)


def fit_baselines(train: LabeledDataset, calib: LabeledDataset, config: ClassifierConfig,
                  calibration_fraction: float, alpha: float, seed: int):
    """(classifier, APS calibration at ``alpha``) of a run seeded with ``seed``.

    Without calibration rows, ``calibration_fraction`` of each class's
    training rows calibrate APS; a class left no row on one side is a
    ConfigError. The training rows go before the calibration rows are
    scored, when the caller passed the only reference to them.
    """
    if calib.n == 0:
        classes = train.class_labels()
        train, calib = split_stratified(train, calibration_fraction, seed + 60_000)
        for label in classes:
            sides = [int(np.count_nonzero(part.labels == label)) for part in (train, calib)]
            if 0 in sides:
                raise ConfigError(f"baselines.calibration_fraction {calibration_fraction} leaves "
                                  f"class {label} ({sum(sides)} training rows) {sides[0]} rows "
                                  f"to train the classifier and {sides[1]} to calibrate APS")
    clf = train_softmax_classifier(train.features, train.labels, config, seed=seed + 70_000)
    del train
    return clf, aps_calibrate(clf.predict_proba(calib.features), calib.labels,
                              clf.class_labels, alpha)


# -- CSV round-trip ---------------------------------------------------------------

def save_prob_matrix(path: str, class_labels, matrix: np.ndarray) -> None:
    write_matrix(path, "p_", class_labels, np.asarray(matrix, dtype=np.float64), FLOAT)

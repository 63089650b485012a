"""Conformal scores, p-values, and predictive sets on top of class models.

The non-conformity score of a row is the squared Euclidean norm of its latent
encoding; when encodings match the standard-normal reference the scores are
asymptotically chi-square with latent-dim degrees of freedom. Score pools are
built from each class's own training rows. Two p-value modes are provided:

- "smoothed" (default): pi = (1 + #{pool >= t}) / (pool size + 1), upper-tail
  with add-one smoothing, values in (0, 1];
- "paper-literal": pi = #{t >= pool} / pool size, the lower-tail count, which
  can reach 0 and rejects small scores instead of large ones.

A test row's predictive set collects every class whose p-value is at least
alpha; an empty set flags the row as an outlier. Over n rows and L classes the
sets form one boolean (n, L) membership matrix whose columns follow the class
labels of the p-value matrix; its file has one 0/1 ``in_<label>`` column per
class, as the p-value file has one ``pi_<label>`` column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._table import FLOAT, read_matrix, read_table, write_matrix, write_table
from .config import P_VALUE_MODES, ConformalConfig
from .datasets import sorted_labels
from .errors import ConfigError, DataError
from .roundtrip import ClassFlowModel, SavedClassFlow, encode

__all__ = [
    "P_VALUE_MODES",
    "ConformalConfig",
    "ScorePool",
    "nonconformity_scores",
    "build_score_pool",
    "p_value",
    "p_value_matrix",
    "predictive_set",
    "save_pools",
    "load_pools",
    "save_p_values",
    "load_p_values",
    "save_sets",
    "load_sets",
]


def nonconformity_scores(model: ClassFlowModel | SavedClassFlow, x: np.ndarray) -> np.ndarray:
    """Squared norms of the latent encodings of the rows of ``x``."""
    z = encode(model, x)
    return (z * z).sum(axis=1)


@dataclass(frozen=True)
class ScorePool:
    """Sorted reference scores for one class."""

    class_label: int
    scores: np.ndarray

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=np.float64)
        if self.class_label <= 0:
            raise ConfigError(f"class_label must be positive, got {self.class_label}")
        if scores.ndim != 1 or scores.size == 0:
            raise DataError("score pool must be a non-empty 1-D array")
        if not np.all(np.isfinite(scores)):
            raise DataError("score pool contains non-finite values")
        if np.any(scores < 0):
            raise DataError("scores are squared norms and cannot be negative")
        object.__setattr__(self, "scores", np.sort(scores))

    @property
    def size(self) -> int:
        return int(self.scores.size)


def build_score_pool(model: ClassFlowModel | SavedClassFlow, x_rows: np.ndarray) -> ScorePool:
    """Pool of scores of a class's own training rows under its model."""
    x_rows = np.asarray(x_rows, dtype=np.float64)
    if x_rows.ndim != 2 or x_rows.shape[0] == 0:
        raise DataError("pool construction needs a non-empty 2-D row array")
    return ScorePool(model.class_label, nonconformity_scores(model, x_rows))


def _p_from_sorted(scores: np.ndarray, t_new: np.ndarray, mode: str) -> np.ndarray:
    """P-values of every entry of ``t_new`` against the sorted pool ``scores``."""
    t_new = np.asarray(t_new)
    if not np.isfinite(t_new).all():
        raise DataError(f"score must be finite, got {t_new[~np.isfinite(t_new)][0]}")
    n = scores.size
    if mode == "smoothed":
        ge = n - np.searchsorted(scores, t_new, side="left")
        return (1.0 + ge) / (n + 1.0)
    if mode == "paper-literal":
        return np.searchsorted(scores, t_new, side="right") / n
    raise ConfigError(f"p_value_mode must be one of {P_VALUE_MODES}, got {mode!r}")


def p_value(pool: ScorePool, t_new: float, mode: str = "smoothed") -> float:
    """Conformal p-value of a new score against a class pool."""
    return float(_p_from_sorted(pool.scores, np.float64(t_new), mode))


def _check_aligned(models, pools) -> None:
    if len(models) != len(pools) or not models:
        raise ConfigError("need one pool per model, at least one of each")
    for model, pool in zip(models, pools):
        if model.class_label != pool.class_label:
            raise ConfigError(
                f"model for class {model.class_label} paired with pool for class "
                f"{pool.class_label}"
            )


def p_value_matrix(models, pools, x: np.ndarray, mode: str = "smoothed"):
    """(n, L) matrix of p-values for many rows; returns (labels, matrix)."""
    _check_aligned(models, pools)
    x = np.asarray(x, dtype=np.float64)
    cols = [_p_from_sorted(pool.scores, nonconformity_scores(model, x), mode)
            for model, pool in zip(models, pools)]
    labels = tuple(m.class_label for m in models)
    return labels, np.asarray(cols, dtype=np.float64).T


def predictive_set(p_matrix: np.ndarray, alpha: float) -> np.ndarray:
    """Boolean (n, L) membership {class : pi_class >= alpha}; an all-False row is an outlier."""
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must lie in (0, 1), got {alpha}")
    return np.asarray(p_matrix, dtype=np.float64) >= alpha


# -- CSV round-trips ---------------------------------------------------------------

def save_pools(pools, path: str) -> None:
    write_table(path, ("class", "score"),
                [np.concatenate([np.full(p.size, p.class_label) for p in pools]),
                 np.concatenate([p.scores for p in pools])], ("%d", FLOAT))


def load_pools(path: str) -> list[ScorePool]:
    _, (classes, scores) = read_table(path, ("class", "score"), (int, float))
    if not classes.size:
        raise DataError(f"{path}: no score rows")
    try:
        return [ScorePool(int(label), scores[classes == label])
                for label in sorted_labels(classes)]
    except (ConfigError, DataError) as exc:
        raise DataError(f"{path}: {exc}") from None


def save_p_values(path: str, labels, matrix: np.ndarray) -> None:
    write_matrix(path, "pi_", labels, np.asarray(matrix, dtype=np.float64), FLOAT)


def load_p_values(path: str):
    """Returns (labels, matrix); a value outside [0, 1], NaN included, raises
    a DataError naming the file, its data row and its column."""
    labels, matrix = read_matrix(path, "pi_")
    bad = ~((matrix >= 0.0) & (matrix <= 1.0))
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise DataError(f"{path}: data row {i + 1} holds {float(matrix[i, j])!r} in column "
                        f"pi_{labels[j]}; p-values lie in [0, 1]")
    return labels, matrix


def save_sets(path: str, labels, member: np.ndarray) -> None:
    """One row per membership row: 1 in the ``in_<label>`` column of each
    class of its set, else 0; an all-zero row is an outlier."""
    # a uint8 view formats about a third faster than the bools themselves
    write_matrix(path, "in_", labels, np.asarray(member, dtype=bool).view(np.uint8), "%d")


def load_sets(path: str):
    """Returns (labels, membership); labels are the header's classes, in order."""
    labels, fields = read_matrix(path, "in_")
    bad = (fields != 0) & (fields != 1)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise DataError(f"{path}: data row {i + 1} holds {fields[i, j]:g} in column "
                        f"in_{labels[j]}; expected 0 or 1")
    return labels, fields == 1

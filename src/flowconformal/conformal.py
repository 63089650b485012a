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
labels of the p-value matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._table import FLOAT, read_table, write_table
from .datasets import sorted_labels
from .errors import ConfigError, DataError
from .roundtrip import ClassFlowModel, encode

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
    "load_set_matrix",
]

P_VALUE_MODES = ("smoothed", "paper-literal")

OUTLIER_TOKEN = "OUTLIER"


@dataclass(frozen=True)
class ConformalConfig:
    alpha: float = 0.05
    p_value_mode: str = "smoothed"

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.p_value_mode not in P_VALUE_MODES:
            raise ConfigError(
                f"p_value_mode must be one of {P_VALUE_MODES}, got {self.p_value_mode!r}"
            )


def nonconformity_scores(model: ClassFlowModel, x: np.ndarray) -> np.ndarray:
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


def build_score_pool(model: ClassFlowModel, x_rows: np.ndarray) -> ScorePool:
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
    return [ScorePool(int(label), scores[classes == label]) for label in sorted_labels(classes)]


def save_p_values(path: str, labels, matrix: np.ndarray) -> None:
    matrix = np.asarray(matrix, dtype=np.float64)
    labels = [int(v) for v in labels]
    if matrix.ndim != 2 or matrix.shape[1] != len(labels):
        raise DataError(f"p-value matrix shape {matrix.shape} != (n, {len(labels)})")
    write_table(path, ["sample_id", *(f"pi_{v}" for v in labels)],
                [np.arange(matrix.shape[0]), *matrix.T], ["%d"] + [FLOAT] * len(labels))


def load_p_values(path: str):
    """Returns (labels, sample_ids, matrix)."""
    labels, (ids, matrix) = read_table(path, ("sample_id",), (int,), prefix="pi_")
    return labels, ids, matrix


def save_sets(path: str, labels, member: np.ndarray) -> None:
    """One row per membership row: its labels joined by '|', or OUTLIER when empty."""
    labels = np.asarray(labels, dtype=np.int64)
    member = np.asarray(member, dtype=bool)
    if member.ndim != 2 or member.shape[1] != labels.size:
        raise DataError(f"membership shape {member.shape} != (n, {labels.size})")
    # one void value per row of packed bits, so the distinct rows come from a flat sort
    packed = np.ascontiguousarray(np.packbits(member, axis=1))
    codes = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first, row_of = np.unique(codes, return_index=True, return_inverse=True)
    tokens = ["|".join(map(str, labels[member[i]].tolist())) or OUTLIER_TOKEN for i in first]
    write_table(path, ("sample_id", "set"),
                [np.arange(member.shape[0]), np.asarray(tokens, dtype=object)[row_of]],
                ("%d", "%s"))


def _set_token(token: str) -> str:
    if token == OUTLIER_TOKEN:
        return token
    if not token:
        raise ValueError(f"empty set field; expected {OUTLIER_TOKEN}")
    labels = [int(v) for v in token.split("|")]
    if min(labels) <= 0 or len(set(labels)) != len(labels):
        raise ValueError(f"set {token!r} needs distinct positive class labels")
    return token


def load_sets(path: str):
    """Returns (labels, sample_ids, membership); labels are every class named, ascending."""
    _, (ids, tokens) = read_table(path, ("sample_id", "set"), (int, _set_token))
    distinct, row_of = np.unique(np.asarray(tokens, dtype=str), return_inverse=True)
    named = [set() if t == OUTLIER_TOKEN else {int(v) for v in t.split("|")} for t in distinct]
    labels = tuple(sorted(set().union(*named)))
    table = np.asarray([[v in s for v in labels] for s in named], dtype=bool)
    return labels, ids, table.reshape(len(named), len(labels))[row_of]


def load_set_matrix(path: str, labels) -> np.ndarray:
    """The sets at ``path`` as an (n, len(labels)) membership matrix whose
    columns follow ``labels``; a set naming a class outside them is an error."""
    labels = [int(v) for v in labels]
    named, _, member = load_sets(path)
    if not set(named) <= set(labels):
        raise DataError(f"{path} names classes outside {tuple(labels)}")
    sets = np.zeros((member.shape[0], len(labels)), dtype=bool)
    sets[:, [labels.index(v) for v in named]] = member
    return sets

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
alpha; an empty set flags the row as an outlier.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .roundtrip import ClassFlowModel, encode

__all__ = [
    "P_VALUE_MODES",
    "ConformalConfig",
    "ScorePool",
    "PValueVector",
    "PredictiveSet",
    "nonconformity_scores",
    "nonconformity_score",
    "build_score_pool",
    "p_value",
    "p_values_all",
    "p_value_matrix",
    "predictive_set",
    "is_outlier",
    "save_pools",
    "load_pools",
    "save_p_values",
    "load_p_values",
    "save_sets",
    "load_sets",
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


def nonconformity_score(model: ClassFlowModel, x_row: np.ndarray) -> float:
    x_row = np.asarray(x_row, dtype=np.float64).ravel()
    return float(nonconformity_scores(model, x_row[None, :])[0])


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


@dataclass(frozen=True)
class PValueVector:
    """Per-class p-values for one sample, aligned with ``labels``."""

    labels: tuple[int, ...]
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        labels = tuple(int(v) for v in self.labels)
        if len(labels) != values.size or values.ndim != 1 or not labels:
            raise DataError("labels and values must align and be non-empty")
        if len(set(labels)) != len(labels):
            raise DataError(f"duplicate class labels {labels}")
        if not np.all((values >= 0) & (values <= 1)):
            raise DataError("p-values must lie in [0, 1]")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "values", values)

    def value_for(self, label: int) -> float:
        try:
            return float(self.values[self.labels.index(label)])
        except ValueError:
            raise KeyError(f"no p-value for class {label}") from None


@dataclass(frozen=True)
class PredictiveSet:
    """Classes whose p-value clears alpha; empty means outlier."""

    labels: tuple[int, ...]

    def __post_init__(self):
        labels = tuple(sorted(int(v) for v in self.labels))
        if len(set(labels)) != len(labels):
            raise DataError(f"duplicate labels in predictive set {labels}")
        if any(v <= 0 for v in labels):
            raise DataError("predictive sets contain positive class labels only")
        object.__setattr__(self, "labels", labels)

    @property
    def is_outlier(self) -> bool:
        return not self.labels

    @property
    def size(self) -> int:
        return len(self.labels)

    def __contains__(self, label: int) -> bool:
        return int(label) in self.labels


def _check_aligned(models, pools) -> None:
    if len(models) != len(pools) or not models:
        raise ConfigError("need one pool per model, at least one of each")
    for model, pool in zip(models, pools):
        if model.class_label != pool.class_label:
            raise ConfigError(
                f"model for class {model.class_label} paired with pool for class "
                f"{pool.class_label}"
            )


def p_values_all(models, pools, x_row: np.ndarray, mode: str = "smoothed") -> PValueVector:
    """P-values of one sample against every class, in the given class order."""
    _check_aligned(models, pools)
    x_row = np.asarray(x_row, dtype=np.float64).ravel()
    values = [
        p_value(pool, nonconformity_score(model, x_row), mode)
        for model, pool in zip(models, pools)
    ]
    return PValueVector(tuple(m.class_label for m in models), np.asarray(values))


def p_value_matrix(models, pools, x: np.ndarray, mode: str = "smoothed"):
    """(n, L) matrix of p-values for many rows; returns (labels, matrix)."""
    _check_aligned(models, pools)
    x = np.asarray(x, dtype=np.float64)
    cols = [_p_from_sorted(pool.scores, nonconformity_scores(model, x), mode)
            for model, pool in zip(models, pools)]
    labels = tuple(m.class_label for m in models)
    return labels, np.asarray(cols, dtype=np.float64).T


def predictive_set(pv: PValueVector, alpha: float) -> PredictiveSet:
    """{class : pi_class >= alpha}; empty set flags an outlier."""
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must lie in (0, 1), got {alpha}")
    keep = [label for label, v in zip(pv.labels, pv.values) if v >= alpha]
    return PredictiveSet(tuple(keep))


def is_outlier(ps: PredictiveSet) -> bool:
    """True iff the predictive set is empty."""
    return ps.is_outlier


# -- CSV round-trips ---------------------------------------------------------------

def save_pools(pools, path: str) -> None:
    lines = ["class,score"]
    for pool in pools:
        for s in pool.scores:
            lines.append(f"{pool.class_label},{format(s, '.17g')}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_pools(path: str) -> list[ScorePool]:
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "class,score":
            raise DataError(f"{path}: expected header 'class,score', got {header!r}")
        by_class: dict[int, list[float]] = {}
        for ln, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise DataError(f"{path}:{ln}: expected 2 fields, got {len(parts)}")
            try:
                by_class.setdefault(int(parts[0]), []).append(float(parts[1]))
            except ValueError as exc:
                raise DataError(f"{path}:{ln}: {exc}") from exc
    if not by_class:
        raise DataError(f"{path}: no score rows")
    return [ScorePool(label, np.asarray(by_class[label]))
            for label in sorted(by_class)]


def save_p_values(path: str, labels, matrix: np.ndarray, sample_ids=None) -> None:
    matrix = np.asarray(matrix, dtype=np.float64)
    labels = [int(v) for v in labels]
    if matrix.ndim != 2 or matrix.shape[1] != len(labels):
        raise DataError(f"p-value matrix shape {matrix.shape} != (n, {len(labels)})")
    if sample_ids is None:
        sample_ids = range(matrix.shape[0])
    cols = ",".join(f"pi_{v}" for v in labels)
    lines = [f"sample_id,{cols}"]
    for sid, row in zip(sample_ids, matrix):
        vals = ",".join(format(v, ".17g") for v in row)
        lines.append(f"{int(sid)},{vals}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_p_values(path: str):
    """Returns (labels, sample_ids, matrix)."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if not header or header[0] != "sample_id" or len(header) < 2:
            raise DataError(f"{path}: malformed p-value header {header!r}")
        labels = []
        for col in header[1:]:
            if not col.startswith("pi_"):
                raise DataError(f"{path}: malformed p-value column {col!r}")
            labels.append(int(col[3:]))
        ids = []
        rows = []
        for ln, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != len(header):
                raise DataError(f"{path}:{ln}: expected {len(header)} fields")
            ids.append(int(parts[0]))
            rows.append([float(v) for v in parts[1:]])
    return tuple(labels), np.asarray(ids, dtype=np.int64), np.asarray(rows, dtype=np.float64)


def save_sets(path: str, sets, sample_ids=None) -> None:
    if sample_ids is None:
        sample_ids = range(len(sets))
    lines = ["sample_id,set"]
    for sid, ps in zip(sample_ids, sets):
        token = OUTLIER_TOKEN if ps.is_outlier else "|".join(str(v) for v in ps.labels)
        lines.append(f"{int(sid)},{token}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_sets(path: str):
    """Returns (sample_ids, list of PredictiveSet)."""
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "sample_id,set":
            raise DataError(f"{path}: expected header 'sample_id,set', got {header!r}")
        ids = []
        sets = []
        for ln, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            sid, _, token = line.partition(",")
            ids.append(int(sid))
            if token == OUTLIER_TOKEN:
                sets.append(PredictiveSet(()))
            elif token:
                sets.append(PredictiveSet(tuple(int(v) for v in token.split("|"))))
            else:
                raise DataError(f"{path}:{ln}: empty set field; expected {OUTLIER_TOKEN}")
    return np.asarray(ids, dtype=np.int64), sets

"""Evaluation metrics: coverage, size errors, p-value uniformity, chi-square
moment checks, and report/histogram/comparison emission.

Predictive sets arrive as a boolean (n, L) membership matrix whose columns
follow the class labels. Coverage counts a test point as covered when its
true class is in the predictive set (inliers) or the set is empty
(outliers). Two size-error conventions are reported: ``size_error_paper``
is the literal mean of |set| - 1{outlier} (which scores 1, not 0, for ideal
singleton inlier sets and can go negative on outliers), and
``size_error_excess`` charges |set| - 1 on inliers and |set| on outliers so
the ideal value is 0.

Every method is graded from its sets alone, by the rule that built them: a
class's type-I rate is the share of its own test rows whose set lacks it.
P-values, when given, feed only the KS uniformity check.

``grade_arm`` holds the list of methods, for ``evaluate`` and the acceptance
checks alike: it builds and grades each method's sets on one test arm.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from ._table import FLOAT, write_json, write_table
from .conformal import predictive_set
from .datasets import OUTLIER
from .errors import ConfigError, DataError
from .special import chi2_cdf

__all__ = [
    "coverage",
    "size_error_paper",
    "size_error_excess",
    "KsResult",
    "ks_statistic",
    "ks_critical_value",
    "ks_uniformity",
    "Chi2MomentReport",
    "chi2_moment_check",
    "EvalReport",
    "build_report",
    "grade_arm",
    "emit_report",
    "emit_histogram",
    "emit_comparison",
]


def _check_aligned(sets, labels):
    sets = np.asarray(sets, dtype=bool)
    labels = np.asarray(labels, dtype=np.int64)
    if sets.ndim != 2 or labels.ndim != 1 or sets.shape[0] != labels.shape[0]:
        raise DataError(
            f"predictive sets of shape {sets.shape} do not align with {labels.shape[0]} labels"
        )
    if labels.shape[0] == 0:
        raise DataError("need at least one test point")
    return sets, labels


def coverage(sets, labels, class_labels) -> float:
    """Mean of [inlier and label in set] + [outlier and empty set]; the
    columns of ``sets`` follow ``class_labels``."""
    sets, labels = _check_aligned(sets, labels)
    class_labels = np.asarray(class_labels, dtype=np.int64)
    if class_labels.ndim != 1 or sets.shape[1] != class_labels.size:
        raise DataError(f"predictive sets of shape {sets.shape} for {class_labels.size} classes")
    own = labels[:, None] == class_labels[None, :]
    hits = np.where(labels == OUTLIER, ~sets.any(axis=1), (sets & own).any(axis=1))
    return int(hits.sum()) / labels.shape[0]


def size_error_paper(sets, labels) -> float:
    """Literal mean of |set| - 1{outlier}; may be negative."""
    sets, labels = _check_aligned(sets, labels)
    return int((sets.sum(axis=1) - (labels == OUTLIER)).sum()) / labels.shape[0]


def size_error_excess(sets, labels) -> float:
    """Mean of |set| - 1 on inliers and |set| on outliers; 0 is ideal."""
    sets, labels = _check_aligned(sets, labels)
    return int((sets.sum(axis=1) - (labels != OUTLIER)).sum()) / labels.shape[0]


# -- uniformity and distributional checks ---------------------------------------

@dataclass(frozen=True)
class KsResult:
    statistic: float
    n: int
    level: float
    critical_value: float
    reject: bool


def ks_statistic(sample: np.ndarray, cdf) -> float:
    """Two-sided Kolmogorov-Smirnov distance between a sample and a CDF.

    ``cdf`` maps the sorted sample, as one array, to its CDF values.
    """
    x = np.sort(np.asarray(sample, dtype=np.float64))
    n = x.size
    if n == 0:
        raise DataError("KS statistic needs a non-empty sample")
    f = np.asarray(cdf(x), dtype=np.float64)
    upper = np.arange(1, n + 1) / n - f
    lower = f - np.arange(0, n) / n
    return float(max(upper.max(), lower.max()))


def ks_critical_value(n: int, level: float) -> float:
    """Asymptotic two-sided critical value c(level)/sqrt(n)."""
    if not 0.0 < level < 1.0:
        raise ConfigError(f"level must lie in (0, 1), got {level}")
    return math.sqrt(-math.log(level / 2.0) / 2.0) / math.sqrt(n)


def ks_uniformity(p_values: np.ndarray, level: float = 0.01) -> KsResult:
    """KS test of p-values against Uniform(0, 1)."""
    x = np.asarray(p_values, dtype=np.float64)
    if x.ndim != 1 or x.size < 20:
        raise DataError(f"uniformity test needs at least 20 p-values, got {x.size}")
    if np.any((x < 0) | (x > 1)):
        raise DataError("p-values must lie in [0, 1]")
    stat = ks_statistic(x, lambda v: np.clip(v, 0.0, 1.0))
    crit = ks_critical_value(x.size, level)
    return KsResult(stat, int(x.size), level, crit, stat > crit)


@dataclass(frozen=True)
class Chi2MomentReport:
    mean: float
    variance: float
    ks: KsResult
    d: int


def chi2_moment_check(scores: np.ndarray, d: int, level: float = 0.01) -> Chi2MomentReport:
    """Sample moments and KS distance of scores against chi-square with d dof."""
    if d < 1:
        raise ConfigError(f"degrees of freedom must be >= 1, got {d}")
    x = np.asarray(scores, dtype=np.float64)
    if x.ndim != 1 or x.size < 100:
        raise DataError(f"moment check needs at least 100 scores, got {x.size}")
    stat = ks_statistic(x, lambda xs: [chi2_cdf(float(v), d) for v in xs])
    crit = ks_critical_value(x.size, level)
    ks = KsResult(stat, int(x.size), level, crit, stat > crit)
    return Chi2MomentReport(float(x.mean()), float(x.var(ddof=1)), ks, d)


# -- reports -------------------------------------------------------------------

@dataclass
class EvalReport:
    coverage: float
    size_error_paper: float
    size_error_excess: float
    type1_per_class: list[dict] = field(default_factory=list)
    outlier_detection_rate: float | None = None
    ks: list[dict] = field(default_factory=list)
    counts: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def build_report(sets, labels, class_labels, p_matrix: np.ndarray | None = None,
                 ks_level: float = 0.01) -> EvalReport:
    """Assemble the full metric report for one test arm.

    The columns of the membership matrix ``sets`` and of ``p_matrix`` follow
    ``class_labels``. Every rate comes from the sets: a class's type-I rate is
    the share of its own test rows whose set lacks it. With a p-value matrix,
    each class with at least 20 own rows also gets a KS uniformity check of
    its own-class p-values; otherwise the KS section stays empty.
    """
    sets, labels = _check_aligned(sets, labels)
    inlier = labels != OUTLIER
    class_labels = tuple(int(v) for v in class_labels)
    report = EvalReport(
        coverage=coverage(sets, labels, class_labels),
        size_error_paper=size_error_paper(sets, labels),
        size_error_excess=size_error_excess(sets, labels),
    )

    if p_matrix is not None:
        p_matrix = np.asarray(p_matrix, dtype=np.float64)
        if p_matrix.shape != (labels.shape[0], len(class_labels)):
            raise DataError(
                f"p-value matrix shape {p_matrix.shape} != "
                f"({labels.shape[0]}, {len(class_labels)})"
            )
    for j, cls in enumerate(class_labels):
        own = labels == cls
        if not np.any(own):
            continue
        report.type1_per_class.append({"class": cls, "rate": float(np.mean(~sets[own, j]))})
        if p_matrix is not None and np.count_nonzero(own) >= 20:
            res = ks_uniformity(p_matrix[own, j], ks_level)
            report.ks.append({"class": cls, "stat": res.statistic, "reject": res.reject})

    n_out = int(np.sum(~inlier))
    if n_out > 0:
        report.outlier_detection_rate = float(np.mean(~sets[~inlier].any(axis=1)))
    per_class = {str(cls): int(np.sum(labels == cls)) for cls in class_labels}
    report.counts = {
        "n_test": int(labels.shape[0]),
        "n_inliers": int(np.sum(inlier)),
        "n_outliers": n_out,
        "per_class": per_class,
    }
    return report


def grade_arm(labels, classes, p_matrix, alpha: float, baseline=None, probs=None) -> list:
    """(method, sets, report) of each method on a test arm with ``labels``:
    flow's sets from ``p_matrix`` (columns ``classes``) at ``alpha``; with
    ``baseline``, the pair ``baselines.fit_baselines`` returns, the scaling
    and APS sets from its classifier's probabilities ``probs`` of the arm."""
    graded = [("flow", classes, predictive_set(p_matrix, alpha), p_matrix)]
    if baseline is not None:
        from .baselines import aps_set, scaling_set

        clf, cal = baseline
        graded += [("scaling", clf.class_labels, scaling_set(probs, alpha), None),
                   ("aps", clf.class_labels, aps_set(probs, cal), None)]
    return [(method, sets, build_report(sets, labels, cols, p_matrix=pm))
            for method, cols, sets, pm in graded]


def emit_report(report: EvalReport, path: str) -> None:
    write_json(path, report.to_dict())


def emit_histogram(p_values, path: str, bins: int = 20) -> None:
    """CSV histogram of p-values over [0, 1]: bin_left,bin_right,count."""
    if bins < 1:
        raise ConfigError(f"bins must be >= 1, got {bins}")
    x = np.asarray(p_values, dtype=np.float64)
    if np.any((x < 0) | (x > 1)):
        raise DataError("p-values must lie in [0, 1]")
    edges = np.linspace(0.0, 1.0, bins + 1)
    write_table(path, ("bin_left", "bin_right", "count"),
                [edges[:-1], edges[1:], np.histogram(x, bins=edges)[0]], (FLOAT, FLOAT, "%d"))


def emit_comparison(rows, path: str) -> None:
    """CSV of (method, rate, EvalReport) rows: method,rate,coverage,size errors."""
    cells = [(method, rate, rep.coverage, rep.size_error_paper, rep.size_error_excess)
             for method, rate, rep in rows]
    write_table(path, ("method", "rate", "coverage", "size_error_paper", "size_error_excess"),
                list(zip(*cells)), ("%s", "%g", "%.6f", "%.6f", "%.6f"))

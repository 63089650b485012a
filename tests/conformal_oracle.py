"""The conformal p-value of one score against one class pool, which no stage
computes on its own: the stages score whole matrices (``p_value_matrix``).
It runs the package's counting rule (``conformal._p_from_sorted``), so the
hand counts the tests check are the package's."""

import numpy as np

from flowconformal.conformal import ScorePool, _p_from_sorted


def p_value(pool: ScorePool, t_new: float, mode: str = "smoothed") -> float:
    """Conformal p-value of a new score against a class pool."""
    return float(_p_from_sorted(pool.scores, np.float64(t_new), mode))

"""Special functions: regularized incomplete gamma and the chi-square CDF.

The lower regularized incomplete gamma P(s, x) is computed by the power
series for x < s + 1 and by a continued fraction (modified Lentz) for the
complementary function otherwise; both converge to well below 1e-10 absolute
error for the arguments used here.
"""

from __future__ import annotations

import math

__all__ = ["regularized_lower_gamma", "chi2_cdf"]

_EPS = 1e-16
_FPMIN = 1e-300
_MAX_ITER = 1000


def _gamma_series(s: float, x: float) -> float:
    term = 1.0 / s
    total = term
    k = s
    for _ in range(_MAX_ITER):
        k += 1.0
        term *= x / k
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    return total * math.exp(-x + s * math.log(x) - math.lgamma(s))


def _gamma_cont_fraction(s: float, x: float) -> float:
    # evaluates the UPPER regularized gamma Q(s, x)
    b = x + 1.0 - s
    c = 1.0 / _FPMIN
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = b + an / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return math.exp(-x + s * math.log(x) - math.lgamma(s)) * h


def regularized_lower_gamma(s: float, x: float) -> float:
    """P(s, x) = gamma(s, x) / Gamma(s) for s > 0, x >= 0."""
    if s <= 0:
        raise ValueError(f"shape must be positive, got {s}")
    if x < 0:
        raise ValueError(f"argument must be non-negative, got {x}")
    if x == 0.0:
        return 0.0
    if x < s + 1.0:
        return _gamma_series(s, x)
    return 1.0 - _gamma_cont_fraction(s, x)


def chi2_cdf(t: float, d: int) -> float:
    """CDF of the chi-square distribution with d degrees of freedom."""
    if not isinstance(d, (int,)) or d < 1:
        raise ValueError(f"degrees of freedom must be a positive integer, got {d!r}")
    if not math.isfinite(t):
        raise ValueError(f"argument must be finite, got {t}")
    if t <= 0.0:
        return 0.0
    return regularized_lower_gamma(d / 2.0, t / 2.0)


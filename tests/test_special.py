"""Incomplete-gamma chi-square CDF against closed forms and scipy."""

import math

import numpy as np
import pytest

from flowconformal.special import chi2_cdf, regularized_lower_gamma

scipy_special = pytest.importorskip("scipy.special")


def test_d1_closed_form_grid():
    # chi^2 with 1 dof: CDF(t) = erf(sqrt(t/2))
    grid = np.linspace(0.01, 30.0, 100)
    for t in grid:
        want = math.erf(math.sqrt(t / 2.0))
        assert abs(chi2_cdf(t, 1) - want) < 1e-10


def test_d2_closed_form_grid():
    # chi^2 with 2 dof: CDF(t) = 1 - exp(-t/2)
    grid = np.linspace(0.01, 40.0, 100)
    for t in grid:
        want = 1.0 - math.exp(-t / 2.0)
        assert abs(chi2_cdf(t, 2) - want) < 1e-10
    assert chi2_cdf(2.0 * math.log(2.0), 2) == pytest.approx(0.5, abs=1e-12)


def test_d1_named_value():
    assert chi2_cdf(1.0, 1) == pytest.approx(0.68269, abs=5e-6)


def test_matches_scipy_across_dofs():
    rng = np.random.default_rng(2)
    for d in (1, 2, 3, 5, 10, 50):
        ts = rng.uniform(0.0, 4.0 * d, size=50)
        for t in ts:
            want = float(scipy_special.gammainc(d / 2.0, t / 2.0))
            assert abs(chi2_cdf(float(t), d) - want) < 1e-10


def test_gamma_series_and_continued_fraction_are_consistent():
    # x near s+1 is where the two evaluation branches meet
    for s in (0.5, 1.0, 2.5, 7.0):
        for x in (s + 0.999, s + 1.001):
            want = float(scipy_special.gammainc(s, x))
            assert abs(regularized_lower_gamma(s, x) - want) < 1e-12


def test_boundaries_and_validation():
    assert chi2_cdf(0.0, 3) == 0.0
    assert chi2_cdf(-5.0, 3) == 0.0
    assert chi2_cdf(1e6, 3) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        chi2_cdf(1.0, 0)
    with pytest.raises(ValueError):
        chi2_cdf(1.0, -2)
    with pytest.raises(ValueError):
        regularized_lower_gamma(0.0, 1.0)
    with pytest.raises(ValueError):
        regularized_lower_gamma(1.0, -0.5)


"""Gamma, Beta, and Mittag-Leffler accuracy against frozen references.

The reference values were produced by 40-digit arithmetic (series and
gamma evaluation in mpmath); ``tests/oracles.py`` regenerates them.
"""
import math

import numpy as np
import pytest

from predprey import beta, gamma, mittag_leffler

from conftest import ML_095_AT_M1

# 40-digit values, correctly rounded to doubles
GAMMA_HALF = 1.7724538509055159
ML_05_AT_M1 = 0.42758357615580700      # equals e * erfc(1)
ML_095_AT_M25 = 0.098886431223165548
ML_15_05_AT_2 = 4.1636279886572214
ML_05_AT_2 = 108.94090438997797        # equals e^4 * erfc(-2)


class TestGamma:
    def test_half_integer(self):
        assert gamma(0.5) == pytest.approx(GAMMA_HALF, rel=1e-15)

    def test_small_integers_exact(self):
        assert gamma(1.0) == 1.0
        assert gamma(2.0) == 1.0
        assert gamma(5.0) == 24.0

    def test_recurrence_residual(self):
        zs = np.linspace(0.1, 10.0, 100)
        worst = max(abs(gamma(z + 1.0) - z * gamma(z)) / gamma(z + 1.0)
                    for z in zs)
        assert worst <= 1e-12

    @pytest.mark.parametrize("z", [0.0, -1.0, -0.5, math.nan])
    def test_domain_errors(self, z):
        with pytest.raises(ValueError):
            gamma(z)

    def test_overflow_guard(self):
        with pytest.raises(OverflowError):
            gamma(172.0)
        assert math.isfinite(gamma(171.0))

    def test_largest_finite_values_are_returned(self):
        # gamma(171.5) = 9.48e307 fits in a double, and beta(100, 71.5)
        # divides by it (mpmath: 9.91541017056066285e-52)
        assert gamma(171.5) == math.gamma(171.5)
        assert beta(100.0, 71.5) == pytest.approx(9.91541017056066285e-52,
                                                  rel=1e-13)

    @pytest.mark.parametrize("z", [171.7, math.inf, 5e-324])
    def test_overflow_names_the_argument(self, z):
        with pytest.raises(OverflowError, match=r"gamma\(.*\) overflows"):
            gamma(z)


class TestBeta:
    def test_known_value(self):
        assert beta(2.0, 3.0) == pytest.approx(1.0 / 12.0, abs=1e-14)

    def test_symmetry_exact(self):
        for z, w in [(0.3, 2.7), (1.5, 4.25), (0.05, 0.95)]:
            assert beta(z, w) == beta(w, z)

    def test_relation_to_gamma(self):
        z, w = 1.25, 2.5
        expected = gamma(z) * gamma(w) / gamma(z + w)
        assert beta(z, w) == pytest.approx(expected, rel=1e-15)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            beta(0.0, 1.0)
        with pytest.raises(ValueError):
            beta(1.0, -2.0)


class TestMittagLeffler:
    def test_reduces_to_exponential(self):
        zs = np.linspace(-5.0, 5.0, 101)
        worst = max(abs(mittag_leffler(1.0, 1.0, z) - math.exp(z))
                    / math.exp(z) for z in zs)
        assert worst <= 1e-11

    def test_at_zero(self):
        for b in (0.5, 1.0, 1.7, 3.0):
            assert mittag_leffler(0.8, b, 0.0) * gamma(b) == pytest.approx(
                1.0, abs=1e-13)

    def test_frozen_values(self):
        assert mittag_leffler(0.95, 1.0, -1.0) == pytest.approx(
            ML_095_AT_M1, rel=1e-12)
        assert mittag_leffler(0.5, 1.0, -1.0) == pytest.approx(
            ML_05_AT_M1, rel=1e-12)
        assert mittag_leffler(0.95, 1.0, -2.5) == pytest.approx(
            ML_095_AT_M25, rel=1e-12)
        assert mittag_leffler(1.5, 0.5, 2.0) == pytest.approx(
            ML_15_05_AT_2, rel=1e-12)

    def test_half_order_erfc_identity(self):
        assert mittag_leffler(0.5, 1.0, 2.0) == pytest.approx(
            ML_05_AT_2, rel=1e-12)

    def test_monotone_decay_on_negative_axis(self):
        vals = [mittag_leffler(0.95, 1.0, -z) for z in (0.0, 0.5, 1.0, 2.0, 4.0)]
        assert all(a > b > 0.0 for a, b in zip(vals, vals[1:]))

    def test_argument_cap(self):
        with pytest.raises(OverflowError):
            mittag_leffler(0.95, 1.0, 50.5)
        with pytest.raises(OverflowError):
            mittag_leffler(0.95, 1.0, -51.0)

    def test_series_term_overflow_is_reported(self):
        # |z| is inside the cap, but the terms outgrow a double
        with pytest.raises(OverflowError, match="series term overflow"):
            mittag_leffler(0.3, 1.0, -10.0)

    @pytest.mark.parametrize("alpha,b,z", [
        (0.0, 1.0, 1.0),
        (-0.5, 1.0, 1.0),
        (0.95, 0.0, 1.0),
        (0.95, 1.0, math.inf),
    ])
    def test_domain_errors(self, alpha, b, z):
        with pytest.raises(ValueError):
            mittag_leffler(alpha, b, z)

    def test_tight_budget_raises(self):
        # at alpha = 1e-6 every term stays near 1, so the series reaches
        # its 10 000-term limit without overflowing
        with pytest.raises(RuntimeError, match="converge"):
            mittag_leffler(1e-6, 1.0, -1.0)

"""Gamma, Beta, and Mittag-Leffler functions for the fractional machinery.

Gamma delegates to the platform implementation (Lanczos quality, about one
ulp on the range used here) behind domain and overflow checks.  The
Mittag-Leffler sum is the place where numerics actually bite: for negative
arguments the series alternates, so terms are formed in log space and
added with exactly rounded summation (``math.fsum``).
"""

from __future__ import annotations

import contextlib
import math
import sys

ML_MAX_ABS_Z = 50.0     # documented series range; see mittag_leffler
ML_ABS_TOL = 1e-14      # a series term below this counts as small
ML_MAX_TERMS = 10000    # terms summed before the series gives up
_LOG_DOUBLE_MAX = math.log(sys.float_info.max)    # exp raises above this


def gamma(z):
    """Gamma function for real z > 0.

    Raises ValueError for z <= 0 and OverflowError where the result does
    not fit in a double (z above about 171.62, or tiny z).
    """
    z = float(z)
    if math.isnan(z) or z <= 0.0:
        raise ValueError(f"gamma requires z > 0, got {z!r}")
    if z < math.inf:        # math.gamma(inf) returns inf
        with contextlib.suppress(OverflowError):
            return math.gamma(z)
    raise OverflowError(f"gamma({z:g}) overflows double precision")


def beta(z, w):
    """Beta function B(z, w) = gamma(z)*gamma(w)/gamma(z + w).

    Symmetric in (z, w) exactly, since float multiplication commutes.
    """
    z = float(z)
    w = float(w)
    if z <= 0.0 or w <= 0.0:
        raise ValueError(f"beta requires positive arguments, got ({z!r}, {w!r})")
    return gamma(z) * gamma(w) / gamma(z + w)


def mittag_leffler(alpha, beta_param, z):
    """Two-parameter Mittag-Leffler function E_{alpha,beta}(z) by series.

    Sums z^k / gamma(alpha*k + beta) with a three-consecutive-small-terms
    stopping rule.  Term magnitudes come from exp(k*log|z| - lgamma(...)),
    which survives arguments where gamma itself would overflow.  The terms
    are then added by ``math.fsum``.

    Arguments with |z| > 50 raise OverflowError: beyond that the
    alternating series is too ill-conditioned for double precision, and
    this implementation does not switch to an asymptotic form.  Accuracy
    already degrades gradually as z goes far negative (the term formation
    error is roughly eps times the largest term).
    """
    alpha = float(alpha)
    beta_param = float(beta_param)
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha!r}")
    if not beta_param > 0.0:
        raise ValueError(f"beta must be positive, got {beta_param!r}")
    z = float(z)
    if not math.isfinite(z):
        raise ValueError(f"z must be finite, got {z!r}")
    if abs(z) > ML_MAX_ABS_Z:
        raise OverflowError(
            f"|z| = {abs(z):g} outside the stable series range (<= {ML_MAX_ABS_Z:g})")
    if z == 0.0:
        return 1.0 / gamma(beta_param)

    log_abs_z = math.log(abs(z))
    flip = z < 0.0
    terms = []
    small_run = 0
    for k in range(ML_MAX_TERMS):
        log_magnitude = k * log_abs_z - math.lgamma(alpha * k + beta_param)
        if log_magnitude > _LOG_DOUBLE_MAX:
            raise OverflowError(
                f"series term overflow at k={k} for E_({alpha:g},{beta_param:g})({z:g})")
        magnitude = math.exp(log_magnitude)
        terms.append(-magnitude if (flip and k % 2 == 1) else magnitude)
        if magnitude < ML_ABS_TOL:
            small_run += 1
            if small_run >= 3:
                break
        else:
            small_run = 0
    else:
        raise RuntimeError(
            f"Mittag-Leffler series did not converge within {ML_MAX_TERMS} terms "
            f"(alpha={alpha:g}, beta={beta_param:g}, z={z:g})")

    return math.fsum(terms)

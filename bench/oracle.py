"""Expected final states, computed apart from the package under test.

The benchmark's inputs are drawn from a seed given on the command line,
so the expected outputs cannot be a fixed table.  This module re-implements the
four solvers of the seed commit in plain floats (classical schemes) and a
direct-sum predictor-corrector (Caputo order), and imports nothing from
``predprey``.  ``test_bench.py`` pins it to final states recorded from
the seed commit (``expected_seed.json``).

Agreement is checked to ``RTOL`` relative (plus ``ATOL``).  That is loose
enough for a solver that reorders its sums, since the direct and a blocked
FFT history sum must agree to 1e-12, and tight enough to catch a wrong
scheme, step count or order: swapping two schemes, or moving sigma by
1e-6, changes a final state by far more than 1e-9.
"""

from __future__ import annotations

import math

import numpy as np

RTOL = 1e-9
ATOL = 1e-12


def close(got, want) -> bool:
    """Both components within RTOL relative (plus ATOL) of the oracle."""
    return all(abs(g - w) <= RTOL * abs(w) + ATOL for g, w in zip(got, want))


def n_steps(t_end: float, h: float) -> int:
    """Grid steps to reach t_end: ceil(t_end/h), tolerant of rounding."""
    return max(1, math.ceil(t_end / h - 1e-9))


def _rates(a, b, p, c, d, l):
    return a * d * (1.0 - d / c) - p * d * l, p * d * l - b * l


def classical_final(scheme, params, h, t_end, d, l):
    """Final (d, l) of the RK4 reference, explicit Euler or Mickens map.

    ``params`` is (alpha, beta, p, capacity).
    """
    a, b, p, c = params
    n = n_steps(t_end, h)
    if scheme == "reference":
        for _ in range(n):
            k1d, k1l = _rates(a, b, p, c, d, l)
            k2d, k2l = _rates(a, b, p, c, d + 0.5 * h * k1d, l + 0.5 * h * k1l)
            k3d, k3l = _rates(a, b, p, c, d + 0.5 * h * k2d, l + 0.5 * h * k2l)
            k4d, k4l = _rates(a, b, p, c, d + h * k3d, l + h * k3l)
            d, l = (d + h * (k1d + 2.0 * k2d + 2.0 * k3d + k4d) / 6.0,
                    l + h * (k1l + 2.0 * k2l + 2.0 * k3l + k4l) / 6.0)
    elif scheme == "euler":
        for _ in range(n):
            d, l = (d * (a * h * (1.0 - d / c) - p * h * l + 1.0),
                    l * (p * h * d - b * h + 1.0))
    elif scheme == "mickens":
        phi = -math.expm1(-b * h) / b
        for _ in range(n):
            d = (a * phi + 1.0) * d / (1.0 + p * phi * l + a * phi * d / c)
            l = (p * phi * d + 1.0) * l / (1.0 + b * phi)
    else:
        raise ValueError(f"not a classical scheme: {scheme!r}")
    return d, l


def fractional_final(params, sigma, h, t_end, d, l):
    """Final (d, l) of the Caputo predictor-corrector, one corrector pass.

    Direct O(n^2) history sums with the product-integration weights of
    Diethelm, Ford & Freed; power differences go through expm1/log1p.
    """
    a, b, p, c = params
    n = n_steps(t_end, h)
    s, s1 = sigma, sigma + 1.0
    m = np.arange(1, n + 1, dtype=float)
    # rect[k] = (k+1)^s - k^s,   k = 0 .. n-1
    rect = np.empty(n)
    rect[0] = 1.0
    rect[1:] = m[:-1] ** s * np.expm1(s * np.log1p(1.0 / m[:-1]))
    # trap[k] = (k+1)^(s+1) - 2 k^(s+1) + (k-1)^(s+1),   k = 1 .. n-1
    trap = np.zeros(n)
    if n > 1:
        trap[1] = 2.0 ** s1 - 2.0
        k = m[1:n - 1]
        trap[2:] = k ** s1 * (np.expm1(s1 * np.log1p(1.0 / k))
                              + np.expm1(s1 * np.log1p(-1.0 / k)))
    scale_p = h ** s / math.gamma(s + 1.0)
    scale_c = h ** s / math.gamma(s + 2.0)

    def field(x):
        return np.array(_rates(a, b, p, c, x[0], x[1]))

    x0 = np.array([d, l], dtype=float)
    fs = np.empty((n + 1, 2))
    fs[0] = field(x0)
    x = x0
    for j in range(n):
        pred = x0 + scale_p * (rect[j::-1] @ fs[:j + 1])
        # a_0 = j^(s+1) - (j - s)(j+1)^s, rewritten to avoid cancellation
        w0 = s if j == 0 else (j + 1.0) ** s * (
            s + j * math.expm1(s * math.log1p(-1.0 / (j + 1.0))))
        hist = w0 * fs[0]
        if j >= 1:
            hist = hist + trap[j:0:-1] @ fs[1:j + 1]
        x = x0 + scale_c * (hist + field(pred))
        fs[j + 1] = field(x)
    return float(x[0]), float(x[1])


def final_state(scheme, params, h, t_end, sigma, d, l):
    """Dispatch on scheme name; sigma is used by the Caputo solver only."""
    if scheme == "fractional":
        return fractional_final(params, sigma, h, t_end, d, l)
    return classical_final(scheme, params, h, t_end, d, l)

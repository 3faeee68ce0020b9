"""Caputo-order solver: full-memory product-integration predictor-corrector.

For 0 < sigma <= 1 the scheme advances

    X_{n+1}^P = X_0 + h^sigma/gamma(sigma+1) * sum_j [(n+1-j)^sigma - (n-j)^sigma] F(X_j)
    X_{n+1}   = X_0 + h^sigma/gamma(sigma+2) * [sum_j a_{j,n+1} F(X_j) + F(X_{n+1}^P)]

with the trapezoidal history weights

    a_{0,n+1} = n^(sigma+1) - (n - sigma)*(n+1)^sigma
    a_{j,n+1} = (n-j+2)^(sigma+1) + (n-j)^(sigma+1) - 2*(n-j+1)^(sigma+1)

At sigma = 1 this collapses to the classical rectangle/trapezoid pair.
The power differences are evaluated through expm1/log1p so large history
indices do not cancel catastrophically.  The history sums are split into
dyadic blocks summed by FFT, so an n-step run costs O(n log^2 n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (FRACTIONAL, ModelParams, State, Trajectory, grid_steps,
                    rate_field)
from .schemes import DivergenceError
from .special import mittag_leffler


@dataclass(frozen=True)
class FractionalConfig:
    """Order, grid, and corrector policy for the Caputo solver."""

    sigma: float
    h: float
    t_end: float
    corrector_passes: int = 1

    def __post_init__(self):
        if not 0.0 < self.sigma <= 1.0:
            raise ValueError(f"sigma must lie in (0, 1], got {self.sigma!r}")
        grid_steps(self.h, self.t_end)
        if self.corrector_passes < 1:
            raise ValueError("corrector_passes must be at least 1")

    def n_steps(self) -> int:
        return grid_steps(self.h, self.t_end)


def _rectangle_kernel(sigma: float, count: int) -> np.ndarray:
    """d[m] = (m+1)^sigma - m^sigma for m = 0 .. count-1."""
    out = np.empty(count)
    if count >= 1:
        out[0] = 1.0
    if count >= 2:
        m = np.arange(1, count, dtype=float)
        # m^s * ((1 + 1/m)^s - 1), cancellation-free form of the difference
        out[1:] = m ** sigma * np.expm1(sigma * np.log1p(1.0 / m))
    return out


def _trapezoid_kernel(sigma: float, count: int) -> np.ndarray:
    """c[m] = (m+1)^(s+1) + (m-1)^(s+1) - 2*m^(s+1) for m = 1 .. count.

    Entry 0 is unused (the j = 0 corrector weight has its own formula).
    """
    s1 = sigma + 1.0
    out = np.zeros(count + 1)
    if count >= 1:
        out[1] = 2.0 ** s1 - 2.0
    if count >= 2:
        m = np.arange(2, count + 1, dtype=float)
        out[2:] = m ** s1 * (np.expm1(s1 * np.log1p(1.0 / m))
                             + np.expm1(s1 * np.log1p(-1.0 / m)))
    return out


def _first_corrector_weights(sigma: float, count: int) -> np.ndarray:
    """a[n] = a_{0,n+1} = n^(s+1) - (n - s)*(n+1)^s for n = 0 .. count-1."""
    out = np.empty(count)
    if count >= 1:
        out[0] = sigma
    if count >= 2:
        n = np.arange(1, count, dtype=float)
        # rewrite as (n+1)^s * (s + n*((n/(n+1))^s - 1)) so the subtraction
        # happens between O(sigma) quantities instead of O(n^(s+1)) ones
        out[1:] = (n + 1.0) ** sigma * (
            sigma + n * np.expm1(sigma * np.log1p(-1.0 / (n + 1.0))))
    return out


# Sources in a step's own aligned block of this many are summed directly.
_NEAR = 32


def _pece_history(f, x0, sigma: float, h: float, n_steps: int,
                  corrector_passes: int) -> np.ndarray:
    """Run the predictor-corrector over a uniform grid; returns the history.

    ``f`` maps a sequence of state floats to a sequence of rates.  Step n
    needs the predictor sum P_n = sum_{j<=n} d[n-j] F_j and the corrector
    sum H_n = a_{0,n+1} F_0 + sum_{1<=j<=n} c[n-j+1] F_j.  Both are split as
    in Hairer, Lubich & Schlichte (SIAM J. Sci. Stat. Comput. 6, 1985):
    sources in n's own aligned block of _NEAR are summed directly, and every
    older source lies in exactly one aligned block [s, s+L) with s/L even
    whose sibling [s+L, s+2L) holds n.  When such a block is complete, its
    share of all L targets is one FFT convolution of length 2L (overlap-save:
    outputs L .. 2L-1 do not wrap), so a run costs O(n log^2 n).

    Row k of ``hist`` holds (x_k, F_k) once step k-1 has written it.
    Until then it gathers the far parts (P_{k-1}, H_{k-1}), so each step
    adds them with one row.  They start at the j = 0 terms d[k-1] F_0 and
    a_{0,k} F_0, and F_0 is stored as zero so the direct and FFT sums skip
    j = 0.
    """
    fft = np.fft    # numpy may load this submodule only on first use
    scale_p = h ** sigma / math.gamma(sigma + 1.0)
    scale_c = h ** sigma / math.gamma(sigma + 2.0)
    # lag-k weight of a source j >= 1: d[k] in the predictor, c[k+1] in
    # the corrector; near holds the first _NEAR of each, newest lag last
    kernels = np.stack([_rectangle_kernel(sigma, n_steps),
                        _trapezoid_kernel(sigma, n_steps)[1:]])
    near = np.ascontiguousarray(kernels[:, _NEAR - 1::-1])

    x0 = [float(v) for v in x0]
    f0 = f(x0)
    hist = np.empty((n_steps + 1, 2, len(x0)))
    hist[0, 0] = x0
    hist[0, 1] = 0.0
    np.multiply.outer(
        np.stack([kernels[0], _first_corrector_weights(sigma, n_steps)]).T,
        f0, out=hist[1:])
    fs = hist[:, 1]
    for n in range(n_steps):
        b = n - n % _NEAR
        if b == n > 0:
            # sources [n - size, n) are complete: add them to targets
            # [n, n + size), which gather in rows n + 1 onward
            size = n & -n
            rows = min(size, n_steps - n)
            # one component and one kernel at a time, which keeps the
            # temporaries of the largest blocks small
            srcs = [fft.rfft(col, 2 * size) for col in fs[n - size:n].T]
            for k, kernel in enumerate(kernels):
                spec = fft.rfft(kernel[:2 * size], 2 * size)
                for c, src in enumerate(srcs):
                    far = fft.irfft(src * spec, 2 * size)
                    hist[n + 1:n + 1 + rows, k, c] += far[size:size + rows]
        sums = near[:, b - n - 1:] @ fs[b:n + 1]
        sums += hist[n + 1]
        hp, hc = sums.tolist()
        xp = [x + scale_p * u for x, u in zip(x0, hp)]
        x1 = [x + scale_c * (u + v) for x, u, v in zip(x0, hc, f(xp))]
        for _ in range(corrector_passes - 1):
            x1 = [x + scale_c * (u + v) for x, u, v in zip(x0, hc, f(x1))]
        hist[n + 1] = x1, f(x1)
    return hist[:, 0].copy()


def caputo_solve(params: ModelParams, cfg: FractionalConfig,
                 s0: State) -> Trajectory:
    """Trajectory of the Caputo-order system on the uniform grid.

    The initial state must be non-negative.  Raises DivergenceError if the
    history turns non-finite (possible for unvalidated parameter regimes).
    """
    if s0.d < 0.0 or s0.l < 0.0:
        raise ValueError(f"initial state must be non-negative, got ({s0.d}, {s0.l})")

    field = rate_field(params)

    def f(x):
        try:
            return field(x[0], x[1])
        except ZeroDivisionError:   # capacity 0: the field is not finite
            return math.nan, math.nan

    n = cfg.n_steps()
    xs = _pece_history(f, (s0.d, s0.l), cfg.sigma, cfg.h, n,
                       cfg.corrector_passes)
    finite = np.isfinite(xs).all(axis=1)
    if not finite.all():
        raise DivergenceError.at_step(int(np.argmin(finite)), cfg.h)
    times = np.arange(n + 1, dtype=float) * cfg.h
    return Trajectory(times, xs, FRACTIONAL, params, cfg)


def scalar_caputo_solve(lambda_coeff: float, sigma: float, y0: float,
                        h: float, t_end: float,
                        corrector_passes: int = 1) -> np.ndarray:
    """Solve the scalar test equation cD^sigma y = lambda*y.

    Uses the identical predictor-corrector machinery as the system solver;
    mainly useful for order-of-convergence studies against the
    Mittag-Leffler solution y(t) = y0 * E_sigma(lambda * t^sigma).
    """
    cfg = FractionalConfig(sigma=sigma, h=h, t_end=t_end,
                           corrector_passes=corrector_passes)
    lam = float(lambda_coeff)

    def f(x):
        return (lam * x[0],)

    ys = _pece_history(f, (y0,), sigma, h, cfg.n_steps(), corrector_passes)
    return ys[:, 0].copy()


@dataclass(frozen=True)
class ConservationBound:
    """Ceiling on the total population W = D + L for the Caputo system.

    ``bound`` is the flat ceiling W(0) + A/beta; ``envelope`` gives the
    tighter time-resolved curve through the one-parameter Mittag-Leffler
    decay factor.
    """

    w0: float
    a: float
    beta: float

    @property
    def bound(self) -> float:
        return self.w0 + self.a / self.beta

    def envelope(self, t: float, sigma: float) -> float:
        """(A/beta)*(1 - E_sigma(-beta*t^sigma)) + W(0)*E_sigma(-beta*t^sigma)."""
        decay = mittag_leffler(sigma, 1.0, -self.beta * float(t) ** sigma)
        return self.a / self.beta * (1.0 - decay) + self.w0 * decay


def fractional_conservation_bound(params: ModelParams, w0: float,
                                  m: float) -> ConservationBound:
    """Conservation data for a run started at total w0 with prey scale m.

    ``m`` is max(D(0), capacity) and A = (alpha + 4*beta)/4 * m.
    """
    a = (params.alpha + 4.0 * params.beta) / 4.0 * m
    return ConservationBound(w0=float(w0), a=a, beta=params.beta)

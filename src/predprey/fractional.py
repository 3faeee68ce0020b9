"""Caputo-order solver: full-memory product-integration predictor-corrector.

For 0 < sigma <= 1 the scheme advances

    X_{n+1}^P = X_0 + h^sigma/gamma(sigma+1) * sum_j [(n+1-j)^sigma - (n-j)^sigma] F(X_j)
    X_{n+1}   = X_0 + h^sigma/gamma(sigma+2) * [sum_j a_{j,n+1} F(X_j) + F(X_{n+1}^P)]

with the trapezoidal history weights

    a_{0,n+1} = n^(sigma+1) - (n - sigma)*(n+1)^sigma
    a_{j,n+1} = (n-j+2)^(sigma+1) + (n-j)^(sigma+1) - 2*(n-j+1)^(sigma+1)

At sigma = 1 this collapses to the classical rectangle/trapezoid pair.
The power differences are evaluated through expm1/log1p so large history
indices do not cancel catastrophically.  Each step sums the sources in
its own aligned block of 128 directly, and the older ones arrive in dyadic
blocks summed by FFT, so an n-step run costs O(n log^2 n).  The solver
core steps two-component states on Python floats, each member from its
row of model coefficients (alpha, beta, p, capacity); the scalar test
equation cD^sigma y = lambda*y is the row (lambda, 0, 0, inf), whose
second component stays zero.  The step loop writes the rate field
inline, so the near-sum product is its only call per step.  One step
loop serves every batch size; only that product is chosen by the member
count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .model import (FRACTIONAL, ModelParams, State, Trajectory, check_order,
                    grid_steps)
from .schemes import DivergenceError


@dataclass(frozen=True)
class FractionalConfig:
    """Order, grid, and corrector policy for the Caputo solver."""

    sigma: float
    h: float
    t_end: float
    corrector_passes: int = 1

    def __post_init__(self):
        check_order(self.sigma)
        grid_steps(self.h, self.t_end)
        if self.corrector_passes < 1:
            raise ValueError("corrector_passes must be at least 1")

    def n_steps(self) -> int:
        return grid_steps(self.h, self.t_end)


def _pece_weights(sigma: float, count: int):
    """(d, c, first) of length count >= 1: at lag k, d[k] = (k+1)^s - k^s
    weighs a source j >= 1 in the predictor and c[k] = c_{k+1} (a_{j,n+1}
    at n - j = k) in the corrector; first[n] = a_{0,n+1}."""
    s1 = sigma + 1.0
    m = np.arange(1, count + 1, dtype=float)
    up = np.log1p(1.0 / m)          # log((m+1)/m)
    down = np.log1p(-1.0 / m[1:])   # log((m-1)/m) for m >= 2
    d, c, first = np.empty((3, count))
    d[0], c[0], first[0] = 1.0, 2.0 ** s1 - 2.0, sigma
    d[1:] = m[:-1] ** sigma * np.expm1(sigma * up[:-1])
    c[1:] = m[1:] ** s1 * (np.expm1(s1 * up[1:]) + np.expm1(s1 * down))
    first[1:] = m[1:] ** sigma * (sigma + m[:-1] * np.expm1(sigma * down))
    return d, c, first


# Sources in a step's own aligned block of this many are summed directly.
# One stacked matmul costs about the same at widths 32 and 128, and the
# wider block needs a quarter of the FFT block events.
_NEAR = 128


# a diverged member's sources are not finite, from its first field value
# on; the caller reports its first non-finite state, so numpy need not warn
@np.errstate(invalid="ignore", over="ignore")
def _pece_history(coeffs, x0s, sigmas, h: float, n_steps: int,
                  corrector_passes: int) -> np.ndarray:
    """Run the predictor-corrector for B two-component members on one grid.

    Member i has its own coefficient row ``coeffs[i]`` = (alpha, beta, p,
    capacity) of floats, start ``x0s[i]`` (a pair) and order
    ``sigmas[i]``; all share h, the step count and the corrector passes.
    Its field is model.rate_field's, written out inline with the same
    grouping (test_caputo_steps_repeat_the_rate_field holds them equal bit
    for bit); capacity may be inf.  Returns the states, shape
    (B, n_steps + 1, 2).

    Step n needs the predictor sum P_n = sum_{j<=n} d[n-j] F_j and the
    corrector sum H_n = a_{0,n+1} F_0 + sum_{1<=j<=n} c[n-j+1] F_j.  Both
    are split as in Hairer, Lubich & Schlichte (SIAM J. Sci. Stat. Comput.
    6, 1985): sources in n's own aligned block of _NEAR are summed
    directly, and every older source lies in exactly one aligned block
    [s, s+L) with s/L even whose sibling [s+L, s+2L) holds n.  When such a
    block is complete, its share of all L targets is one FFT convolution
    of length 2L per member (overlap-save: outputs L .. 2L-1 do not wrap),
    so a run costs O(n log^2 n).

    Row k of ``hist`` gathers the far parts (P_{k-1}, H_{k-1}) of every
    member, which step k-1 adds to its near sums.  They start at the j = 0
    terms d[k-1] F_0 and a_{0,k} F_0.  Then step k-1 writes (d_k, l_k)
    over P_{k-1}, and F_k goes to the near window, which is copied over
    the H parts of its block's rows once the block is complete.  F_0 is
    stored as zero so the direct and FFT sums skip j = 0.  The state
    update runs on Python floats one member at a time, so each member's
    numbers do not depend on the batch it is solved in.

    One step loop serves every batch size B: each step takes the near
    sums of all members in one product and then updates each member in
    turn, with no other Python-level call.  The product of each position
    in the block is bound at set-up: the ndarray.dot method of the 2-D
    weight view of a lone member (B = 1: caputo_solve,
    scalar_caputo_solve), a stacked matmul for a batch.  Both reach the
    same BLAS product, so a member's bits do not depend on its batch; the
    bound method skips np.dot's dispatcher and costs less per step than a
    stacked matmul of one, and one product per member would cost a batch
    more than its one matmul.
    """
    fft = np.fft    # numpy may load this submodule only on first use
    members = [(*row, d0, l0, h ** s / math.gamma(s + 1.0),
                h ** s / math.gamma(s + 2.0))
               for row, (d0, l0), s in zip(coeffs, x0s, sigmas)]
    # F_0 of every member, grouped as in the step loop
    alpha, beta, p, capacity = np.array(coeffs, dtype=float).T
    d, l = np.array(x0s, dtype=float).T
    pdl = p * d * l
    f0s = np.stack([alpha * d * (1.0 - d / capacity) - pdl,
                    pdl - beta * l], axis=1)
    # lag-k weight of a source j >= 1: d[k] in the predictor, c[k] = c_{k+1}
    # in the corrector; built first, so the build's temporaries are gone
    # before the history is allocated
    kernels = np.empty((len(sigmas), 2, n_steps))
    firsts = np.empty((len(sigmas), n_steps))
    for i, s in enumerate(sigmas):
        kernels[i, 0], kernels[i, 1], firsts[i] = _pece_weights(s, n_steps)
    hist = np.empty((n_steps + 1, len(sigmas), 2, 2))
    hist[0, :, 0] = x0s
    np.multiply(kernels[:, 0].T[:, :, None], f0s, out=hist[1:, :, 0])
    np.multiply(firsts.T[:, :, None], f0s, out=hist[1:, :, 1])
    # the first _NEAR weights of each kernel, newest lag last
    near = np.ascontiguousarray(kernels[:, :, _NEAR - 1::-1])
    fs_by_member = hist[:, :, 1].swapaxes(0, 1)
    pending = hist.transpose(2, 3, 1, 0)
    # window[:, i] holds F_{b+i} of the block [b, b + _NEAR); F_{b+_NEAR}
    # waits in the last slot until the block moves to the history.  Step
    # b + pos sums the sources b .. b + pos, the weights near[:, :, -1 - pos:]
    # against window[:, :pos + 1], and writes F_{b+pos+1} from item 2*pos + 2
    window = np.zeros((len(sigmas), _NEAR + 1, 2))
    sums = np.empty((len(sigmas), 2, 2))
    if len(sigmas) == 1:
        heads, out = window[0], sums[0]
        products = [near[0, :, -1 - pos:].dot for pos in range(_NEAR)]
    else:
        heads, out = window, sums
        products = [partial(np.matmul, near[..., -1 - pos:])
                    for pos in range(_NEAR)]
    positions = [(product, heads[..., :pos + 1, :], 2 * pos + 2)
                 for pos, product in enumerate(products)]
    stride = 2 * _NEAR + 2
    passes = range(corrector_passes)
    spectra = {}
    # flat memoryviews read and write float items much faster than numpy
    # rows; member i's slots in row k of hist start at 4*(k*B + i), its
    # near sums at 4*i, and its window at i*stride
    with memoryview(hist.reshape(-1)) as flat, \
            memoryview(window.reshape(-1)) as win, \
            memoryview(sums.reshape(-1)) as near_sums:
        at = 4 * len(sigmas)    # row 1; each step moves it one row on
        for b in range(0, n_steps, _NEAR):
            if b:
                # the FFT sums read the finished block from the history
                hist[b - _NEAR:b, :, 1] = window[:, :_NEAR].swapaxes(0, 1)
                window[:, 0] = window[:, _NEAR]
                # sources [b - size, b) are complete: add them to targets
                # [b, b + size), which gather in rows b + 1 onward
                size = b & -b
                rows = min(size, n_steps - b)
                srcs = fft.rfft(fs_by_member[:, b - size:b].swapaxes(1, 2),
                                2 * size)
                # one transform gives both kernel spectra of a size, kept
                # while the size recurs (every 2*size steps)
                spec = (spectra.pop(size) if size in spectra else
                        fft.rfft(kernels[:, :, :2 * size], 2 * size))
                if b + 2 * size < n_steps:
                    spectra[size] = spec
                # both factors of each product are (B, size + 1) with unit
                # inner stride
                for k in range(2):
                    for c in range(2):
                        far = fft.irfft(srcs[:, c] * spec[:, k], 2 * size)
                        pending[k, c, :, b + 1:b + 1 + rows] += \
                            far[:, size:size + rows]
            for product, head, slot in positions[:n_steps - b]:
                product(head, out)
                q = 0
                for alpha, beta, p, capacity, d0, l0, scale_p, scale_c \
                        in members:
                    # near + far, the far part pending in this member's
                    # slots; the last field value is the new source
                    d = d0 + scale_p * (near_sums[q] + flat[at])
                    l = l0 + scale_p * (near_sums[q + 1] + flat[at + 1])
                    cd = near_sums[q + 2] + flat[at + 2]
                    cl = near_sums[q + 3] + flat[at + 3]
                    pdl = p * d * l
                    fd = alpha * d * (1.0 - d / capacity) - pdl
                    fl = pdl - beta * l
                    for _ in passes:
                        d = d0 + scale_c * (cd + fd)
                        l = l0 + scale_c * (cl + fl)
                        pdl = p * d * l
                        fd = alpha * d * (1.0 - d / capacity) - pdl
                        fl = pdl - beta * l
                    flat[at] = d
                    flat[at + 1] = l
                    win[slot] = fd
                    win[slot + 1] = fl
                    at += 4
                    q += 4
                    slot += stride
    return np.ascontiguousarray(hist[:, :, 0].swapaxes(0, 1))


def caputo_solve_batch(runs) -> list:
    """Solve several ``(params, cfg, s0)`` runs at once.

    Entry i equals ``caputo_solve(*runs[i])`` bit for bit, except that
    the error that call would raise is returned in its place: a
    ValueError for a negative start, a DivergenceError for a history that
    turns non-finite.  So one failing member costs the others nothing.
    A negative start and a start that is not finite are settled before
    any solve.  Runs that share h, t_end and corrector_passes advance
    together.
    """
    runs = list(runs)
    out = [None] * len(runs)
    groups = {}
    for i, (params, cfg, s0) in enumerate(runs):
        if s0.d < 0.0 or s0.l < 0.0:
            out[i] = ValueError("initial state must be non-negative, "
                                f"got ({s0.d}, {s0.l})")
        elif not (math.isfinite(s0.d) and math.isfinite(s0.l)):
            out[i] = DivergenceError.at_step(0, cfg.h)
        else:
            groups.setdefault((cfg.h, cfg.t_end, cfg.corrector_passes),
                              []).append(i)
    for (h, _, passes), members in groups.items():
        params, cfgs, starts = zip(*(runs[i] for i in members))
        n = cfgs[0].n_steps()
        xs = _pece_history([(p.alpha, p.beta, p.p, p.capacity)
                            for p in params],
                           [(s0.d, s0.l) for s0 in starts],
                           [cfg.sigma for cfg in cfgs], h, n, passes)
        times = np.arange(n + 1, dtype=float) * h
        for m, i in enumerate(members):
            out[i] = (DivergenceError.first_in(xs[m], h) or
                      Trajectory(times, xs[m], FRACTIONAL, params[m], cfgs[m]))
    return out


def caputo_solve(params: ModelParams, cfg: FractionalConfig,
                 s0: State) -> Trajectory:
    """Trajectory of the Caputo-order system on the uniform grid.

    The initial state must be non-negative.  Raises DivergenceError if the
    history turns non-finite (possible for unvalidated parameter regimes).
    """
    traj, = caputo_solve_batch([(params, cfg, s0)])
    if isinstance(traj, Exception):
        raise traj
    return traj


def scalar_caputo_solve(lambda_coeff: float, sigma: float, y0: float,
                        h: float, t_end: float,
                        corrector_passes: int = 1) -> np.ndarray:
    """Solve the scalar test equation cD^sigma y = lambda*y.

    Runs the system solver's step loop on the coefficient row (lambda, 0,
    0, inf), whose field is (lambda*y, 0) on the pair (y, 0); mainly
    useful for order-of-convergence studies against the Mittag-Leffler
    solution y(t) = y0 * E_sigma(lambda * t^sigma).
    Raises DivergenceError if the solution turns non-finite.
    """
    cfg = FractionalConfig(sigma=sigma, h=h, t_end=t_end,
                           corrector_passes=corrector_passes)
    ys = _pece_history([(float(lambda_coeff), 0.0, 0.0, math.inf)],
                       [(float(y0), 0.0)], [sigma], h, cfg.n_steps(),
                       corrector_passes)
    exc = DivergenceError.first_in(ys[0], h)
    if exc is not None:
        raise exc
    return ys[0, :, 0]

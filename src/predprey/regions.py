"""Executable feasibility regions: positivity and conservation bounds.

Each scheme has a theorem-backed invariant region.  The bounds here are
the asymptotic ceilings; a trajectory is considered to violate a bound
only when it exceeds max(bound, its own starting value) plus a tolerance,
which is how a limsup statement translates to a pointwise check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import EULER, FRACTIONAL, MICKENS, REFERENCE, ModelParams, State, Trajectory
from .schemes import mickens_phi
from .special import mittag_leffler

# how far below zero a population may sit before it counts as negative
NEGATIVITY_TOL = 1e-12
# how far above a ceiling a total or prey value may sit before it counts
BOUND_TOL = 1e-9


@dataclass(frozen=True)
class RegionSpec:
    """Scheme-specific invariant region.

    ``numeric_bound`` caps the total W = D + L.  ``d_bound`` additionally
    caps the prey alone where the theorem provides one.  ``aux_bound`` is
    the Euler positivity threshold (1 + alpha*h)/(p*h).
    """

    scheme: str
    numeric_bound: float
    d_bound: Optional[float] = None
    aux_bound: Optional[float] = None

    def __post_init__(self):
        if not (math.isfinite(self.numeric_bound) and self.numeric_bound > 0.0):
            raise ValueError(f"numeric_bound must be positive and finite, "
                             f"got {self.numeric_bound!r}")


@dataclass(frozen=True, eq=False)
class ViolationReport:
    """Outcome of a region check; ``ok`` when nothing was violated."""

    trajectory: Trajectory
    first_violation_index: Optional[int]
    violated_quantity: Optional[str] = None
    observed: Optional[float] = None
    bound: Optional[float] = None

    @property
    def ok(self) -> bool:
        return self.first_violation_index is None


def _divisor(value: float, name: str) -> float:
    if value == 0.0:
        raise ValueError(f"{name} = 0: the region's bound divides by it")
    return value


def continuous_region(params: ModelParams, s0: State) -> RegionSpec:
    """Flow-invariant region: D <= M and W <= (alpha + 4*beta)/(4*beta) * M

    with M = max(D(0), capacity).
    """
    m = max(s0.d, params.capacity)
    w_bound = (params.alpha + 4.0 * params.beta) \
        / _divisor(4.0 * params.beta, "beta") * m
    return RegionSpec(REFERENCE, w_bound, d_bound=m)


def euler_region(params: ModelParams, h: float) -> RegionSpec:
    """Euler feasible region: W bounded by the capacity.

    Requires 1 - beta*h > 0; also records the positivity threshold
    (1 + alpha*h)/(p*h) that the non-negativity argument leans on.
    """
    slack = 1.0 - params.beta * h
    if slack <= 0.0:
        raise ValueError(
            f"1 - beta*h = {slack:g} <= 0: the Euler feasibility argument "
            "needs beta*h < 1")
    aux = (1.0 + params.alpha * h) / _divisor(params.p * h, "p*h")
    return RegionSpec(EULER, params.capacity, aux_bound=aux)


def mickens_region(params: ModelParams, h: float) -> RegionSpec:
    """NSFD invariant region, established for capacity 1 only:

    D <= 1 and limsup W <= (4*alpha^2 + xi*beta^2)/(4*alpha*beta),
    xi = 1 + alpha*phi(h).
    """
    if params.capacity != 1.0:
        raise ValueError("the Mickens W bound is only established for capacity 1")
    try:
        xi = 1.0 + params.alpha * mickens_phi(params, h)
        w_bound = (4.0 * params.alpha ** 2 + xi * params.beta ** 2) \
            / _divisor(4.0 * params.alpha * params.beta, "alpha*beta")
    except OverflowError:
        raise ValueError("the Mickens W bound overflows") from None
    return RegionSpec(MICKENS, w_bound, d_bound=1.0)


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
    beta = _divisor(params.beta, "beta")
    a = (params.alpha + 4.0 * beta) / 4.0 * m
    return ConservationBound(w0=float(w0), a=a, beta=beta)


def fractional_region(params: ModelParams, s0: State) -> RegionSpec:
    """Caputo-order conservation region: W <= W(0) + A/beta."""
    m = max(s0.d, params.capacity)
    cb = fractional_conservation_bound(params, s0.d + s0.l, m)
    return RegionSpec(FRACTIONAL, cb.bound)


def check_trajectory(traj: Trajectory, region: RegionSpec) -> ViolationReport:
    """Scan every recorded state against the region's bounds.

    The region must match the trajectory's scheme.  Reports the earliest
    violated quantity, or an ``ok`` report if every state passes.
    """
    if traj.scheme != region.scheme:
        raise ValueError(
            f"region for scheme {region.scheme!r} cannot check a "
            f"{traj.scheme!r} trajectory")
    d = traj.states[:, 0]
    l = traj.states[:, 1]
    # a diverged run may add inf to -inf; its NaN total fails no probe
    with np.errstate(invalid="ignore"):
        w = d + l

    probes = [
        ("D >= 0", d, -NEGATIVITY_TOL, "below"),
        ("L >= 0", l, -NEGATIVITY_TOL, "below"),
        ("D + L <= W bound", w, max(region.numeric_bound, w[0]) + BOUND_TOL,
         "above"),
    ]
    if region.d_bound is not None:
        probes.append(("D <= D bound", d, max(region.d_bound, d[0]) + BOUND_TOL,
                       "above"))
    if region.aux_bound is not None:
        probes.append(("D + L <= positivity threshold", w,
                       max(region.aux_bound, w[0]) + BOUND_TOL, "above"))

    hits = []
    for quantity, values, limit, side in probes:
        mask = values < limit if side == "below" else values > limit
        idx = np.flatnonzero(mask)
        if idx.size:
            i = int(idx[0])
            hits.append((i, quantity, float(values[i]), limit))
    if not hits:
        return ViolationReport(traj, None)
    i, quantity, observed, limit = min(hits)
    return ViolationReport(traj, i, quantity, observed, limit)

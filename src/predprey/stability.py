"""Equilibrium classification across the four formulations.

Continuous and Caputo-order dynamics share the Routh-Hurwitz half-plane
test on the characteristic quadratic of the flow Jacobian; Euler and
Mickens use the Schur-Cohn unit-circle test on their map Jacobians.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import (E3, EULER, FRACTIONAL, MICKENS, REFERENCE, Equilibrium,
                    ModelParams, State, check_order, equilibria)
from .schemes import mickens_phi

SADDLE = "saddle"
SINK = "sink"
SOURCE = "source"
NON_HYPERBOLIC = "non-hyperbolic"
OUT_OF_CRITERION = "out-of-criterion"

# criterion values closer to zero than this are treated as inconclusive
BOUNDARY_TOL = 1e-9


@dataclass(frozen=True)
class Quadratic:
    """Coefficients of c2*x^2 + c1*x + c0."""

    c2: float
    c1: float
    c0: float

    def __post_init__(self):
        # accept numpy scalars but store plain floats so the criterion
        # predicates and verdicts stay native python types
        for name in ("c2", "c1", "c0"):
            object.__setattr__(self, name, float(getattr(self, name)))

    def __call__(self, x):
        return (self.c2 * x + self.c1) * x + self.c0

    def monic(self) -> "Quadratic":
        if self.c2 == 0.0:
            raise ValueError("degenerate quadratic: c2 = 0")
        return Quadratic(1.0, self.c1 / self.c2, self.c0 / self.c2)

    def roots(self):
        """Both roots as complex numbers, via the stable quadratic formula."""
        m = self.monic()
        b, c = m.c1, m.c0
        disc = b * b - 4.0 * c
        if disc >= 0.0:
            sq = math.sqrt(disc)
            q = -0.5 * (b + math.copysign(sq, b)) if b != 0.0 else 0.5 * sq
            if q == 0.0:
                return complex(0.0), complex(0.0)
            return complex(q), complex(c / q)
        sq = cmath.sqrt(complex(disc))
        return (-b + sq) / 2.0, (-b - sq) / 2.0


def routh_hurwitz_quadratic(q: Quadratic) -> bool:
    """True iff both roots lie strictly in the open left half plane."""
    m = q.monic()
    return m.c1 > 0.0 and m.c0 > 0.0


@dataclass(frozen=True)
class SchurCohnResult:
    """The three unit-circle predicates for a monic quadratic P.

    All roots lie strictly inside the unit circle iff P(1) > 0,
    P(-1) > 0, and |P(0)| < 1.
    """

    at_one: float
    at_minus_one: float
    at_zero: float

    @property
    def inside_unit_circle(self) -> bool:
        return (self.at_one > 0.0 and self.at_minus_one > 0.0
                and abs(self.at_zero) < 1.0)


def schur_cohn_quadratic(q: Quadratic) -> SchurCohnResult:
    """Evaluate the unit-circle predicates on the monic form of q."""
    m = q.monic()
    return SchurCohnResult(at_one=m(1.0), at_minus_one=m(-1.0), at_zero=m(0.0))


def jacobian_continuous(params: ModelParams, s: State) -> np.ndarray:
    a, b, p, c = params.alpha, params.beta, params.p, params.capacity
    d, l = s.d, s.l
    return np.array([[a * (1.0 - 2.0 * d / c) - p * l, -p * d],
                     [p * l, p * d - b]])


def jacobian_euler(params: ModelParams, h: float, s: State) -> np.ndarray:
    """The Euler map x + h*f(x) has Jacobian I + h*J."""
    return np.eye(2) + h * jacobian_continuous(params, s)


def jacobian_mickens(params: ModelParams, h: float, s: State) -> np.ndarray:
    """Jacobian of the NSFD map, accounting for the sequential prey update.

    Unlike its siblings, which return entries that are not finite, it
    raises on Python floats: ZeroDivisionError where the denominator is
    zero and OverflowError where its square overflows.  ``classify``
    reports both as ``out-of-criterion``.
    """
    a, b, p, c = params.alpha, params.beta, params.p, params.capacity
    phi = mickens_phi(params, h)
    d, l = s.d, s.l
    num = 1.0 + a * phi
    den = 1.0 + p * phi * l + a * phi * d / c
    j11 = num * (1.0 + p * phi * l) / den ** 2
    j12 = -num * p * phi * d / den ** 2
    j21 = p * phi * l * num * (1.0 + p * phi * l) / ((1.0 + b * phi) * den ** 2)
    j22 = (1.0 + p * phi * num * d * (1.0 + a * phi * d / c) / den ** 2) \
        / (1.0 + b * phi)
    return np.array([[j11, j12], [j21, j22]])


def characteristic_quadratic(jac: np.ndarray) -> Quadratic:
    """Monic characteristic polynomial of a 2x2 matrix."""
    return Quadratic(1.0, -(jac[0, 0] + jac[1, 1]),
                     jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0])


def euler_step_bound(params: ModelParams) -> float:
    """Largest Euler step keeping the coexistence point a sink: 1/(p*C - beta)."""
    gap = params.p * params.capacity - params.beta
    if gap <= 0.0:
        raise ValueError(
            f"p*capacity - beta = {gap:g} <= 0: no coexistence equilibrium")
    return 1.0 / gap


@dataclass(frozen=True, eq=False)
class StabilityReport:
    """Classification of one equilibrium under one formulation."""

    equilibrium: Equilibrium
    scheme: str
    jacobian: Optional[np.ndarray]
    eigenvalues: Optional[tuple]
    classification: str
    criterion_details: dict
    step_bound: Optional[float] = None


def _eigenvalues(jac: np.ndarray, poly: Quadratic):
    # triangular matrices keep their diagonal exactly
    if jac[1, 0] == 0.0 or jac[0, 1] == 0.0:
        return complex(jac[0, 0]), complex(jac[1, 1])
    return poly.roots()


def _classify_halfplane(poly: Quadratic) -> str:
    c1, c0 = poly.c1, poly.c0
    if abs(c0) < BOUNDARY_TOL or (c0 > 0.0 and abs(c1) < BOUNDARY_TOL):
        return NON_HYPERBOLIC
    if c0 < 0.0:
        return SADDLE
    return SINK if routh_hurwitz_quadratic(poly) else SOURCE


def _classify_unit_circle(sc: SchurCohnResult, phi: float) -> str:
    # P(1) is phi^2 * c0 to leading order (phi: Euler's h, Mickens' phi(h))
    if (abs(sc.at_one) <= BOUNDARY_TOL * phi * phi
            or abs(sc.at_minus_one) < BOUNDARY_TOL):
        return NON_HYPERBOLIC
    crossings = (sc.at_one < 0.0) + (sc.at_minus_one < 0.0)
    if crossings == 1:
        return SADDLE
    if crossings == 2:
        return SOURCE
    # only with P(1) > 0 and P(-1) > 0 does |P(0)| = 1 put the roots on
    # the circle (a complex pair); a saddle's real roots can multiply to 1
    if abs(abs(sc.at_zero) - 1.0) < BOUNDARY_TOL:
        return NON_HYPERBOLIC
    return SINK if sc.inside_unit_circle else SOURCE


def classify(params: ModelParams, scheme: str, h_or_sigma=None):
    """Stability reports for every equilibrium under the given formulation.

    ``h_or_sigma`` is the step size for the discrete schemes and the order
    for the Caputo form (recorded but not used by the criterion, which for
    the admissible orders coincides with the continuous one); an order
    outside (0, 1] raises ValueError.  Criterion degeneracies come back
    as ``non-hyperbolic`` or ``out-of-criterion`` classifications rather
    than exceptions; so do points whose Jacobian overflows, divides by
    zero or gives a criterion value that is not finite (extreme
    unvalidated parameters, or a point that is not finite).  A point
    that does not exist is ``out-of-criterion`` with the reason from
    :func:`equilibria` in every case.
    """
    if scheme not in (REFERENCE, EULER, MICKENS, FRACTIONAL):
        raise ValueError(f"unknown scheme {scheme!r}")
    discrete = scheme in (EULER, MICKENS)
    if discrete:
        if h_or_sigma is None:
            raise ValueError(f"{scheme} classification needs a step size")
        h = float(h_or_sigma)
        if not h > 0.0:
            raise ValueError(f"step size must be positive, got {h!r}")
    elif scheme == FRACTIONAL and h_or_sigma is not None:
        check_order(h_or_sigma)

    reports = []
    for eq in equilibria(params):
        eig = step_bound = None
        try:
            # numpy products overflow to inf, and meet inf as nan,
            # without raising; a criterion built on them is no verdict
            with np.errstate(over="ignore", invalid="ignore"):
                if scheme == EULER:
                    jac = jacobian_euler(params, h, eq.point)
                elif scheme == MICKENS:
                    jac = jacobian_mickens(params, h, eq.point)
                else:
                    jac = jacobian_continuous(params, eq.point)
                poly = characteristic_quadratic(jac)
            if discrete:
                sc = schur_cohn_quadratic(poly)
                phi = h if scheme == EULER else mickens_phi(params, h)
                details = {"P(1)": sc.at_one, "P(-1)": sc.at_minus_one,
                           "P(0)": sc.at_zero}
            else:
                details = {"c1": poly.c1, "c0": poly.c0}
            if not np.isfinite([*jac.flat, *details.values()]).all():
                raise OverflowError
        except (OverflowError, ZeroDivisionError) as exc:
            jac, label = None, OUT_OF_CRITERION
            failure = ("overflows" if isinstance(exc, OverflowError)
                       else "divides by zero")
            details = {"reason": f"the {scheme} Jacobian {failure} at this point"}
        else:
            eig = _eigenvalues(jac, poly)
            label = (_classify_unit_circle(sc, phi) if discrete
                     else _classify_halfplane(poly))
            if scheme == FRACTIONAL and h_or_sigma is not None:
                details["sigma"] = float(h_or_sigma)
            if scheme == EULER and eq.label == E3 and eq.exists:
                try:
                    step_bound = euler_step_bound(params)
                except ValueError:
                    pass    # p*capacity < 0 lets E3 exist with no positive bound
        # non-existence outranks both a Jacobian failure and a verdict
        if not eq.exists:
            label = OUT_OF_CRITERION
            details["reason"] = eq.reason
        reports.append(StabilityReport(
            equilibrium=eq, scheme=scheme, jacobian=jac, eigenvalues=eig,
            classification=label, criterion_details=details,
            step_bound=step_bound))
    return reports

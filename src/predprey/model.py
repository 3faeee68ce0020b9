"""Core model definition: parameters, states, trajectories, and equilibria.

The system couples a logistically growing prey population D with a
predator population L:

    dD/dt = alpha*D*(1 - D/C) - p*D*L
    dL/dt = p*D*L - beta*L

All solvers in this package (reference, Euler, Mickens, Caputo-order)
advance exactly this right-hand side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

# scheme identifiers used in Trajectory provenance and region matching
REFERENCE = "reference"
EULER = "euler"
MICKENS = "mickens"
FRACTIONAL = "fractional"
SCHEMES = (REFERENCE, EULER, MICKENS, FRACTIONAL)

# equilibrium labels
E1 = "E1"
E2 = "E2"
E3 = "E3"


@dataclass(frozen=True)
class ModelParams:
    """Rate constants of the system, stored as plain floats.

    The default constructor enforces the ordering

        0 < alpha < beta < p*capacity < 1

    under which the coexistence equilibrium exists and is attracting.
    Use :meth:`unchecked` to build parameter sets outside that ordering;
    such instances carry ``validated=False``.  Both constructors reject a
    parameter that is not finite and capacity 0, where D/capacity has no
    value.
    """

    alpha: float
    beta: float
    p: float
    capacity: float
    validated: bool = True

    def __post_init__(self):
        for name in ("alpha", "beta", "p", "capacity"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, float(value))
        if self.capacity == 0.0:
            raise ValueError("capacity must be nonzero: the model divides by it")
        if self.validated:
            pc = self.p * self.capacity
            failed = [label for ok, label in (
                (0.0 < self.alpha, "0 < alpha"),
                (self.alpha < self.beta, "alpha < beta"),
                (self.beta < pc, "beta < p*capacity"),
                (pc < 1.0, "p*capacity < 1")) if not ok]
            if failed:
                raise ValueError(
                    "parameter ordering violated: " + ", ".join(failed)
                    + "; use ModelParams.unchecked to explore this regime")

    @classmethod
    def unchecked(cls, alpha, beta, p, capacity):
        """Build without the ordering check; flags the instance unvalidated."""
        return cls(alpha, beta, p, capacity, validated=False)


@dataclass(frozen=True)
class State:
    """Prey and predator populations (d, l), stored as plain floats."""

    d: float
    l: float

    def __post_init__(self):
        object.__setattr__(self, "d", float(self.d))
        object.__setattr__(self, "l", float(self.l))


@dataclass(frozen=True)
class Equilibrium:
    """A fixed point of the flow, with its existence status.

    ``exists`` is False when the point lies outside D, L >= 0 or, for E3,
    when 1 - beta/(p*capacity) > 0 fails; ``reason`` then says why.
    """

    label: str
    point: State
    exists: bool = True
    reason: Optional[str] = None


def grid_steps(h: float, t_end: float) -> int:
    """Steps n of width h covering [0, t_end]; h > 0, t_end >= h, and t_end/h
    and the last time n*h finite."""
    if not h > 0.0:
        raise ValueError(f"h must be positive, got {h!r}")
    if not t_end >= h:
        raise ValueError(f"t_end must be at least h, got {t_end!r}")
    steps = t_end / h
    # ceil, but t_end/h a hair above an integer counts as that integer: by
    # 1e-9 of a step, or past 2**21 steps by a few ulps of t_end/h
    hair = min(steps % 1.0, max(1e-9, 4.0 * math.ulp(steps)))
    n = math.ceil(steps - hair) if math.isfinite(steps) else math.inf
    if not math.isfinite(n * h):
        raise ValueError(f"t_end/h and the last grid time must be finite, "
                         f"got {t_end!r}/{h!r}")
    return n


def check_order(sigma: float) -> None:
    """Raise ValueError unless the Caputo order lies in (0, 1]."""
    if not 0.0 < sigma <= 1.0:
        raise ValueError(f"sigma must lie in (0, 1], got {sigma!r}")


def rate_field(params: ModelParams):
    """The field as f(d, l) -> (dD/dt, dL/dt), parameters bound as floats.

    The four RK4 stages in schemes.iterate and the Caputo step loop in
    fractional._pece_history repeat this grouping inline;
    test_rk4_stages_repeat_the_rate_field and
    test_caputo_steps_repeat_the_rate_field hold them equal bit for bit.
    """
    alpha, beta, p, capacity = (params.alpha, params.beta, params.p,
                                params.capacity)

    def f(d, l):
        pdl = p * d * l
        return alpha * d * (1.0 - d / capacity) - pdl, pdl - beta * l
    return f


def equilibria(params: ModelParams):
    """All fixed points: extinction E1, prey-only E2, coexistence E3.

    E3 = (beta/p, (alpha/p)*(1 - beta/(p*capacity))). A point with a
    negative coordinate, or an E3 left undefined by p*capacity = 0 (p = 0
    or the product underflowing), is reported non-existent.
    """
    out = [
        Equilibrium(E1, State(0.0, 0.0)),
        Equilibrium(E2, State(params.capacity, 0.0)),
    ]
    pc = params.p * params.capacity
    if pc == 0.0:
        zero = "p = 0" if params.p == 0.0 else "p*capacity underflows to 0"
        out.append(Equilibrium(E3, State(math.nan, math.nan), exists=False,
                               reason=f"{zero}: no coexistence point"))
    else:
        margin = 1.0 - params.beta / pc
        point = State(params.beta / params.p, params.alpha / params.p * margin)
        reason = None if margin > 0.0 else "beta >= p*capacity"
        out.append(Equilibrium(E3, point, exists=margin > 0.0, reason=reason))
    return [replace(eq, exists=False, reason="negative coordinate: outside D, L >= 0")
            if eq.exists and min(eq.point.d, eq.point.l) < 0.0 else eq
            for eq in out]


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Time grid plus the matching (n, 2) array of states.

    ``times`` must be strictly increasing and finite, and the arrays
    congruent.  The ``params`` and ``config`` fields are provenance and
    may be None (for instance when a trajectory is re-read from CSV).
    """

    times: np.ndarray
    states: np.ndarray
    scheme: str
    params: Optional[ModelParams] = None
    config: object = None

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        states = np.asarray(self.states, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)
        if times.ndim != 1 or times.size < 1:
            raise ValueError("times must be a nonempty 1-d array")
        if states.shape != (times.size, 2):
            raise ValueError(
                f"states must have shape ({times.size}, 2), got {states.shape}")
        # compared, not subtracted: inf - inf would warn before the error
        if not np.all(times[1:] > times[:-1]):
            raise ValueError("times must be strictly increasing")
        if not np.isfinite(times).all():
            raise ValueError("times must be finite")

    def __len__(self):
        return int(self.times.size)

    def state(self, i: int) -> State:
        return State(self.states[i, 0], self.states[i, 1])

    @property
    def initial(self) -> State:
        return self.state(0)

    @property
    def final(self) -> State:
        return self.state(-1)

    @property
    def prey(self) -> np.ndarray:
        return self.states[:, 0]

    @property
    def predator(self) -> np.ndarray:
        return self.states[:, 1]

    @property
    def totals(self) -> np.ndarray:
        """W_n = D_n + L_n along the trajectory."""
        return self.states.sum(axis=1)

"""Classical time steppers: RK4 reference, explicit Euler, Mickens NSFD."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .model import (EULER, MICKENS, REFERENCE, ModelParams, State, Trajectory,
                    grid_steps, rates)


class DivergenceError(RuntimeError):
    """An integration produced a non-finite state."""

    def __init__(self, message, time=None, step=None):
        super().__init__(message)
        self.time = time
        self.step = step


class StepSizeWarning(UserWarning):
    """Euler step size violates 1 - beta*h > 0."""


@dataclass(frozen=True)
class SchemeConfig:
    """Grid and scheme selection for the classical solvers."""

    h: float
    t_end: float
    scheme: str = REFERENCE

    def __post_init__(self):
        grid_steps(self.h, self.t_end)
        if self.scheme not in (REFERENCE, EULER, MICKENS):
            raise ValueError(f"unknown classical scheme {self.scheme!r}")

    def n_steps(self) -> int:
        return grid_steps(self.h, self.t_end)


def mickens_phi(params: ModelParams, h: float) -> float:
    """Denominator function phi(h) = (1 - exp(-beta*h))/beta.

    Computed through expm1 so small beta*h does not cancel; reduces to h
    in the limit beta -> 0.
    """
    bh = params.beta * h
    if bh == 0.0:
        return h
    return -math.expm1(-bh) / params.beta


@dataclass(frozen=True)
class MickensAux:
    """Derived step quantities for the NSFD map: phi(h) and xi = 1 + alpha*phi."""

    phi: float
    xi: float

    @classmethod
    def for_step(cls, params: ModelParams, h: float) -> "MickensAux":
        phi = mickens_phi(params, h)
        return cls(phi=phi, xi=1.0 + params.alpha * phi)


def euler_step(params: ModelParams, h: float, s: State) -> State:
    """One explicit Euler update of (d, l)."""
    d, l = s.d, s.l
    d_next = d * (params.alpha * h * (1.0 - d / params.capacity)
                  - params.p * h * l + 1.0)
    l_next = l * (params.p * h * d - params.beta * h + 1.0)
    return State(d_next, l_next)


def mickens_step(params: ModelParams, h: float, s: State) -> State:
    """One nonstandard finite-difference update.

    The predator update uses the already-advanced prey value, which is
    what makes the map unconditionally positive for non-negative states.
    """
    phi = mickens_phi(params, h)
    d, l = s.d, s.l
    d_next = (params.alpha * phi + 1.0) * d / (
        1.0 + params.p * phi * l + params.alpha * phi * d / params.capacity)
    l_next = (params.p * phi * d_next + 1.0) * l / (1.0 + params.beta * phi)
    return State(d_next, l_next)


def rk4_step(params: ModelParams, h: float, s: State) -> State:
    """One classical fourth-order Runge-Kutta update."""
    d, l = s.d, s.l
    k1d, k1l = rates(params, d, l)
    k2d, k2l = rates(params, d + 0.5 * h * k1d, l + 0.5 * h * k1l)
    k3d, k3l = rates(params, d + 0.5 * h * k2d, l + 0.5 * h * k2l)
    k4d, k4l = rates(params, d + h * k3d, l + h * k3l)
    return State(d + h * (k1d + 2.0 * k2d + 2.0 * k3d + k4d) / 6.0,
                 l + h * (k1l + 2.0 * k2l + 2.0 * k3l + k4l) / 6.0)


_STEPPERS = {REFERENCE: rk4_step, EULER: euler_step, MICKENS: mickens_step}


def iterate(params: ModelParams, cfg: SchemeConfig, s0: State) -> Trajectory:
    """Drive the configured stepper across the grid, recording every state.

    The number of steps is ceil(t_end/h); the returned trajectory has one
    more point than that.  Euler runs under validated parameters warn when
    1 - beta*h <= 0 (predator positivity is then no longer guaranteed).
    Only the reference scheme raises DivergenceError on non-finite states;
    Euler is left free to misbehave since exposing that is part of the
    point of having it.
    """
    if cfg.scheme == EULER and params.validated:
        slack = 1.0 - params.beta * cfg.h
        if slack <= 0.0:
            warnings.warn(
                f"1 - beta*h = {slack:g} <= 0: Euler updates can drive the "
                "predator population negative", StepSizeWarning, stacklevel=2)

    step = _STEPPERS[cfg.scheme]
    n = cfg.n_steps()
    times = np.arange(n + 1, dtype=float) * cfg.h
    states = np.empty((n + 1, 2), dtype=float)
    states[0] = (s0.d, s0.l)

    s = s0
    for i in range(n):
        try:
            s = step(params, cfg.h, s)
        except Exception as exc:
            if hasattr(exc, "add_note"):
                exc.add_note(f"while advancing step {i + 1} at t = {times[i]:g}")
            raise
        if cfg.scheme == REFERENCE and not (
                math.isfinite(s.d) and math.isfinite(s.l)):
            raise DivergenceError(
                f"non-finite state at t = {times[i + 1]:g} (step {i + 1})",
                time=float(times[i + 1]), step=i + 1)
        states[i + 1] = (s.d, s.l)
    return Trajectory(times, states, cfg.scheme, params, cfg)


def reference_solve(params: ModelParams, s0: State, t_end: float,
                    h: float) -> Trajectory:
    """Ground-truth trajectory by fixed-step RK4 on the shared grid."""
    return iterate(params, SchemeConfig(h=h, t_end=t_end, scheme=REFERENCE), s0)

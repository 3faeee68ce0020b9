"""Classical time steppers: RK4 reference, explicit Euler, Mickens NSFD."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .model import (EULER, MICKENS, REFERENCE, ModelParams, State, Trajectory,
                    grid_steps, rate_field)


class DivergenceError(RuntimeError):
    """An integration produced a non-finite state."""

    def __init__(self, message, time=None, step=None):
        super().__init__(message)
        self.time = time
        self.step = step

    @classmethod
    def at_step(cls, step: int, h: float) -> "DivergenceError":
        """The error for a first non-finite state at grid step ``step``."""
        t = step * h
        return cls(f"non-finite state at t = {t:g} (step {step})",
                   time=t, step=step)


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


def _stepper(scheme: str, params: ModelParams, h: float):
    """The update formula of a classical scheme, as step(d, l) -> (d, l).

    The parameters, h and the step constants are bound once as floats.
    Products are grouped exactly as the written-out maps group them
    (alpha*h*x is (alpha*h)*x), so hoisting them changes no bit.
    """
    alpha, beta, p, capacity = (params.alpha, params.beta, params.p,
                                params.capacity)
    if scheme == EULER:
        ah, ph, bh = alpha * h, p * h, beta * h

        def step(d, l):
            return (d * (ah * (1.0 - d / capacity) - ph * l + 1.0),
                    l * (ph * d - bh + 1.0))
    elif scheme == MICKENS:
        phi = mickens_phi(params, h)
        xi, aphi, pphi = 1.0 + alpha * phi, alpha * phi, p * phi
        decay = 1.0 + beta * phi

        def step(d, l):
            d = xi * d / (1.0 + pphi * l + aphi * d / capacity)
            return d, (pphi * d + 1.0) * l / decay
    else:
        f = rate_field(params)
        hh = 0.5 * h

        def step(d, l):
            k1d, k1l = f(d, l)
            k2d, k2l = f(d + hh * k1d, l + hh * k1l)
            k3d, k3l = f(d + hh * k2d, l + hh * k2l)
            k4d, k4l = f(d + h * k3d, l + h * k3l)
            return (d + h * (k1d + 2.0 * k2d + 2.0 * k3d + k4d) / 6.0,
                    l + h * (k1l + 2.0 * k2l + 2.0 * k3l + k4l) / 6.0)
    return step


def euler_step(params: ModelParams, h: float, s: State) -> State:
    """One explicit Euler update of (d, l)."""
    return State(*_stepper(EULER, params, h)(s.d, s.l))


def mickens_step(params: ModelParams, h: float, s: State) -> State:
    """One nonstandard finite-difference update.

    The predator update uses the already-advanced prey value, which is
    what makes the map unconditionally positive for non-negative states.
    """
    return State(*_stepper(MICKENS, params, h)(s.d, s.l))


def rk4_step(params: ModelParams, h: float, s: State) -> State:
    """One classical fourth-order Runge-Kutta update."""
    return State(*_stepper(REFERENCE, params, h)(s.d, s.l))


def iterate(params: ModelParams, cfg: SchemeConfig, s0: State) -> Trajectory:
    """Drive the configured stepper across the grid, recording every state.

    The number of steps is ceil(t_end/h); the returned trajectory has one
    more point than that.  Euler runs under validated parameters warn when
    1 - beta*h <= 0 (predator positivity is then no longer guaranteed).
    Only the reference scheme raises DivergenceError on non-finite states;
    Euler is left free to misbehave since exposing that is part of the
    point of having it.  A step that divides by zero (capacity 0) has no
    finite state either, and raises DivergenceError under every scheme.
    """
    if cfg.scheme == EULER and params.validated:
        slack = 1.0 - params.beta * cfg.h
        if slack <= 0.0:
            warnings.warn(
                f"1 - beta*h = {slack:g} <= 0: Euler updates can drive the "
                "predator population negative", StepSizeWarning, stacklevel=2)

    step = _stepper(cfg.scheme, params, cfg.h)
    n = cfg.n_steps()
    times = np.arange(n + 1, dtype=float) * cfg.h
    states = np.empty((n + 1, 2))
    d, l = states[0] = s0.d, s0.l
    # a flat memoryview takes float items much faster than numpy rows
    with memoryview(states.reshape(-1)) as flat:
        try:
            for i in range(2, 2 * n + 2, 2):
                d, l = step(d, l)
                flat[i] = d
                flat[i + 1] = l
        except ZeroDivisionError as exc:
            raise DivergenceError.at_step(i // 2, cfg.h) from exc
        except Exception as exc:
            if hasattr(exc, "add_note"):
                exc.add_note(f"while advancing step {i // 2} "
                             f"at t = {times[i // 2 - 1]:g}")
            raise
    if cfg.scheme == REFERENCE:
        finite = np.isfinite(states).all(axis=1)
        if not finite.all():
            raise DivergenceError.at_step(int(np.argmin(finite)), cfg.h)
    return Trajectory(times, states, cfg.scheme, params, cfg)


def reference_solve(params: ModelParams, s0: State, t_end: float,
                    h: float) -> Trajectory:
    """Ground-truth trajectory by fixed-step RK4 on the shared grid."""
    return iterate(params, SchemeConfig(h=h, t_end=t_end, scheme=REFERENCE), s0)

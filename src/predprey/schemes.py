"""Classical time steppers: RK4 reference, explicit Euler, Mickens NSFD."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .model import (EULER, MICKENS, REFERENCE, ModelParams, State, Trajectory,
                    grid_steps)


class DivergenceError(RuntimeError):
    """An integration produced a non-finite state at some grid step."""

    time = step = None

    @classmethod
    def at_step(cls, step: int, h: float) -> "DivergenceError":
        """The error for a first non-finite state at grid step ``step``."""
        t = step * h
        exc = cls(f"non-finite state at t = {t:g} (step {step})")
        exc.time, exc.step = t, step
        return exc

    @classmethod
    def first_in(cls, states, h: float):
        """The error for the first row of ``states`` (one state per grid
        step) that is not all finite, or None when every value is."""
        finite = np.isfinite(states)
        if not finite.all():
            return cls.at_step(int(np.argmin(finite.all(axis=1))), h)


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


def iterate(params: ModelParams, cfg: SchemeConfig, s0: State) -> Trajectory:
    """Run the configured scheme's loop over the grid, recording each state.

    The number of steps is ceil(t_end/h); the returned trajectory has one
    more point than that.  Each scheme's update (Euler, Mickens, and the
    four stages of RK4) is written once, inline in its loop on plain
    floats, so no loop makes a Python call per step.  Products are grouped
    exactly as the written-out maps group them (alpha*h*x is
    (alpha*h)*x), so hoisting them changes no bit; each RK4 stage repeats
    model.rate_field's grouping.  Mickens' predator update uses the
    advanced prey value, which keeps that map positive from non-negative
    states.  Euler runs under validated parameters warn when
    1 - beta*h <= 0 (predator positivity is then no longer guaranteed).
    Every scheme raises DivergenceError at the first state that is not
    finite, the start included.  Mickens step constants that overflow
    (phi once beta*h is below about -709) raise it at step 1 before the
    grid is allocated, and a Mickens denominator that reaches zero raises
    it at that step.
    """
    scheme, h = cfg.scheme, cfg.h
    alpha, beta, p, capacity = (params.alpha, params.beta, params.p,
                                params.capacity)
    if scheme == EULER and params.validated:
        slack = 1.0 - beta * h
        if slack <= 0.0:
            warnings.warn(
                f"1 - beta*h = {slack:g} <= 0: Euler updates can drive the "
                "predator population negative", StepSizeWarning, stacklevel=2)
    elif scheme == MICKENS:
        try:
            phi = mickens_phi(params, h)
        except OverflowError as exc:
            raise DivergenceError.at_step(1, h) from exc

    n = cfg.n_steps()
    times = np.arange(n + 1, dtype=float) * h
    states = np.empty((n + 1, 2))
    states[0] = s0.d, s0.l
    # a flat memoryview takes float items much faster than numpy rows;
    # state k is flat[2k], flat[2k + 1]
    with memoryview(states.reshape(-1)) as flat:
        d, l = flat[0], flat[1]
        if scheme == EULER:
            ah, ph, bh = alpha * h, p * h, beta * h
            for i in range(2, len(flat), 2):
                d, l = (d * (ah * (1.0 - d / capacity) - ph * l + 1.0),
                        l * (ph * d - bh + 1.0))
                flat[i] = d
                flat[i + 1] = l
        elif scheme == MICKENS:
            xi, aphi, pphi = 1.0 + alpha * phi, alpha * phi, p * phi
            decay = 1.0 + beta * phi
            try:
                for i in range(2, len(flat), 2):
                    d = xi * d / (1.0 + pphi * l + aphi * d / capacity)
                    l = (pphi * d + 1.0) * l / decay
                    flat[i] = d
                    flat[i + 1] = l
            except ZeroDivisionError as exc:
                raise DivergenceError.at_step(i // 2, h) from exc
        else:
            hh = 0.5 * h
            for i in range(2, len(flat), 2):
                pdl = p * d * l
                k1d, k1l = alpha * d * (1.0 - d / capacity) - pdl, pdl - beta * l
                x, y = d + hh * k1d, l + hh * k1l
                pdl = p * x * y
                k2d, k2l = alpha * x * (1.0 - x / capacity) - pdl, pdl - beta * y
                x, y = d + hh * k2d, l + hh * k2l
                pdl = p * x * y
                k3d, k3l = alpha * x * (1.0 - x / capacity) - pdl, pdl - beta * y
                x, y = d + h * k3d, l + h * k3l
                pdl = p * x * y
                k4d, k4l = alpha * x * (1.0 - x / capacity) - pdl, pdl - beta * y
                d, l = (d + h * (k1d + 2.0 * k2d + 2.0 * k3d + k4d) / 6.0,
                        l + h * (k1l + 2.0 * k2l + 2.0 * k3l + k4l) / 6.0)
                flat[i] = d
                flat[i + 1] = l
    exc = DivergenceError.first_in(states, h)
    if exc is not None:
        raise exc
    return Trajectory(times, states, scheme, params, cfg)

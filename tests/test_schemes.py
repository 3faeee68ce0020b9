"""Single steps, grids, and whole-trajectory behavior of the integrators.

Flow reference values are frozen from a 40-digit adaptive Taylor
integration of the vector field (see ``tests/oracles.py``).
"""
import hashlib
import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from predprey import (
    DEFAULT_INITIAL,
    DEFAULT_PARAMS,
    EULER,
    MICKENS,
    REFERENCE,
    DivergenceError,
    ModelParams,
    SchemeConfig,
    State,
    StepSizeWarning,
    equilibria,
    iterate,
    mickens_phi,
    rate_field,
)

from conftest import one_step, valid_params

FLOW_T0125 = np.array([0.19805170291487033, 0.29184806446158102])
FLOW_T025 = np.array([0.19620371110464386, 0.28389070330181207])
FLOW_T10 = np.array([0.18790530704383112, 0.030492839719539681])
E3_POINT = np.array([0.75, 0.03125])

# (scheme, h, t_end, unchecked parameters or None for DEFAULT_PARAMS, final
# d and l as float.hex, sha256 prefix of the states' bytes), all started at
# DEFAULT_INITIAL.  Frozen from the State-per-step loop; the float loop must
# reproduce every bit.
FROZEN_RUNS = [
    (REFERENCE, 0.25, 300.0, None, "0x1.7b880acad9283p-1",
     "0x1.08a54e4d0625cp-5", "58bdbab9e0ea6d33"),
    (EULER, 0.25, 300.0, None, "0x1.7b364de6d4b81p-1",
     "0x1.0bafb622f5744p-5", "15696a07926cf1f1"),
    (MICKENS, 0.25, 300.0, None, "0x1.7fdc862f6eb72p-1",
     "0x1.135611e5b47cfp-5", "ef86ca7e723b5f79"),
    (REFERENCE, 0.01, 300.0, None, "0x1.7b880acaca932p-1",
     "0x1.08a54e601591bp-5", "4e78d75e54f26c55"),
    (EULER, 0.01, 300.0, None, "0x1.7b8459871a66cp-1",
     "0x1.08c11fd8ca9b4p-5", "a0f892b842621987"),
    (MICKENS, 0.01, 300.0, None, "0x1.7b8e9575ac459p-1",
     "0x1.096ddefa148dcp-5", "d927bf785cc0aea2"),
    (MICKENS, 50.0, 3000.0, None, "0x1.ce2fba28a9b62p-1",
     "0x1.73e85ec2e513bp-6", "ce4357cc63f55151"),
    (EULER, 4.0, 400.0, (0.05, 0.3, 0.4, 1.0), "0x1.90ee514f73624p-1",
     "0x1.3e0a20615f9efp-6", "9653142144bcbe44"),
]


def _final(params, scheme, h, t_end, s0):
    traj = iterate(params, SchemeConfig(h=h, t_end=t_end, scheme=scheme), s0)
    return np.array([traj.final.d, traj.final.l])


class TestSchemeConfig:
    def test_step_count(self):
        assert SchemeConfig(h=0.25, t_end=300.0).n_steps() == 1200

    def test_partial_last_step_rounds_up(self):
        assert SchemeConfig(h=0.3, t_end=1.0).n_steps() == 4

    def test_near_integer_ratio_not_inflated(self):
        # 0.9/0.3 is 3.0000000000000004 in doubles; must stay 3 steps
        assert SchemeConfig(h=0.3, t_end=0.9).n_steps() == 3
        # 21e6/0.7 is one ulp above 3e7, which 1e-9 of a step does not span
        assert SchemeConfig(h=0.7, t_end=21000000.0).n_steps() == 30000000
        # an exact ratio keeps its count where an ulp is a whole step
        assert SchemeConfig(h=1.0, t_end=2.0 ** 52).n_steps() == 2 ** 52

    @pytest.mark.parametrize("kw", [
        dict(h=0.0, t_end=1.0),
        dict(h=-0.1, t_end=1.0),
        dict(h=0.1, t_end=0.0),
        dict(h=0.1, t_end=1.0, scheme="cranknicolson"),
        # t_end/h is not finite: no step count
        dict(h=0.25, t_end=math.inf),
        dict(h=1e-320, t_end=300.0),
        # two steps of 1.6e308 end past the float range
        dict(h=1.6e308, t_end=1.7e308),
    ])
    def test_invalid_configs(self, kw):
        with pytest.raises(ValueError):
            SchemeConfig(**kw)


class TestEulerStep:
    def test_reference_point(self, params, s0):
        s1 = one_step(EULER, params, 0.25, s0)
        assert s1.d == pytest.approx(0.196, rel=1e-15)
        assert s1.l == pytest.approx(0.2835, rel=1e-15)

    def test_equilibria_are_fixed_points(self, params):
        for eq in equilibria(params):
            s1 = one_step(EULER, params, 0.25, eq.point)
            assert s1.d == eq.point.d
            assert s1.l == eq.point.l

    def test_first_order_local_error(self, params, s0):
        s1 = one_step(EULER, params, 0.25, s0)
        err = np.abs(np.array([s1.d, s1.l]) - FLOW_T025).max()
        assert 1e-5 < err < 1e-2


class TestMickensStep:
    def test_denominator_function(self, params):
        phi = mickens_phi(params, 0.25)
        assert phi == pytest.approx(0.24085504557149036, rel=1e-14)

    def test_denominator_function_small_h(self, params):
        # phi(h) = h - beta h^2/2 + O(h^3)
        h = 1e-8
        assert mickens_phi(params, h) == pytest.approx(h, rel=1e-7)

    def test_denominator_function_saturates(self, params):
        assert mickens_phi(params, 1e9) == pytest.approx(1.0 / params.beta,
                                                         rel=1e-12)

    def test_zero_decay_rate_degenerates_to_h(self):
        p = ModelParams.unchecked(0.05, 0.0, 0.4, 1.0)
        assert mickens_phi(p, 0.25) == 0.25

    def test_reference_point(self, params, s0):
        s1 = one_step(MICKENS, params, 0.25, s0)
        assert s1.d == pytest.approx(0.19626331907009184, rel=1e-14)
        assert s1.l == pytest.approx(0.28507406332501756, rel=1e-14)

    def test_equilibria_are_fixed_points(self, params):
        for eq in equilibria(params):
            s1 = one_step(MICKENS, params, 0.25, eq.point)
            assert s1.d == pytest.approx(eq.point.d, abs=5e-16)
            assert s1.l == pytest.approx(eq.point.l, abs=5e-16)

    @pytest.mark.parametrize("h", [0.1, 1.0, 10.0, 50.0])
    def test_positivity_any_step_size(self, params, h):
        rng = np.random.default_rng(7)
        for d0, l0 in rng.uniform(0.0, 1.0, size=(50, 2)):
            s1 = one_step(MICKENS, params, h, State(d0, l0))
            assert s1.d >= 0.0
            assert s1.l >= 0.0

    def test_overflowing_constants_diverge_at_first_step(self, s0):
        # beta*h = -1000: exp(-beta*h) in mickens_phi overflows
        p = ModelParams.unchecked(0.05, -1000.0, 0.4, 1.0)
        with pytest.raises(DivergenceError) as info:
            one_step(MICKENS, p, 1.0, s0)
        assert info.value.step == 1
        assert info.value.time == 1.0


class TestRk4Step:
    def test_single_step_accuracy(self, params, s0):
        s1 = one_step(REFERENCE, params, 0.25, s0)
        err = np.abs(np.array([s1.d, s1.l]) - FLOW_T025).max()
        assert err <= 2e-9

    def test_local_order_five(self, params, s0):
        # halving h shrinks the one-step error by about 2^5
        full = one_step(REFERENCE, params, 0.25, s0)
        half = one_step(REFERENCE, params, 0.125, s0)
        e_full = np.abs(np.array([full.d, full.l]) - FLOW_T025).max()
        e_half = np.abs(np.array([half.d, half.l]) - FLOW_T0125).max()
        assert e_full / e_half == pytest.approx(32.0, rel=0.35)


class TestIterate:
    def test_grid_and_metadata(self, params, s0):
        cfg = SchemeConfig(h=0.25, t_end=10.0, scheme=EULER)
        traj = iterate(params, cfg, s0)
        assert len(traj) == 41
        np.testing.assert_allclose(traj.times, np.arange(41) * 0.25)
        assert traj.scheme == EULER
        assert traj.params is params
        assert traj.config is cfg
        assert traj.initial == s0

    def test_euler_warns_when_predator_step_unsafe(self, params, s0):
        cfg = SchemeConfig(h=4.0, t_end=8.0, scheme=EULER)
        with pytest.warns(StepSizeWarning, match="beta"):
            iterate(params, cfg, s0)

    def test_euler_silent_at_safe_step(self, params, s0, recwarn):
        iterate(params, SchemeConfig(h=0.25, t_end=1.0, scheme=EULER), s0)
        assert not [w for w in recwarn if issubclass(w.category,
                                                     StepSizeWarning)]

    def test_unvalidated_parameters_do_not_warn(self, s0, recwarn):
        p = ModelParams.unchecked(0.05, 0.3, 0.4, 1.0)
        iterate(p, SchemeConfig(h=4.0, t_end=8.0, scheme=EULER), s0)
        assert not [w for w in recwarn if issubclass(w.category,
                                                     StepSizeWarning)]

    def test_zero_denominator_in_mid_run_diverges_at_its_step(self):
        # phi = h = 1: step 1 goes to (1, -1), where the prey denominator
        # 1 + l + 0*d/capacity is exactly 0
        p = ModelParams.unchecked(0.0, 0.0, 1.0, 1.0)
        with pytest.raises(DivergenceError) as info:
            iterate(p, SchemeConfig(h=1.0, t_end=5.0, scheme=MICKENS),
                    State(0.5, -0.5))
        assert (info.value.step, info.value.time) == (2, 2.0)

    def test_overflowing_mickens_constants_diverge_at_first_step(self, s0):
        # beta*h = -1000: exp(-beta*h) in mickens_phi overflows
        p = ModelParams.unchecked(0.05, -1000.0, 0.4, 1.0)
        with pytest.raises(DivergenceError) as info:
            iterate(p, SchemeConfig(h=1.0, t_end=10.0, scheme=MICKENS), s0)
        assert info.value.step == 1
        assert info.value.time == 1.0

    def test_reference_divergence_detected(self):
        # inverted capacity turns logistic damping into superlinear growth
        p = ModelParams.unchecked(1.0, 0.5, 0.1, -1.0)
        with np.errstate(all="ignore"), pytest.raises(DivergenceError) as info:
            iterate(p, SchemeConfig(h=0.5, t_end=500.0, scheme=REFERENCE),
                    State(2.0, 0.1))
        assert info.value.step is not None
        assert info.value.time == pytest.approx(
            info.value.step * 0.5, rel=1e-12)

    def test_euler_divergence_detected(self):
        # 1 - beta*h = -5: the predator flips sign and grows each step
        # until it overflows to inf at step 10
        cfg = SchemeConfig(h=20.0, t_end=3000.0, scheme=EULER)
        with pytest.warns(StepSizeWarning), \
                pytest.raises(DivergenceError) as info:
            iterate(DEFAULT_PARAMS, cfg, DEFAULT_INITIAL)
        assert (info.value.step, info.value.time) == (10, 200.0)

    @pytest.mark.parametrize("scheme", [REFERENCE, EULER, MICKENS])
    def test_non_finite_start_diverges_at_step_zero(self, params, scheme):
        with pytest.raises(DivergenceError) as info:
            iterate(params, SchemeConfig(h=0.25, t_end=5.0, scheme=scheme),
                    State(math.nan, 0.3))
        assert (info.value.step, info.value.time) == (0, 0.0)


class TestLongRuns:
    def test_reference_grid_refinement_agrees(self, params, s0):
        coarse = iterate(params, SchemeConfig(h=0.25, t_end=300.0), s0).final
        fine = iterate(params, SchemeConfig(h=0.025, t_end=300.0), s0).final
        gap = max(abs(coarse.d - fine.d), abs(coarse.l - fine.l))
        assert gap <= 1e-8

    def test_reference_long_run_approach_level(self, params, s0):
        # The damped spiral is still 8.7e-3 from the coexistence point at
        # t = 300 (decay envelope exp(-0.01875 t) with amplitude above 2),
        # a level confirmed against 40-digit integration.  Freeze it.
        final = iterate(params, SchemeConfig(h=0.25, t_end=300.0), s0).final
        dist = max(abs(final.d - E3_POINT[0]), abs(final.l - E3_POINT[1]))
        assert dist == pytest.approx(0.008727705705879552, abs=1e-9)

    def test_euler_global_order_one(self, params, s0):
        e1 = np.abs(_final(params, EULER, 0.1, 10.0, s0) - FLOW_T10).max()
        e2 = np.abs(_final(params, EULER, 0.05, 10.0, s0) - FLOW_T10).max()
        assert 1.7 <= e1 / e2 <= 2.3

    def test_mickens_global_order_one(self, params, s0):
        # 2.61e-3 and 1.33e-3 from the flow: ratio 1.96
        e1 = np.abs(_final(params, MICKENS, 0.1, 10.0, s0) - FLOW_T10).max()
        e2 = np.abs(_final(params, MICKENS, 0.05, 10.0, s0) - FLOW_T10).max()
        assert 1.7 <= e1 / e2 <= 2.3

    def test_rk4_global_order_four(self, params, s0):
        e1 = np.abs(_final(params, REFERENCE, 0.1, 10.0, s0) - FLOW_T10).max()
        e2 = np.abs(_final(params, REFERENCE, 0.05, 10.0, s0) - FLOW_T10).max()
        assert e1 <= 1e-9
        assert 12.0 <= e1 / e2 <= 20.0

    def test_mickens_large_step_still_converges(self, params, s0):
        final = _final(params, MICKENS, 5.0, 3000.0, s0)
        assert np.abs(final - E3_POINT).max() <= 1e-4


class TestBitExact:
    @pytest.mark.parametrize("scheme,h,t_end,unchecked,d_hex,l_hex,digest",
                             FROZEN_RUNS)
    def test_trajectory_matches_frozen_bits(self, scheme, h, t_end, unchecked,
                                            d_hex, l_hex, digest):
        params = (DEFAULT_PARAMS if unchecked is None
                  else ModelParams.unchecked(*unchecked))
        traj = iterate(params, SchemeConfig(h=h, t_end=t_end, scheme=scheme),
                       DEFAULT_INITIAL)
        assert (traj.final.d.hex(), traj.final.l.hex()) == (d_hex, l_hex)
        assert hashlib.sha256(traj.states.tobytes()).hexdigest()[:16] == digest


@settings(max_examples=60, deadline=None)
@given(params=valid_params(),
       h=st.floats(0.0, 100.0, exclude_min=True),
       steps=st.integers(1, 200),
       start=st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 10.0)))
def test_mickens_stays_finite_and_non_negative(params, h, steps, start):
    cfg = SchemeConfig(h=h, t_end=h * steps, scheme=MICKENS)
    states = iterate(params, cfg, State(*start)).states
    assert np.isfinite(states).all()
    assert (states >= 0.0).all()


def test_divergence_error_survives_pickle():
    exc = pickle.loads(pickle.dumps(DivergenceError.at_step(3, 0.25)))
    assert isinstance(exc, DivergenceError)
    assert (str(exc), exc.step, exc.time) == (
        "non-finite state at t = 0.75 (step 3)", 3, 0.75)
    assert DivergenceError("m").step is None
    assert DivergenceError("m").time is None


# zero, huge and subnormal magnitudes of either sign, or moderate values
unchecked_value = st.one_of(
    st.sampled_from([0.0, -0.0, 1e300, -1e300, 1e-310, -1e-310]),
    st.floats(-10.0, 10.0))


@settings(max_examples=150, deadline=None)
@given(scheme=st.sampled_from([REFERENCE, EULER, MICKENS]),
       params=st.one_of(valid_params(),
                        st.tuples(unchecked_value, unchecked_value,
                                  unchecked_value, unchecked_value)),
       h=st.floats(1e-6, 100.0),
       start=st.builds(State, st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)))
# d/capacity overflows, so Euler's first prey value is -inf
@example(scheme=EULER, params=(0.05, 0.3, 0.4, 1e-310), h=1.0,
         start=State(0.2, 0.3))
def test_one_step_returns_a_state_or_diverges_at_step_one(scheme, params, h,
                                                          start):
    """A finite state, or DivergenceError at step 1, and never a numpy
    warning."""
    if isinstance(params, tuple):
        # construction fails exactly when the capacity is zero
        if params[3] == 0.0:
            with pytest.raises(ValueError, match="capacity"):
                ModelParams.unchecked(*params)
            return
        params = ModelParams.unchecked(*params)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.simplefilter("ignore", StepSizeWarning)
        try:
            s1 = one_step(scheme, params, h, start)
        except DivergenceError as exc:
            assert (exc.step, exc.time) == (1, h)
            return
    assert isinstance(s1, State)
    assert np.isfinite([s1.d, s1.l]).all()


def _rk4_step_through_rate_field(params, h, s):
    """One RK4 step that calls rate_field for each stage, grouped as the
    reference loop groups its stage arguments and its combination."""
    f = rate_field(params)
    hh = 0.5 * h
    d, l = s.d, s.l
    k1d, k1l = f(d, l)
    k2d, k2l = f(d + hh * k1d, l + hh * k1l)
    k3d, k3l = f(d + hh * k2d, l + hh * k2l)
    k4d, k4l = f(d + h * k3d, l + h * k3l)
    return (d + h * (k1d + 2.0 * k2d + 2.0 * k3d + k4d) / 6.0,
            l + h * (k1l + 2.0 * k2l + 2.0 * k3l + k4l) / 6.0)


# overflowing, subnormal and zero magnitudes of either sign, or moderate ones
extreme_value = st.one_of(
    st.sampled_from([1e308, -1e308, 1e-320, -1e-320, 5e-324, -5e-324, 0.0]),
    st.floats(-10.0, 10.0))


@settings(max_examples=300, deadline=None)
@given(params=st.one_of(
           valid_params(),
           st.builds(ModelParams.unchecked, extreme_value, extreme_value,
                     extreme_value, extreme_value.filter(bool))),
       h=st.one_of(st.floats(1e-6, 100.0), st.sampled_from([1e-320, 1e300])),
       start=st.builds(State, extreme_value, extreme_value))
@example(params=ModelParams.unchecked(1e308, 0.3, 0.4, 5e-324), h=0.25,
         start=State(1e-320, 0.3))
def test_rk4_stages_repeat_the_rate_field(params, h, start):
    """The reference loop writes the field inline in its four stages; one
    step of it equals, bit for bit, the step built from rate_field, or both
    are non-finite and the loop diverges at step 1."""
    want = _rk4_step_through_rate_field(params, h, start)
    if all(map(math.isfinite, want)):
        got = one_step(REFERENCE, params, h, start)
        assert (got.d.hex(), got.l.hex()) == (want[0].hex(), want[1].hex())
    else:
        with pytest.raises(DivergenceError) as info:
            one_step(REFERENCE, params, h, start)
        assert (info.value.step, info.value.time) == (1, h)

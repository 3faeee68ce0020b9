"""Invariant-region construction and pointwise trajectory checks."""
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from predprey import (
    EULER,
    FRACTIONAL,
    MICKENS,
    REFERENCE,
    ModelParams,
    SchemeConfig,
    State,
    Trajectory,
    check_trajectory,
    continuous_region,
    euler_region,
    fractional_conservation_bound,
    fractional_region,
    iterate,
    mickens_region,
)
from predprey.regions import RegionSpec

from conftest import valid_params


def _traj(scheme, times, states):
    return Trajectory(np.asarray(times, float), np.asarray(states, float),
                      scheme)


class TestContinuousRegion:
    def test_reference_setup(self, params, s0):
        region = continuous_region(params, s0)
        assert region.scheme == REFERENCE
        # (alpha + 4 beta)/(4 beta) with prey scale max(D0, C) = 1
        assert region.numeric_bound == pytest.approx(1.0416666666666667,
                                                     rel=1e-15)
        assert region.d_bound == 1.0

    def test_prey_scale_from_initial_state(self, params):
        region = continuous_region(params, State(2.0, 0.0))
        assert region.d_bound == 2.0
        assert region.numeric_bound == pytest.approx(2.0833333333333335,
                                                     rel=1e-14)

    def test_weak_growth_limit(self):
        p = ModelParams(1e-12, 0.3, 0.4, 1.0)
        region = continuous_region(p, State(0.2, 0.3))
        assert region.numeric_bound == pytest.approx(1.0, rel=1e-11)


class TestEulerRegion:
    def test_reference_setup(self, params):
        region = euler_region(params, 0.25)
        assert region.scheme == EULER
        assert region.numeric_bound == 1.0
        assert region.aux_bound == pytest.approx(10.125, rel=1e-14)

    def test_aux_bound_formula(self, params):
        region = euler_region(params, 2.0)
        assert region.aux_bound == pytest.approx(
            (1.0 + 0.05 * 2.0) / (0.4 * 2.0), rel=1e-14)

    def test_predator_step_condition_enforced(self, params):
        with pytest.raises(ValueError, match="1 - beta\\*h"):
            euler_region(params, 10.0 / 3.0)
        with pytest.raises(ValueError):
            euler_region(params, 5.0)


class TestMickensRegion:
    def test_reference_setup(self, params):
        region = mickens_region(params, 0.25)
        assert region.scheme == MICKENS
        # (4 alpha^2 + xi beta^2)/(4 alpha beta), xi = 1 + alpha*phi(h)
        assert region.numeric_bound == pytest.approx(1.6847307950845285,
                                                     rel=1e-13)
        assert region.d_bound == 1.0

    def test_small_step_limit(self, params):
        region = mickens_region(params, 1e-10)
        assert region.numeric_bound == pytest.approx(5.0 / 3.0, rel=1e-9)

    def test_amplification_factor_window(self, params):
        # 1 < xi < 2 across the whole usable step range
        for h in (1e-6, 0.25, 1.0, 10.0, 100.0):
            bound_xi = 1.0 + params.alpha * \
                (1.0 - np.exp(-params.beta * h)) / params.beta
            assert 1.0 < bound_xi < 2.0
            region = mickens_region(params, h)
            assert region.numeric_bound > 1.0

    def test_requires_unit_capacity(self):
        p = ModelParams(alpha=0.05, beta=0.3, p=0.2, capacity=2.0)
        with pytest.raises(ValueError, match="capacity"):
            mickens_region(p, 0.25)


class TestFractionalRegion:
    def test_reference_setup(self, params, s0):
        region = fractional_region(params, s0)
        assert region.scheme == FRACTIONAL
        # W(0) + A/beta with A = (alpha + 4 beta)/4 * max(D0, C)
        assert region.numeric_bound == pytest.approx(1.5416666666666667,
                                                     rel=1e-15)


class TestZeroDivisors:
    @pytest.mark.parametrize("build,fields,zero", [
        (lambda p: continuous_region(p, State(0.2, 0.3)), {"beta": 0.0}, "beta"),
        (lambda p: euler_region(p, 0.25), {"p": 0.0}, "p*h"),
        (lambda p: euler_region(p, 1e-10), {"p": 1e-320}, "p*h"),
        (lambda p: mickens_region(p, 0.25), {"alpha": 0.0}, "alpha*beta"),
        (lambda p: mickens_region(p, 0.25), {"beta": 0.0}, "alpha*beta"),
        (lambda p: mickens_region(p, 0.25), {"alpha": 1e-200, "beta": 1e-200},
         "alpha*beta"),
        (lambda p: fractional_region(p, State(0.2, 0.3)), {"beta": 0.0}, "beta"),
        (lambda p: fractional_conservation_bound(p, 0.5, 1.0), {"beta": 0.0},
         "beta"),
    ])
    def test_zero_divisor_is_a_value_error(self, build, fields, zero):
        rates = {"alpha": 0.05, "beta": 0.3, "p": 0.4, "capacity": 1.0}
        params = ModelParams.unchecked(**{**rates, **fields})
        with pytest.raises(ValueError, match=f"^{re.escape(zero)} = 0: "):
            build(params)


@pytest.mark.parametrize("fields", [{"beta": -1e308}, {"alpha": 1e308}])
def test_overflowing_mickens_bound_is_a_value_error(fields):
    # phi's expm1 overflows at beta*h = -2.5e307, alpha**2 at alpha = 1e308
    rates = {"alpha": 0.05, "beta": 0.3, "p": 0.4, "capacity": 1.0}
    params = ModelParams.unchecked(**{**rates, **fields})
    with pytest.raises(ValueError, match="^the Mickens W bound overflows$"):
        mickens_region(params, 0.25)


class TestRegionSpecValidation:
    def test_rejects_non_positive_bound(self):
        with pytest.raises(ValueError):
            RegionSpec(scheme=REFERENCE, numeric_bound=0.0)

    def test_rejects_non_finite_bound(self):
        with pytest.raises(ValueError):
            RegionSpec(scheme=REFERENCE, numeric_bound=np.inf)


class TestCheckTrajectory:
    def test_clean_run_passes(self, params, s0):
        traj = iterate(params, SchemeConfig(h=0.25, t_end=50.0,
                                            scheme=EULER), s0)
        report = check_trajectory(traj, euler_region(params, 0.25))
        assert report.ok
        assert report.first_violation_index is None

    def test_scheme_mismatch_rejected(self, params, s0):
        traj = iterate(params, SchemeConfig(h=0.25, t_end=1.0,
                                            scheme=EULER), s0)
        with pytest.raises(ValueError, match="scheme"):
            check_trajectory(traj, continuous_region(params, s0))

    def test_negative_predator_flagged(self, params):
        traj = _traj(EULER, [0.0, 0.25, 0.5],
                     [[0.2, 0.3], [0.2, -1e-6], [0.2, 0.3]])
        report = check_trajectory(traj, euler_region(params, 0.25))
        assert not report.ok
        assert report.first_violation_index == 1
        assert "L" in report.violated_quantity
        assert report.observed == -1e-6

    def test_tiny_negative_dip_tolerated(self, params):
        traj = _traj(EULER, [0.0, 0.25], [[0.2, 0.3], [0.2, -1e-13]])
        assert check_trajectory(traj, euler_region(params, 0.25)).ok

    def test_total_population_ceiling_flagged(self, params, s0):
        region = continuous_region(params, s0)
        traj = _traj(REFERENCE, [0.0, 1.0, 2.0],
                     [[0.2, 0.3], [0.9, 0.4], [0.2, 0.3]])
        report = check_trajectory(traj, region)
        assert not report.ok
        assert report.first_violation_index == 1
        assert "W" in report.violated_quantity
        assert report.bound == pytest.approx(region.numeric_bound)

    def test_high_start_grants_initial_allowance(self, params):
        # W(0) above the asymptotic ceiling is fine while decaying
        region = continuous_region(params, State(1.4, 0.4))
        traj = _traj(REFERENCE, [0.0, 1.0, 2.0],
                     [[1.4, 0.4], [1.2, 0.3], [1.0, 0.2]])
        assert check_trajectory(traj, region).ok

    def test_rise_above_high_start_flagged(self, params):
        region = continuous_region(params, State(1.4, 0.4))
        traj = _traj(REFERENCE, [0.0, 1.0], [[1.4, 0.4], [1.5, 0.4]])
        report = check_trajectory(traj, region)
        assert not report.ok

    def test_first_violation_wins(self, params):
        # a negative prey at index 1 precedes the ceiling breach at 2
        region = continuous_region(params, State(0.2, 0.3))
        traj = _traj(REFERENCE, [0.0, 1.0, 2.0],
                     [[0.2, 0.3], [-1e-3, 0.3], [1.4, 0.4]])
        report = check_trajectory(traj, region)
        assert report.first_violation_index == 1
        assert "D" in report.violated_quantity

    def test_prey_cap_flagged_for_mickens(self, params):
        region = mickens_region(params, 0.25)
        traj = _traj(MICKENS, [0.0, 1.0], [[0.2, 0.3], [1.1, 0.3]])
        report = check_trajectory(traj, region)
        assert not report.ok
        assert "D" in report.violated_quantity

    def test_euler_aux_bound_checked(self, params):
        # h = 2: aux ceiling (1 + 0.1)/0.8 = 1.375 < start-allowed sum
        region = euler_region(params, 2.0)
        traj = _traj(EULER, [0.0, 2.0], [[0.2, 0.3], [0.9, 0.6]])
        report = check_trajectory(traj, region)
        assert not report.ok


# a start in (0, 1.5]^2, and validated parameters at capacity 1
positive_start = st.builds(State, st.floats(0.0, 1.5, exclude_min=True),
                           st.floats(0.0, 1.5, exclude_min=True))
unit_capacity_params = valid_params(capacity=st.just(1.0))


def _holds(params, scheme, h, start, region):
    traj = iterate(params, SchemeConfig(h=h, t_end=300.0, scheme=scheme),
                   start)
    assert np.isfinite(traj.states).all()
    report = check_trajectory(traj, region)
    assert report.ok, (report.violated_quantity, report.observed,
                       report.bound)


@settings(max_examples=100, deadline=None)
@given(params=unit_capacity_params, h=st.sampled_from([0.05, 0.25, 1.0]),
       start=positive_start)
def test_reference_stays_in_the_flow_region(params, h, start):
    """Flow region theorem: for 0 < alpha < beta < p*capacity < 1 and a
    non-negative start, D stays non-negative and at most M = max(D(0),
    capacity), and L >= 0 with D + L <= (alpha + 4 beta)/(4 beta) M.
    Drawn at capacity 1: at small capacities the RK4 step itself can
    leave the region (capacity 0.0625 from (1, 1) at h = 0.25 overshoots
    the D bound at step 1)."""
    _holds(params, REFERENCE, h, start, continuous_region(params, start))


@settings(max_examples=100, deadline=None)
@given(params=unit_capacity_params, h=st.floats(0.05, 50.0),
       start=positive_start)
def test_mickens_stays_in_its_region(params, h, start):
    """Mickens region theorem: for 0 < alpha < beta < p < 1 at capacity 1,
    any step h > 0 and a non-negative start, D and L stay non-negative,
    D <= max(D(0), 1) and D + L stays below
    (4 alpha^2 + xi beta^2)/(4 alpha beta), xi = 1 + alpha phi(h)."""
    _holds(params, MICKENS, h, start, mickens_region(params, h))


@settings(max_examples=100, deadline=None)
@given(params=valid_params(), frac_h=st.floats(0.05, 0.99),
       frac_w=st.floats(0.0, 1.0, exclude_min=True),
       frac_d=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_euler_stays_in_its_region(params, frac_h, frac_w, frac_d):
    """Euler region theorem: for 0 < alpha < beta < p*capacity < 1, a step
    with beta h < 1 and capacity < (1 + alpha h)/(p h) (drawn up to 50),
    and a positive start with W(0) <= capacity, D and L stay non-negative
    and W stays at most the capacity and the positivity threshold
    (1 + alpha h)/(p h)."""
    # both step conditions hold for every h below this bound
    h = frac_h * min(1.0 / params.beta,
                     1.0 / (params.p * params.capacity - params.alpha), 50.0)
    w0 = frac_w * params.capacity
    start = State(frac_d * w0, (1.0 - frac_d) * w0)
    assume(params.beta * h < 1.0
           and params.capacity < (1.0 + params.alpha * h) / (params.p * h)
           and start.d + start.l <= params.capacity)
    _holds(params, EULER, h, start, euler_region(params, h))

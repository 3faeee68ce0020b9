"""Parameter validation, equilibria, and trajectory plumbing."""
import math

import numpy as np
import pytest

from predprey import (
    E1,
    E2,
    E3,
    ModelParams,
    State,
    Trajectory,
    equilibria,
    rate_field,
)


class TestModelParams:
    def test_reference_parameters_validate(self, params):
        assert params.validated
        assert params.alpha == 0.05

    @pytest.mark.parametrize("bad", [
        dict(alpha=0.3, beta=0.05, p=0.4, capacity=1.0),   # alpha >= beta
        dict(alpha=0.05, beta=0.5, p=0.4, capacity=1.0),   # beta >= p*C
        dict(alpha=0.05, beta=0.3, p=1.5, capacity=1.0),   # p*C >= 1
        dict(alpha=0.0, beta=0.3, p=0.4, capacity=1.0),    # alpha not positive
        dict(alpha=-0.05, beta=0.3, p=0.4, capacity=1.0),
    ])
    def test_ordering_violations_raise(self, bad):
        with pytest.raises(ValueError, match="ordering"):
            ModelParams(**bad)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected_even_unchecked(self, value):
        with pytest.raises(ValueError, match="finite"):
            ModelParams.unchecked(value, 0.3, 0.4, 1.0)

    @pytest.mark.parametrize("build", [ModelParams, ModelParams.unchecked],
                             ids=["validated", "unchecked"])
    @pytest.mark.parametrize("capacity", [0.0, -0.0, np.float64(0.0)],
                             ids=["zero", "negative-zero", "numpy-zero"])
    def test_zero_capacity_rejected(self, build, capacity):
        # D/capacity has no value: no solver, Jacobian or region is defined
        with pytest.raises(ValueError, match="capacity must be nonzero"):
            build(0.05, 0.3, 0.4, capacity)

    def test_unchecked_bypasses_ordering(self):
        p = ModelParams.unchecked(0.3, 0.05, 0.4, 1.0)
        assert not p.validated
        assert p.alpha == 0.3

    def test_frozen(self, params):
        with pytest.raises(Exception):
            params.alpha = 0.1

    def test_fields_stored_as_floats(self):
        p = ModelParams(np.float64(0.05), np.float32(0.25), 2, np.float64(0.25))
        fields = (p.alpha, p.beta, p.p, p.capacity)
        assert [type(v) for v in fields] == [float] * 4
        assert fields == (0.05, float(np.float32(0.25)), 2.0, 0.25)


def test_state_stored_as_floats():
    s = State(np.float64(0.2), 1)
    assert (type(s.d), type(s.l)) == (float, float)
    assert s == State(0.2, 1.0)


class TestVectorField:
    def test_reference_point_values(self, params, s0):
        # 0.05*0.2*0.8 - 0.4*0.2*0.3 and 0.4*0.2*0.3 - 0.3*0.3
        dd, dl = rate_field(params)(s0.d, s0.l)
        assert dd == pytest.approx(-0.016, rel=1e-14)
        assert dl == pytest.approx(-0.066, rel=1e-14)

    def test_equilibria_annihilate_field(self, params):
        for eq in equilibria(params):
            dd, dl = rate_field(params)(eq.point.d, eq.point.l)
            assert abs(dd) <= 1e-15
            assert abs(dl) <= 1e-15


class TestEquilibria:
    def test_labels_and_points(self, params):
        eqs = equilibria(params)
        assert [eq.label for eq in eqs] == [E1, E2, E3]
        assert eqs[0].point == State(0.0, 0.0)
        assert eqs[1].point == State(1.0, 0.0)

    def test_coexistence_point_values(self, params):
        e3 = equilibria(params)[2]
        assert e3.exists
        assert abs(e3.point.d - 0.75) <= 1e-15
        assert abs(e3.point.l - 0.03125) <= 1e-15

    def test_capacity_scales_prey_only_point(self):
        p = ModelParams(alpha=0.05, beta=0.3, p=0.2, capacity=2.0)
        assert equilibria(p)[1].point == State(2.0, 0.0)

    def test_no_predation_reports_missing_coexistence(self):
        p = ModelParams.unchecked(0.05, 0.3, 0.0, 1.0)
        e3 = equilibria(p)[2]
        assert not e3.exists
        assert "p = 0" in e3.reason
        assert math.isnan(e3.point.d)

    def test_underflowing_product_reports_missing_coexistence(self):
        # both factors are nonzero, but p*capacity rounds to 0
        p = ModelParams.unchecked(0.05, 0.3, 1e-200, 1e-200)
        e3 = equilibria(p)[2]
        assert not e3.exists
        assert "p*capacity underflows to 0" in e3.reason
        assert math.isnan(e3.point.d) and math.isnan(e3.point.l)

    def test_weak_predation_reports_missing_coexistence(self):
        p = ModelParams.unchecked(0.05, 0.5, 0.4, 1.0)   # beta > p*C
        e3 = equilibria(p)[2]
        assert not e3.exists
        assert "beta" in e3.reason

    @pytest.mark.parametrize("params,missing", [
        (ModelParams.unchecked(0.05, -0.3, 0.4, -1.0), [E2, E3]),
        (ModelParams.unchecked(0.05, -1000.0, 0.4, 1.0), [E3]),
        # the ordering holds, yet p and capacity are both negative
        (ModelParams(0.05, 0.3, -0.5, -1.0), [E2, E3]),
    ])
    def test_negative_points_reported_missing(self, params, missing):
        for eq in equilibria(params):
            outside = min(eq.point.d, eq.point.l) < 0.0
            assert outside == (eq.label in missing)
            assert eq.exists == (not outside)
            if outside:
                assert eq.reason == "negative coordinate: outside D, L >= 0"

    def test_zero_coordinate_keeps_a_point(self):
        # beta = 0 puts E3 on the D = 0 axis, as -0.0 when p < 0
        for p in (ModelParams.unchecked(0.05, 0.0, 0.4, 1.0),
                  ModelParams.unchecked(-0.05, 0.0, -0.4, -1.0)):
            e3 = equilibria(p)[2]
            assert e3.point.d == 0.0 and e3.point.l > 0.0
            assert e3.exists


class TestTrajectory:
    def _traj(self, times, states):
        return Trajectory(np.asarray(times, float),
                          np.asarray(states, float), "reference")

    def test_accessors(self):
        t = self._traj([0.0, 1.0, 2.0], [[1, 2], [3, 4], [5, 6]])
        assert len(t) == 3
        assert t.initial == State(1.0, 2.0)
        assert t.final == State(5.0, 6.0)
        assert t.state(1) == State(3.0, 4.0)
        assert type(t.final.d) is float and type(t.final.l) is float
        np.testing.assert_array_equal(t.prey, [1.0, 3.0, 5.0])
        np.testing.assert_array_equal(t.predator, [2.0, 4.0, 6.0])
        np.testing.assert_array_equal(t.totals, [3.0, 7.0, 11.0])

    def test_times_must_increase(self):
        with pytest.raises(ValueError):
            self._traj([0.0, 1.0, 1.0], [[1, 2], [3, 4], [5, 6]])

    @pytest.mark.parametrize("times", [[0.0, math.inf], [-math.inf, 0.0],
                                       [math.nan]])
    def test_times_must_be_finite(self, times):
        # a step from -inf has no weight to interpolate by
        with pytest.raises(ValueError, match="times must be finite"):
            self._traj(times, np.zeros((len(times), 2)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            self._traj([0.0, 1.0], [[1, 2]])

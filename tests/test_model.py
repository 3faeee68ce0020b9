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
    rates,
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

    def test_unchecked_bypasses_ordering(self):
        p = ModelParams.unchecked(0.3, 0.05, 0.4, 1.0)
        assert not p.validated
        assert p.alpha == 0.3

    def test_frozen(self, params):
        with pytest.raises(Exception):
            params.alpha = 0.1


class TestVectorField:
    def test_reference_point_values(self, params, s0):
        # 0.05*0.2*0.8 - 0.4*0.2*0.3 and 0.4*0.2*0.3 - 0.3*0.3
        dd, dl = rates(params, s0.d, s0.l)
        assert dd == pytest.approx(-0.016, rel=1e-14)
        assert dl == pytest.approx(-0.066, rel=1e-14)

    def test_equilibria_annihilate_field(self, params):
        for eq in equilibria(params):
            dd, dl = rates(params, eq.point.d, eq.point.l)
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

    def test_weak_predation_reports_missing_coexistence(self):
        p = ModelParams.unchecked(0.05, 0.5, 0.4, 1.0)   # beta > p*C
        e3 = equilibria(p)[2]
        assert not e3.exists
        assert "beta" in e3.reason


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
        np.testing.assert_array_equal(t.prey, [1.0, 3.0, 5.0])
        np.testing.assert_array_equal(t.predator, [2.0, 4.0, 6.0])
        np.testing.assert_array_equal(t.totals, [3.0, 7.0, 11.0])

    def test_times_must_increase(self):
        with pytest.raises(ValueError):
            self._traj([0.0, 1.0, 1.0], [[1, 2], [3, 4], [5, 6]])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            self._traj([0.0, 1.0], [[1, 2]])

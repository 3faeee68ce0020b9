"""Criteria, Jacobians, and equilibrium classification."""
import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from predprey import (
    E1,
    E2,
    E3,
    EULER,
    FRACTIONAL,
    MICKENS,
    NON_HYPERBOLIC,
    OUT_OF_CRITERION,
    REFERENCE,
    SADDLE,
    SINK,
    SOURCE,
    ModelParams,
    Quadratic,
    State,
    classify,
    euler_step_bound,
    jacobian_continuous,
    jacobian_euler,
    jacobian_mickens,
    rates,
    routh_hurwitz_quadratic,
    schur_cohn_quadratic,
)
from predprey.stability import characteristic_quadratic

from conftest import one_step, valid_params


def _by_label(reports):
    return {r.equilibrium.label: r for r in reports}


class TestQuadratic:
    def test_evaluation(self):
        q = Quadratic(2.0, -3.0, 1.0)
        assert q(0.0) == 1.0
        assert q(1.0) == 0.0
        assert q(2.0) == 3.0

    def test_monic_normalizes(self):
        m = Quadratic(2.0, -4.0, 6.0).monic()
        assert (m.c2, m.c1, m.c0) == (1.0, -2.0, 3.0)

    def test_monic_rejects_degenerate(self):
        with pytest.raises(ValueError):
            Quadratic(0.0, 1.0, 1.0).monic()

    def test_real_roots(self):
        roots = sorted(Quadratic(1.0, 1.0, -6.0).roots(), key=lambda z: z.real)
        assert roots[0] == pytest.approx(-3.0)
        assert roots[1] == pytest.approx(2.0)

    def test_complex_roots(self):
        r1, r2 = Quadratic(1.0, 0.0, 1.0).roots()
        assert {r1, r2} == {1j, -1j}

    def test_cancellation_resistant_roots(self):
        # x^2 - 1e8 x + 1: the small root would vanish in the naive formula
        r = sorted(abs(z) for z in Quadratic(1.0, -1e8, 1.0).roots())
        assert r[0] == pytest.approx(1e-8, rel=1e-9)


class TestCriteria:
    def test_half_plane_verdicts(self):
        assert routh_hurwitz_quadratic(Quadratic(1.0, 3.0, 2.0))
        assert not routh_hurwitz_quadratic(Quadratic(1.0, -1.0, 2.0))
        assert not routh_hurwitz_quadratic(Quadratic(1.0, 1.0, -2.0))

    def test_half_plane_uses_monic_form(self):
        assert routh_hurwitz_quadratic(Quadratic(-2.0, -6.0, -4.0))

    def test_unit_circle_verdicts(self):
        inside = schur_cohn_quadratic(Quadratic(1.0, 0.0, -0.25))
        assert inside.inside_unit_circle and bool(inside)
        outside = schur_cohn_quadratic(Quadratic(1.0, -1.6, 0.15))
        assert not outside    # root beyond 1

    def test_unit_circle_predicates(self):
        sc = schur_cohn_quadratic(Quadratic(1.0, -0.5, 0.06))
        assert sc.at_one == pytest.approx(0.56)
        assert sc.at_minus_one == pytest.approx(1.56)
        assert sc.at_zero == pytest.approx(0.06)

    def test_agreement_with_roots_half_plane(self):
        rng = np.random.default_rng(11)
        checked = 0
        for c1, c0 in rng.uniform(-2.0, 2.0, size=(300, 2)):
            if abs(c1) < 1e-9 or abs(c0) < 1e-9:
                continue
            q = Quadratic(1.0, c1, c0)
            truth = all(z.real < 0.0 for z in q.roots())
            assert routh_hurwitz_quadratic(q) == truth
            checked += 1
        assert checked > 250

    def test_agreement_with_roots_unit_circle(self):
        rng = np.random.default_rng(13)
        checked = 0
        for c1, c0 in rng.uniform(-2.0, 2.0, size=(300, 2)):
            q = Quadratic(1.0, c1, c0)
            sc = schur_cohn_quadratic(q)
            if min(abs(sc.at_one), abs(sc.at_minus_one),
                   abs(abs(sc.at_zero) - 1.0)) < 1e-9:
                continue
            truth = all(abs(z) < 1.0 for z in q.roots())
            assert sc.inside_unit_circle == truth
            checked += 1
        assert checked > 250


class TestJacobians:
    def test_continuous_at_coexistence(self, params):
        jac = jacobian_continuous(params, State(0.75, 0.03125))
        np.testing.assert_allclose(
            jac, [[-0.0375, -0.3], [0.0125, 0.0]], atol=1e-15)

    def test_euler_is_identity_plus_h_times_continuous(self, params, s0):
        h = 0.37
        expected = np.eye(2) + h * jacobian_continuous(params, s0)
        np.testing.assert_allclose(jacobian_euler(params, h, s0), expected,
                                   rtol=1e-13, atol=1e-16)

    @pytest.mark.parametrize("h", [0.25, 5.0])
    def test_mickens_matches_finite_differences(self, params, h):
        rng = np.random.default_rng(3)
        eps = 1e-6
        for d, l in rng.uniform(0.05, 0.95, size=(5, 2)):
            jac = jacobian_mickens(params, h, State(d, l))
            for col, (dd, dl) in enumerate([(eps, 0.0), (0.0, eps)]):
                hi = one_step(MICKENS, params, h, State(d + dd, l + dl))
                lo = one_step(MICKENS, params, h, State(d - dd, l - dl))
                fd = np.array([hi.d - lo.d, hi.l - lo.l]) / (2.0 * eps)
                np.testing.assert_allclose(jac[:, col], fd, rtol=2e-7,
                                           atol=1e-10)

    def test_euler_matches_finite_differences(self, params):
        eps = 1e-6
        d, l = 0.3, 0.2
        jac = jacobian_euler(params, 0.25, State(d, l))
        for col, (dd, dl) in enumerate([(eps, 0.0), (0.0, eps)]):
            hi = one_step(EULER, params, 0.25, State(d + dd, l + dl))
            lo = one_step(EULER, params, 0.25, State(d - dd, l - dl))
            fd = np.array([hi.d - lo.d, hi.l - lo.l]) / (2.0 * eps)
            np.testing.assert_allclose(jac[:, col], fd, rtol=2e-7, atol=1e-10)

    def test_characteristic_quadratic(self):
        q = characteristic_quadratic(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert (q.c2, q.c1, q.c0) == (1.0, -4.0, 3.0)


class TestStepBound:
    def test_reference_value(self, params):
        assert euler_step_bound(params) == pytest.approx(10.0, rel=1e-12)

    def test_requires_coexistence(self):
        p = ModelParams.unchecked(0.05, 0.5, 0.4, 1.0)
        with pytest.raises(ValueError, match="coexistence"):
            euler_step_bound(p)


class TestClassifyContinuous:
    def test_reference_table(self, params):
        table = _by_label(classify(params, REFERENCE))
        assert table[E1].classification == SADDLE
        assert table[E2].classification == SADDLE
        assert table[E3].classification == SINK

    def test_axis_equilibria_have_exact_eigenvalues(self, params):
        table = _by_label(classify(params, REFERENCE))
        assert set(table[E1].eigenvalues) == {0.05 + 0j, -0.3 + 0j}
        assert set(table[E2].eigenvalues) == {-0.05 + 0j,
                                              complex(0.4 - 0.3)}

    def test_coexistence_spiral(self, params):
        rep = _by_label(classify(params, REFERENCE))[E3]
        lam = rep.eigenvalues[0]
        assert lam.real == pytest.approx(-0.01875, rel=1e-10)
        assert abs(lam) ** 2 == pytest.approx(0.00375, rel=1e-10)
        assert rep.criterion_details["c1"] == pytest.approx(0.0375, rel=1e-10)
        assert rep.criterion_details["c0"] == pytest.approx(0.00375, rel=1e-10)

    def test_vanishing_growth_is_non_hyperbolic(self):
        p = ModelParams(1e-12, 0.3, 0.4, 1.0)
        rep = _by_label(classify(p, REFERENCE))[E3]
        assert rep.classification == NON_HYPERBOLIC


class TestClassifyEuler:
    def test_reference_table(self, params):
        table = _by_label(classify(params, EULER, 0.25))
        assert [table[k].classification for k in (E1, E2, E3)] == [
            SADDLE, SADDLE, SINK]

    def test_coexistence_predicates(self, params):
        rep = _by_label(classify(params, EULER, 0.25))[E3]
        assert rep.criterion_details["P(1)"] == pytest.approx(2.34375e-4,
                                                              rel=1e-9)
        assert rep.step_bound == pytest.approx(10.0, rel=1e-12)

    @pytest.mark.parametrize("h,label", [
        (0.25, SINK), (5.0, SINK), (9.9, SINK),
        (10.5, SOURCE), (11.0, SOURCE),
    ])
    def test_sink_window_matches_step_bound(self, params, h, label):
        rep = _by_label(classify(params, EULER, h))[E3]
        assert rep.classification == label

    def test_boundary_step_is_non_hyperbolic(self, params):
        rep = _by_label(classify(params, EULER, 10.0))[E3]
        assert rep.classification == NON_HYPERBOLIC

    def test_step_size_required(self, params):
        with pytest.raises(ValueError, match="step"):
            classify(params, EULER)
        with pytest.raises(ValueError):
            classify(params, EULER, -1.0)


class TestClassifyMickens:
    @pytest.mark.parametrize("h", [0.25, 5.0, 50.0])
    def test_sink_for_any_step(self, params, h):
        table = _by_label(classify(params, MICKENS, h))
        assert [table[k].classification for k in (E1, E2, E3)] == [
            SADDLE, SADDLE, SINK]


class TestClassifyFractional:
    def test_reference_table_and_order_recorded(self, params):
        table = _by_label(classify(params, FRACTIONAL, 0.95))
        assert [table[k].classification for k in (E1, E2, E3)] == [
            SADDLE, SADDLE, SINK]
        assert table[E3].criterion_details["sigma"] == 0.95

    @pytest.mark.parametrize("sigma", [1.5, -2.0, 0.0, math.nan])
    def test_order_outside_unit_interval_raises(self, params, sigma):
        with pytest.raises(ValueError,
                           match=r"^sigma must lie in \(0, 1\], got "):
            classify(params, FRACTIONAL, sigma)

    def test_order_may_be_omitted(self, params):
        table = _by_label(classify(params, FRACTIONAL))
        assert table[E3].classification == SINK
        assert "sigma" not in table[E3].criterion_details


class TestClassifyEdgeCases:
    def test_unknown_scheme(self, params):
        with pytest.raises(ValueError, match="scheme"):
            classify(params, "leapfrog")

    def test_missing_coexistence_is_out_of_criterion(self):
        p = ModelParams.unchecked(0.05, 0.3, 0.0, 1.0)
        rep = _by_label(classify(p, REFERENCE))[E3]
        assert rep.classification == OUT_OF_CRITERION
        assert rep.jacobian is None
        assert "p = 0" in rep.criterion_details["reason"]

    @pytest.mark.parametrize("scheme,arg", [(REFERENCE, None), (EULER, 0.25),
                                            (MICKENS, 0.25), (FRACTIONAL, 0.9)])
    def test_underflowing_product_is_out_of_criterion(self, scheme, arg):
        p = ModelParams.unchecked(0.05, 0.3, 1e-200, 1e-200)
        rep = _by_label(classify(p, scheme, arg))[E3]
        assert rep.classification == OUT_OF_CRITERION
        assert rep.jacobian is None
        assert "underflows" in rep.criterion_details["reason"]

    @pytest.mark.parametrize("params,h,labels", [
        # beta*h = -1000: exp(-beta*h) in mickens_phi overflows; E3 is
        # (-2500, 312.625), which gives its non-existence reason instead
        (ModelParams.unchecked(0.05, -1000.0, 0.4, 1.0), 1.0, (E1, E2)),
        # the Jacobian's denominator squared overflows at E2
        (ModelParams.unchecked(1e200, 0.3, 0.4, 1e-200), 0.25, (E2,)),
    ])
    def test_overflowing_mickens_jacobian_is_out_of_criterion(self, params, h,
                                                             labels):
        reports = _by_label(classify(params, MICKENS, h))
        for label in labels:
            rep = reports[label]
            assert rep.classification == OUT_OF_CRITERION
            assert rep.jacobian is None
            assert "overflows" in rep.criterion_details["reason"]

    def test_negative_product_drops_the_euler_step_bound(self):
        # p*capacity < 0 lets E3 = (0.75, 0.03125) exist with
        # p*capacity - beta = -0.1 <= 0
        p = ModelParams.unchecked(-0.05, -0.3, -0.4, 1.0)
        rep = _by_label(classify(p, EULER, 0.25))[E3]
        assert rep.equilibrium.exists
        assert rep.step_bound is None

    def test_weak_predation_is_out_of_criterion(self):
        p = ModelParams.unchecked(0.05, 0.5, 0.4, 1.0)
        rep = _by_label(classify(p, REFERENCE))[E3]
        assert rep.classification == OUT_OF_CRITERION
        assert rep.criterion_details["reason"]

    def test_reports_carry_scheme_and_point(self, params):
        for rep in classify(params, MICKENS, 0.25):
            assert rep.scheme == MICKENS
            assert math.isfinite(rep.equilibrium.point.d)


@settings(max_examples=200, deadline=None)
@given(params=valid_params(), sigma=st.floats(0.0, 1.0, exclude_min=True))
def test_matignon_sector_agrees_with_routh_hurwitz(params, sigma):
    """Caputo order sigma: stable iff every |arg lambda| > sigma*pi/2
    (Matignon 1996).  On validated parameters this gives the same verdict
    as the half-plane test ``classify`` applies at every equilibrium."""
    for rep in classify(params, FRACTIONAL, sigma):
        assume(rep.classification != NON_HYPERBOLIC)
        eig = np.linalg.eigvals(jacobian_continuous(params, rep.equilibrium.point))
        sector = all(abs(cmath.phase(lam)) > sigma * math.pi / 2 for lam in eig)
        assert sector == (rep.classification == SINK), rep.equilibrium.label


@st.composite
def corpus_params(draw):
    """alpha < beta < p in [0.02, 0.98], gaps >= 0.02, capacity 1, as the
    acceptance corpus draws them."""
    alpha = draw(st.floats(0.02, 0.94))
    beta = draw(st.floats(alpha + 0.02, 0.96))
    return ModelParams(alpha, beta, draw(st.floats(beta + 0.02, 0.98)), 1.0)


@settings(max_examples=300, deadline=None)
@given(params=corpus_params(),
       h=st.floats(math.log(0.01), math.log(200.0)).map(math.exp))
# a saddle whose real multipliers have product 1 + 1e-10
@example(params=ModelParams(0.02, 0.92, 0.9600000000000001, 1.0),
         h=math.exp(3.0))
def test_mickens_labels_match_the_flow(params, h):
    """The Mickens map is dynamically consistent: at any step it gives
    every equilibrium the label the flow gives it."""
    assert ([r.classification for r in classify(params, MICKENS, h)]
            == [r.classification for r in classify(params, REFERENCE)])


@pytest.mark.parametrize("scheme", [EULER, MICKENS])
def test_slow_sink_is_not_read_as_a_boundary(scheme):
    """With slow rates P(1) = phi^2 * c0 is below 1e-9 (6.25e-10 here)
    although the flow's c0 = 6.25e-8 is well clear of its boundary."""
    params = ModelParams(0.00025, 0.0005, 0.001, 1.0)
    e3 = classify(params, scheme, 0.1)[-1]
    assert abs(e3.criterion_details["P(1)"]) < 1e-9
    assert e3.classification == SINK
    assert ([r.classification for r in classify(params, scheme, 0.1)]
            == [r.classification for r in classify(params, REFERENCE)])


@pytest.mark.parametrize("scheme,h,multipliers", [
    (MICKENS, 0.25, (1.0, 0.5)),
    # phi^2 = 1e-600 underflows to 0, so no tolerance scaled by it is left
    (EULER, 1e-300, (1.0, 0.0)),
])
def test_exact_unit_multiplier_is_a_boundary(scheme, h, multipliers):
    """alpha = 0 puts a multiplier exactly at 1 at E1 and E2: P(1) = 0.0
    is a boundary whatever the step, never a sink or a source."""
    params = ModelParams.unchecked(0.0, 1e300, 0.4, 1.0)
    for rep in classify(params, scheme, h)[:2]:
        assert rep.criterion_details["P(1)"] == 0.0
        assert tuple(z.real for z in rep.eigenvalues) == multipliers
        assert rep.classification == NON_HYPERBOLIC


# c2 in +-[1e-3, 1e3]; c1 and c0 in [-1e6, 1e6], often near the unit circle
leading = st.tuples(st.floats(1e-3, 1e3), st.sampled_from([1.0, -1.0])).map(
    lambda pair: pair[0] * pair[1])
coefficient = st.one_of(st.floats(-2.0, 2.0), st.floats(-1e6, 1e6))


@settings(max_examples=400, deadline=None)
@given(c2=leading, c1=coefficient, c0=coefficient)
def test_routh_hurwitz_agrees_with_roots(c2, c1, c0):
    q = Quadratic(c2, c1, c0)
    m = q.monic()
    assume(min(abs(m.c1), abs(m.c0)) >= 1e-9)
    truth = all(z.real < 0.0 for z in q.roots())
    assert routh_hurwitz_quadratic(q) == truth


@settings(max_examples=400, deadline=None)
@given(c2=leading, c1=coefficient, c0=coefficient)
def test_schur_cohn_agrees_with_roots(c2, c1, c0):
    q = Quadratic(c2, c1, c0)
    sc = schur_cohn_quadratic(q)
    assume(min(abs(sc.at_one), abs(sc.at_minus_one),
               abs(abs(sc.at_zero) - 1.0)) >= 1e-9)
    truth = all(abs(z) < 1.0 for z in q.roots())
    assert sc.inside_unit_circle == truth


# zero, unit, huge, tiny and subnormal magnitudes of either sign
EXTREMES = [0.0, 1.0, 1e300, 1e-300, 2.2250738585072014e-308, 1e-310,
            5e-324]
extreme = st.one_of(st.sampled_from(EXTREMES + [-x for x in EXTREMES]),
                    st.floats(-1e300, 1e300))
positive = st.one_of(st.sampled_from([x for x in EXTREMES if x > 0.0]),
                     st.floats(1e-300, 1e300))


@settings(max_examples=300, deadline=None)
@given(values=st.tuples(extreme, extreme, extreme, extreme),
       scheme_arg=st.one_of(st.tuples(st.just(REFERENCE), st.none()),
                            st.tuples(st.sampled_from([EULER, MICKENS]),
                                      positive),
                            st.tuples(st.just(FRACTIONAL),
                                      st.floats(0.0, 1.0, exclude_min=True))))
# phi = h = 1 and alpha*phi = -1: the Mickens denominator is 0 at E2
@example(values=(-1.0, 0.0, 1.0, 1.0), scheme_arg=(MICKENS, 1.0))
def test_classify_never_raises_on_unchecked_parameters(values, scheme_arg):
    """Whatever the magnitudes of a model that exists, every equilibrium
    gets a report; construction fails exactly when the capacity is 0."""
    if values[3] == 0.0:
        with pytest.raises(ValueError, match="capacity"):
            ModelParams.unchecked(*values)
        return
    scheme, arg = scheme_arg
    with np.errstate(all="ignore"):
        reports = classify(ModelParams.unchecked(*values), scheme, arg)
    assert [r.equilibrium.label for r in reports] == [E1, E2, E3]


@settings(max_examples=300, deadline=None)
@given(values=st.tuples(extreme, extreme, extreme, extreme.filter(bool)),
       point=st.tuples(extreme, extreme), h=positive)
def test_field_and_jacobians_never_raise(values, point, h):
    """At any point of a model that exists the field and both flow
    Jacobians evaluate; entries that are not finite are allowed."""
    params = ModelParams.unchecked(*values)
    # numpy's overflow and invalid-value warnings flag such entries
    with np.errstate(all="ignore"):
        rates(params, *point)
        jacobian_continuous(params, State(*point))
        jacobian_euler(params, h, State(*point))

"""Predictor-corrector quadrature, the Caputo solver, and its bounds.

Weight reference values are frozen from 40-digit evaluation of the
defining power differences, and Mittag-Leffler values from 40-digit
series evaluation (see ``tests/oracles.py``).
"""
import hashlib
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from predprey import (
    DEFAULT_INITIAL,
    DEFAULT_PARAMS,
    FRACTIONAL,
    DivergenceError,
    FractionalConfig,
    ModelParams,
    SchemeConfig,
    State,
    caputo_solve,
    caputo_solve_batch,
    fractional_conservation_bound,
    iterate,
    scalar_caputo_solve,
)
from predprey import fractional
from predprey.fractional import _pece_weights
from predprey.model import rate_field

from conftest import (DEFECT_INITIAL, DEFECT_PARAMS, DEFECT_SIGMA,
                      ML_095_AT_M1, valid_params)

# c[m] = (m+1)^1.95 + (m-1)^1.95 - 2 m^1.95 at sigma = 0.95
KERNEL_095 = {1: 1.8637453156993822, 2: 1.7914667723626688,
              10: 1.6511147470944149, 100: 1.4714936986183609,
              1000: 1.3114695713092960}
# a_{0,n+1} = n^1.95 - (n - 0.95)(n+1)^0.95
FIRST_WEIGHT_095 = {0: 0.95, 1: 0.90340636710751544, 5: 0.84934067445228762,
                    100: 0.73550223899254286, 1000: 0.65571293356153199}
# E_sigma(-1): the scalar test equation's solution at t = 1
ML_AT_M1 = {0.5: 0.42758357615580700, 0.8: 0.38694857861897685,
            0.95: ML_095_AT_M1, 1.0: 0.36787944117144232}


def _direct_pece_history(f, x0, sigma, h, n_steps, corrector_passes):
    """The solver's earlier full-memory loop, kept as the test oracle.

    Every step sums its whole history directly, O(n^2) in all; ``f`` maps
    a state array to a rate array.
    """
    def first_corrector_weight(n):
        if n == 0:
            return sigma
        inner = sigma + n * math.expm1(sigma * math.log1p(-1.0 / (n + 1.0)))
        return (n + 1.0) ** sigma * inner

    scale_p = h ** sigma / math.gamma(sigma + 1.0)
    scale_c = h ** sigma / math.gamma(sigma + 2.0)
    d, c, _ = _pece_weights(sigma, n_steps)     # c[k] holds c_{k+1}

    xs = np.empty((n_steps + 1, x0.size))
    fs = np.empty_like(xs)
    xs[0] = x0
    fs[0] = f(x0)
    for n in range(n_steps):
        xp = x0 + scale_p * (d[:n + 1][::-1] @ fs[:n + 1])
        hist = first_corrector_weight(n) * fs[0]
        if n >= 1:
            hist = hist + c[:n][::-1] @ fs[1:n + 1]
        x1 = x0 + scale_c * (hist + f(xp))
        for _ in range(corrector_passes - 1):
            x1 = x0 + scale_c * (hist + f(x1))
        xs[n + 1] = x1
        fs[n + 1] = f(x1)
    return xs


def _rowwise_rel_diff(states, ref):
    """max over rows of |states - ref|_inf / |ref|_inf."""
    states = np.reshape(states, ref.shape)
    return (np.abs(states - ref).max(axis=1) / np.abs(ref).max(axis=1)).max()


H_SYSTEM = 0.1     # stays bounded at every sigma out to 4000 steps


def _direct_system(params, s0, n, sigma, passes):
    f = rate_field(params)
    return _direct_pece_history(lambda x: np.array(f(x[0], x[1])),
                                np.array([s0.d, s0.l]), sigma, H_SYSTEM, n,
                                passes)


def _system_against_direct_sum(params, s0, n, sigma, passes):
    cfg = FractionalConfig(sigma=sigma, h=H_SYSTEM, t_end=n * H_SYSTEM,
                           corrector_passes=passes)
    traj = caputo_solve(params, cfg, s0)
    assert len(traj) == n + 1
    return _rowwise_rel_diff(traj.states,
                             _direct_system(params, s0, n, sigma, passes))


def _outcome(result):
    """A solve's states, or its error's type and step, for comparison."""
    if isinstance(result, Exception):
        return type(result), getattr(result, "step", None)
    return result.states


def _solo_outcome(params, cfg, s0):
    try:
        with np.errstate(all="ignore"):
            return _outcome(caputo_solve(params, cfg, s0))
    except (DivergenceError, ValueError) as exc:
        return _outcome(exc)


def _same_outcome(a, b):
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    return a == b


class TestFractionalConfig:
    @pytest.mark.parametrize("kw", [
        dict(sigma=0.0, h=0.1, t_end=1.0),
        dict(sigma=1.1, h=0.1, t_end=1.0),
        dict(sigma=-0.5, h=0.1, t_end=1.0),
        dict(sigma=0.95, h=0.0, t_end=1.0),
        dict(sigma=0.95, h=0.1, t_end=0.05),
        dict(sigma=0.95, h=0.1, t_end=1.0, corrector_passes=0),
        dict(sigma=0.95, h=0.25, t_end=math.inf),
    ])
    def test_invalid(self, kw):
        with pytest.raises(ValueError):
            FractionalConfig(**kw)

    def test_invalid_weight_inputs(self):
        # the order, step and step count the PECE weights are built from
        with pytest.raises(ValueError):
            FractionalConfig(sigma=0.0, h=0.25, t_end=1.0)
        with pytest.raises(ValueError):
            FractionalConfig(sigma=0.95, h=-0.1, t_end=1.0)
        with pytest.raises(ValueError):
            FractionalConfig(sigma=0.95, h=0.25, t_end=0.0)

    def test_step_count(self):
        assert FractionalConfig(sigma=0.95, h=0.25, t_end=300.0).n_steps() == 1200


def _rectangle(sigma, count):
    """d[0 .. count-1]."""
    return _pece_weights(sigma, count)[0]


def _trapezoid(sigma, count):
    """c[m] at index m for m = 1 .. count; entry 0 is unused."""
    return np.concatenate([[np.nan], _pece_weights(sigma, count)[1]])


def _first_weights(sigma, count):
    """a_{0,n+1} at index n for n = 0 .. count-1."""
    return _pece_weights(sigma, count)[2]


class TestKernels:
    def test_rectangle_starts_at_one(self):
        d = _rectangle(0.95, 5)
        assert d[0] == 1.0

    def test_rectangle_decreasing_positive(self):
        d = _rectangle(0.95, 500)
        assert (d > 0.0).all()
        assert (np.diff(d) < 0.0).all()

    def test_rectangle_against_naive_form(self):
        m = np.arange(1.0, 50.0)
        naive = (m + 1.0) ** 0.95 - m ** 0.95
        np.testing.assert_allclose(_rectangle(0.95, 50)[1:], naive,
                                   rtol=1e-12)

    def test_trapezoid_frozen_values(self):
        c = _trapezoid(0.95, 1000)
        for m, expected in KERNEL_095.items():
            assert c[m] == pytest.approx(expected, rel=1e-13)

    def test_trapezoid_decreasing_positive(self):
        c = _trapezoid(0.95, 500)
        assert (c[1:] > 0.0).all()
        assert (np.diff(c[1:]) < 0.0).all()

    def test_first_weight_frozen_values(self):
        a = _first_weights(0.95, 1001)
        for n, expected in FIRST_WEIGHT_095.items():
            assert a[n] == pytest.approx(expected, rel=1e-12)

    def test_classic_trapezoid_at_order_one(self):
        np.testing.assert_allclose(_rectangle(1.0, 6), np.ones(6))
        np.testing.assert_allclose(_trapezoid(1.0, 5)[1:], np.full(5, 2.0))
        np.testing.assert_allclose(_first_weights(1.0, 6)[5], 1.0)

    def test_kernels_positive(self):
        # every weight of the step ending at index n + 1 = 8
        assert _rectangle(0.95, 8)[0] == 1.0     # newest sample's weight
        assert (_rectangle(0.95, 8) > 0.0).all()
        assert (_trapezoid(0.95, 7)[1:] > 0.0).all()
        assert _first_weights(0.95, 8)[7] > 0.0


class TestScalarSolver:
    def test_one_step_closed_form(self):
        # one predictor-corrector step written out with both scales:
        # h^s/gamma(s+1) on the predictor, h^s/gamma(s+2) on the corrector
        lam, sigma, y0, h = -1.0, 0.95, 1.0, 0.25
        y_pred = y0 + h ** sigma / math.gamma(sigma + 1.0) * lam * y0
        expected = y0 + h ** sigma / math.gamma(sigma + 2.0) * (
            sigma * lam * y0 + lam * y_pred)
        assert scalar_caputo_solve(lam, sigma, y0, h, h)[1] == pytest.approx(
            expected, rel=1e-15)

    def test_integer_order_matches_exponential(self):
        # one predictor-corrector pass leaves an O(h^2) defect, about
        # 6.2e-6 at this step
        ys = scalar_caputo_solve(-1.0, 1.0, 1.0, 0.01, 1.0)
        assert abs(ys[-1] - math.exp(-1.0)) <= 1e-5

    def test_fractional_order_matches_mittag_leffler(self):
        ys = scalar_caputo_solve(-1.0, 0.95, 1.0, 0.01, 1.0)
        err = abs(ys[-1] - ML_095_AT_M1)
        assert err <= 5e-3

    def test_halving_h_reduces_error(self):
        e_coarse = abs(scalar_caputo_solve(-1.0, 0.95, 1.0, 0.01, 1.0)[-1]
                       - ML_095_AT_M1)
        e_fine = abs(scalar_caputo_solve(-1.0, 0.95, 1.0, 0.005, 1.0)[-1]
                     - ML_095_AT_M1)
        assert e_coarse / e_fine >= 2.0

    @pytest.mark.parametrize("sigma", [0.5, 0.8, 0.95, 1.0])
    def test_convergence_order(self, sigma):
        # the error at a fixed time falls like h^min(2, 1 + sigma)
        # (Diethelm, Ford & Freed, Numer. Algorithms 36, 2004)
        errs = [abs(scalar_caputo_solve(-1.0, sigma, 1.0, h, 1.0)[-1]
                    - ML_AT_M1[sigma]) for h in (1.0 / 512, 1.0 / 1024)]
        order = math.log2(errs[0] / errs[1])
        assert order == pytest.approx(min(2.0, 1.0 + sigma), abs=0.05)

    def test_extra_corrector_passes_stay_consistent(self):
        one = scalar_caputo_solve(-1.0, 0.95, 1.0, 0.01, 1.0)
        three = scalar_caputo_solve(-1.0, 0.95, 1.0, 0.01, 1.0,
                                    corrector_passes=3)
        assert np.abs(one - three).max() <= 1e-4
        assert abs(three[-1] - ML_095_AT_M1) <= 5e-3

    def test_growth_across_near_block_edges(self):
        # a growing solution over 260 steps, across the direct block's
        # edges at 128 and 256
        ys = scalar_caputo_solve(0.7, 0.7, 0.3, 0.01, 2.6, corrector_passes=2)
        ref = _direct_pece_history(lambda x: 0.7 * x, np.array([0.3]), 0.7,
                                   0.01, 260, 2)
        assert ys.shape == (261,)
        assert _rowwise_rel_diff(ys, ref) <= 1e-12

    def test_divergence_reported(self):
        # the growing solution overflows a double at step 572
        with pytest.raises(DivergenceError) as exc:
            scalar_caputo_solve(5.0, 0.9, 1.0, 0.25, 300.0)
        assert (exc.value.step, exc.value.time) == (572, 143.0)

    def test_grid_matches_frozen_bytes(self):
        # every state's bytes, or the error's repr, over signed zeros,
        # tiny and subnormal values and growth; 17 of the 336 cases
        # diverge, among them the one at step 572
        digest = hashlib.sha256()
        for lam, y0, sigma, passes in itertools.product(
                (0.0, -0.0, 1e-300, -1e-300, 1.0, -1.0, 0.7, 5.0),
                (0.0, -0.0, 1e-320, -1e-320, 0.3, -0.7, 2500.0),
                (1.0, 0.9, 0.5), (1, 2)):
            try:
                out = scalar_caputo_solve(lam, sigma, y0, 0.25, 150.0,
                                          corrector_passes=passes).tobytes()
            except DivergenceError as exc:
                out = repr(exc).encode()
            digest.update(out)
        assert digest.hexdigest()[:16] == "a8fcf0cafc1d44ec"


@pytest.mark.parametrize("passes", [1, 3])
@pytest.mark.parametrize("sigma", [0.5, 0.8, 0.95, 1.0])
@pytest.mark.parametrize("n", [1, 2, 31, 32, 33, 63, 64, 65, 127, 128, 129,
                               255, 256, 257, 400, 4000])
class TestAgainstDirectSum:
    """The blocked-FFT history sums against the direct O(n^2) loop; the
    step counts straddle the direct block of 128 and the FFT block sizes."""

    def test_system(self, params, s0, n, sigma, passes):
        assert _system_against_direct_sum(params, s0, n, sigma, passes) <= 1e-12

    def test_system_in_a_batch(self, params, s0, n, sigma, passes):
        # the same run as the middle member of three, each checked against
        # its own direct sum
        members = [(0.5 + 0.5 * sigma, State(s0.l, s0.d)), (sigma, s0),
                   (sigma, State(0.5, 0.1))]
        runs = [(params, FractionalConfig(sigma=sg, h=H_SYSTEM,
                                          t_end=n * H_SYSTEM,
                                          corrector_passes=passes), start)
                for sg, start in members]
        for traj, (sg, start) in zip(caputo_solve_batch(runs), members):
            ref = _direct_system(params, start, n, sg, passes)
            assert _rowwise_rel_diff(traj.states, ref) <= 1e-12

    def test_scalar(self, n, sigma, passes):
        h = 1.0 / n
        ys = scalar_caputo_solve(-1.0, sigma, 1.0, h, 1.0,
                                 corrector_passes=passes)
        ref = _direct_pece_history(lambda x: -1.0 * x, np.array([1.0]),
                                   sigma, h, n, passes)
        assert ys.shape == (n + 1,)
        assert _rowwise_rel_diff(ys, ref) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(sigma=st.floats(0.5, 1.0), n=st.integers(1, 300),
       passes=st.sampled_from([1, 2, 3]))
def test_system_matches_direct_sum_property(sigma, n, passes):
    assert _system_against_direct_sum(DEFAULT_PARAMS, State(0.2, 0.3), n,
                                      sigma, passes) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(draws=st.lists(st.tuples(valid_params(), st.floats(0.5, 1.0),
                                st.floats(0.0, 1.0), st.floats(0.0, 1.0),
                                st.sampled_from([0.25, 0.5]),
                                st.one_of(st.just(129), st.integers(1, 300)),
                                st.sampled_from([1, 3])),
                      min_size=1, max_size=6))
def test_batch_members_equal_solo_solves(draws):
    # each member draws its own grid, so a batch mixes grids and often
    # holds two that differ only in h or only in the corrector passes
    runs = [(params, FractionalConfig(sigma=sigma, h=h, t_end=n * h,
                                      corrector_passes=passes), State(d0, l0))
            for params, sigma, d0, l0, h, n, passes in draws]
    with np.errstate(all="ignore"):
        batch = caputo_solve_batch(runs)
    assert len(batch) == len(runs)
    for result, run in zip(batch, runs):
        assert _same_outcome(_outcome(result), _solo_outcome(*run))


def _first_nonfinite_row(states):
    rows = np.flatnonzero(~np.isfinite(states).all(axis=1))
    return rows[0] if rows.size else None


@settings(max_examples=40, deadline=None)
@given(sigma=st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True)),
       n=st.one_of(st.integers(1, 300), st.sampled_from([127, 128, 129, 256,
                                                         257])),
       passes=st.integers(1, 3),
       lam=st.one_of(st.floats(1e-3, 10.0), st.floats(-10.0, -1e-3)),
       y0=st.one_of(st.sampled_from([0.0, -0.7, 2500.0]),
                    st.floats(-10.0, 10.0)),
       h=st.sampled_from([0.01, 0.25]))
def test_lone_loop_equals_batch_loop(sigma, n, passes, lam, y0, h):
    """A member alone takes its near sums by ndarray.dot on 2-D views,
    beside a second member by the batch's stacked matmul; both products
    must give it the same bits.  A scalar-style coefficient row reaches the
    step loop as scalar_caputo_solve's does."""
    row = (lam, 0.0, 0.0, math.inf)
    lone = fractional._pece_history([row], [(y0, 0.0)], [sigma], h, n,
                                    passes)[0]
    pair = fractional._pece_history([row, (-1.0, 0.0, 0.0, math.inf)],
                                    [(y0, 0.0), (1.0, 0.0)],
                                    [sigma, 0.75], h, n, passes)[0]
    if lone.tobytes() != pair.tobytes():
        first = _first_nonfinite_row(lone)
        assert first is not None
        assert first == _first_nonfinite_row(pair)
        assert lone[:first].tobytes() == pair[:first].tobytes()


def _caputo_steps_through_rate_field(params, sigma, h, passes, s0, steps):
    """The first one or two predictor-corrector steps, calling rate_field
    for the predictor and each corrector pass.  Each history sum adds its
    near part (0.0 plus the lag-0 term of F_1 at step 1; F_0 sits in the
    near window as zero) to its far part (the F_0 term), as the solver
    adds them."""
    f = rate_field(params)
    scale_p = h ** sigma / math.gamma(sigma + 1.0)
    scale_c = h ** sigma / math.gamma(sigma + 2.0)
    w_p, w_c, first = (w.tolist() for w in _pece_weights(sigma, steps))
    x0 = (s0.d, s0.l)
    rates = [f(*x0)]
    states = [x0]
    for n in range(steps):
        near_p = [0.0 + w_p[0] * r for r in rates[1]] if n else [0.0, 0.0]
        near_c = [0.0 + w_c[0] * r for r in rates[1]] if n else [0.0, 0.0]
        d, l = (x + scale_p * (near + w_p[n] * r0)
                for x, near, r0 in zip(x0, near_p, rates[0]))
        cd, cl = (near + first[n] * r0 for near, r0 in zip(near_c, rates[0]))
        fd, fl = f(d, l)
        for _ in range(passes):
            d = x0[0] + scale_c * (cd + fd)
            l = x0[1] + scale_c * (cl + fl)
            fd, fl = f(d, l)
        states.append((d, l))
        rates.append((fd, fl))
    return states


@settings(max_examples=200, deadline=None)
@given(params=valid_params(),
       start=st.builds(State, st.floats(0.0, 1.5), st.floats(0.0, 1.5)),
       sigma=st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True)),
       h=st.one_of(st.sampled_from([0.01, 0.25]), st.floats(1e-3, 2.0)),
       passes=st.integers(1, 3), steps=st.integers(1, 2))
def test_caputo_steps_repeat_the_rate_field(params, start, sigma, h, passes,
                                            steps):
    """The step loop writes the field inline for the predictor and each
    corrector pass; its first steps equal, bit for bit, the steps built
    from rate_field."""
    cfg = FractionalConfig(sigma=sigma, h=h, t_end=steps * h,
                           corrector_passes=passes)
    got = caputo_solve(params, cfg, start).states
    want = _caputo_steps_through_rate_field(params, sigma, h, passes, start,
                                            steps)
    assert [(d.hex(), l.hex()) for d, l in got.tolist()] == \
        [(d.hex(), l.hex()) for d, l in want]


class TestBatch:
    def _runs(self, params, sigmas, starts, h=0.25, t_end=100.0):
        return [(params, FractionalConfig(sigma=s, h=h, t_end=t_end), x0)
                for s, x0 in zip(sigmas, starts)]

    def test_diverging_member_leaves_the_others_exact(self, params, s0):
        runs = self._runs(params, (0.8, 0.9), (s0, State(0.6, 0.1)))
        runs.insert(1, (DEFECT_PARAMS,
                        FractionalConfig(sigma=DEFECT_SIGMA, h=0.25,
                                         t_end=100.0),
                        DEFECT_INITIAL))
        with np.errstate(all="ignore"):
            first, defect, last = caputo_solve_batch(runs)
        assert isinstance(defect, DivergenceError)
        assert defect.step == 388 and defect.time == 388 * 0.25
        for traj, run in ((first, runs[0]), (last, runs[2])):
            solo = caputo_solve(*run)
            assert np.array_equal(traj.states, solo.states)
            assert np.array_equal(traj.times, solo.times)
            assert traj.config is run[1] and traj.params is run[0]

    def test_negative_start_is_returned_not_raised(self, params, s0):
        runs = self._runs(params, (0.9, 0.9), (State(-0.1, 0.3), s0))
        bad, good = caputo_solve_batch(runs)
        assert isinstance(bad, ValueError) and "non-negative" in str(bad)
        assert np.array_equal(good.states, caputo_solve(*runs[1]).states)

    def test_members_that_cannot_run_never_reach_the_core(self, params, s0,
                                                          monkeypatch):
        # a negative start outranks a start that is not finite; only the
        # last member is solved
        starts = []

        def core(coeffs, x0s, *rest, real=fractional._pece_history):
            starts.extend(x0s)
            return real(coeffs, x0s, *rest)

        monkeypatch.setattr(fractional, "_pece_history", core)
        cfg = FractionalConfig(sigma=0.9, h=0.25, t_end=10.0)
        runs = [(params, cfg, State(-0.1, 0.3)),
                (params, cfg, State(-0.1, math.nan)),
                (params, cfg, State(math.nan, 0.3)), (params, cfg, s0)]
        neg, both, nan, good = caputo_solve_batch(runs)
        assert starts == [(s0.d, s0.l)]
        assert isinstance(neg, ValueError) and "non-negative" in str(neg)
        assert isinstance(both, ValueError) and "non-negative" in str(both)
        assert isinstance(nan, DivergenceError) and nan.step == 0
        assert np.array_equal(good.states, caputo_solve(*runs[3]).states)

    @pytest.mark.parametrize("other", [dict(h=0.5), dict(t_end=50.0),
                                       dict(corrector_passes=2)])
    def test_mixed_grids_equal_solo_solves(self, params, s0, other):
        # the odd grid sits between two members of the shared one
        base = dict(sigma=0.9, h=0.25, t_end=100.0)
        runs = [(params, FractionalConfig(**base), s0),
                (params, FractionalConfig(**{**base, **other}), s0),
                (params, FractionalConfig(**{**base, "sigma": 0.8}),
                 State(0.6, 0.1))]
        batch = caputo_solve_batch(runs)
        assert len(batch) == len(runs)
        for traj, run in zip(batch, runs):
            solo = caputo_solve(*run)
            assert np.array_equal(traj.states, solo.states)
            assert np.array_equal(traj.times, solo.times)
            assert traj.config is run[1]

    def test_empty_batch(self):
        assert caputo_solve_batch([]) == []


def _digest(states):
    return hashlib.sha256(np.ascontiguousarray(states).tobytes()).hexdigest()[:16]


# (sigma, h, t_end, final d and l as float.hex, sha256 prefix of the states'
# bytes) for DEFAULT_PARAMS from DEFAULT_INITIAL.  n = 4000 meets FFT blocks
# of 128 to 2048, most sizes more than once; n = 12 000 also meets 4096 and
# 8192; n = 1024 and 1536 end on a block edge.
FROZEN_CAPUTO = [
    (0.9, 0.025, 100.0, "0x1.6e085abaea28cp-1", "0x1.b5a2af3ca5ae0p-7",
     "f4ade6cdc80461df"),
    (0.9, 0.025, 300.0, "0x1.79d9db67cbf04p-1", "0x1.ff263492b1490p-6",
     "a026d880c21bb2c4"),
    (0.95, 0.25, 256.0, "0x1.7ee885ce986fep-1", "0x1.010d1037f2180p-5",
     "9250f53c46b62e4a"),
    (0.8, 0.25, 384.0, "0x1.6c58d247f0d18p-1", "0x1.fd241ef3d6410p-6",
     "d352fa1cf2218ad0"),
]
# (sigma, corrector passes, start, final d and l, digest) of one batch at
# h = 0.25 to t = 300: the one-pass members advance together
FROZEN_CAPUTO_BATCH = [
    (0.9, 1, DEFAULT_INITIAL, "0x1.79db2cdc182bcp-1", "0x1.ff27e7a174ee0p-6",
     "0b0c4aaad5e9bef6"),
    (0.75, 2, State(0.6, 0.1), "0x1.75bc45cd4c046p-1", "0x1.fa1a157b392a0p-6",
     "e748aecb09654bab"),
    (0.6, 1, State(0.6, 0.1), "0x1.5350879911333p-1", "0x1.0f0c4156e91dep-5",
     "9cbeb3612109a11b"),
]


class TestCaputoBitExact:
    @pytest.mark.parametrize("sigma,h,t_end,d_hex,l_hex,digest", FROZEN_CAPUTO)
    def test_solve_matches_frozen_bits(self, sigma, h, t_end, d_hex, l_hex,
                                       digest):
        traj = caputo_solve(DEFAULT_PARAMS,
                            FractionalConfig(sigma=sigma, h=h, t_end=t_end),
                            DEFAULT_INITIAL)
        assert (traj.final.d.hex(), traj.final.l.hex()) == (d_hex, l_hex)
        assert _digest(traj.states) == digest

    def test_batch_matches_frozen_bits(self):
        runs = [(DEFAULT_PARAMS,
                 FractionalConfig(sigma=sigma, h=0.25, t_end=300.0,
                                  corrector_passes=passes), start)
                for sigma, passes, start, *_ in FROZEN_CAPUTO_BATCH]
        got = [(t.final.d.hex(), t.final.l.hex(), _digest(t.states))
               for t in caputo_solve_batch(runs)]
        assert got == [tuple(row[3:]) for row in FROZEN_CAPUTO_BATCH]

    def test_scalar_matches_frozen_bits(self):
        ys = scalar_caputo_solve(-1.0, 0.7, 1.0, 0.05, 35.0)
        assert len(ys) == 701
        assert float(ys[-1]).hex() == "0x1.e5a7ce6806120p-6"
        assert _digest(ys) == "aa21339ece9399f8"


PINNED_DIVERGENCES = [
    # default parameters already blow up at sigma = 1, h = 0.25
    (1.0, 0.25, 300.0, DEFAULT_PARAMS, State(0.2, 0.3), 636),
    # the benchmark corpus's failing draw
    (DEFECT_SIGMA, 0.25, 100.0, DEFECT_PARAMS, DEFECT_INITIAL, 388),
    # the smallest positive capacity overflows d/capacity from the start
    (0.95, 0.25, 1.0, ModelParams.unchecked(0.05, 0.3, 0.4, 5e-324),
     State(0.2, 0.3), 1),
]


class TestSystemSolver:
    def test_integer_order_matches_reference(self, params, s0):
        frac = caputo_solve(params,
                            FractionalConfig(sigma=1.0, h=0.01, t_end=10.0),
                            s0)
        ref = iterate(params, SchemeConfig(h=0.01, t_end=10.0), s0)
        np.testing.assert_array_equal(frac.times, ref.times)
        assert np.abs(frac.states - ref.states).max() <= 1e-6

    def test_metadata(self, params, s0):
        cfg = FractionalConfig(sigma=0.95, h=0.25, t_end=10.0)
        traj = caputo_solve(params, cfg, s0)
        assert traj.scheme == FRACTIONAL
        assert traj.config is cfg
        assert len(traj) == 41
        assert traj.initial == s0

    def test_negative_initial_state_rejected(self, params):
        with pytest.raises(ValueError, match="non-negative"):
            caputo_solve(params,
                         FractionalConfig(sigma=0.95, h=0.25, t_end=1.0),
                         State(-0.1, 0.3))

    def test_divergence_reported(self):
        # inverted capacity turns logistic damping into superlinear growth
        p = ModelParams.unchecked(1.0, 0.5, 0.1, -1.0)
        with np.errstate(all="ignore"), pytest.raises(DivergenceError):
            caputo_solve(p, FractionalConfig(sigma=0.95, h=0.5, t_end=500.0),
                         State(2.0, 0.1))

    @pytest.mark.parametrize("sigma, h, t_end, params, initial, step",
                             PINNED_DIVERGENCES)
    def test_divergence_step_is_pinned(self, sigma, h, t_end, params,
                                       initial, step):
        cfg = FractionalConfig(sigma=sigma, h=h, t_end=t_end)
        with np.errstate(all="ignore"), pytest.raises(DivergenceError) as exc:
            caputo_solve(params, cfg, initial)
        assert exc.value.step == step
        assert exc.value.time == step * h

    @pytest.mark.parametrize("sigma, h, t_end, params, initial, step",
                             PINNED_DIVERGENCES)
    def test_divergence_raises_no_numpy_warning(self, sigma, h, t_end, params,
                                                initial, step):
        cfg = FractionalConfig(sigma=sigma, h=h, t_end=t_end)
        with warnings.catch_warnings(), np.errstate(all="warn"):
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError) as exc:
                caputo_solve(params, cfg, initial)
        assert exc.value.step == step

    def test_order_approaches_integer_limit(self, params, s0):
        # distance to the reference run shrinks as sigma tends to 1
        ref = iterate(params, SchemeConfig(h=0.25, t_end=50.0), s0)
        dists = []
        for sigma in (0.80, 0.90, 0.95, 0.99):
            traj = caputo_solve(params,
                                FractionalConfig(sigma=sigma, h=0.25,
                                                 t_end=50.0), s0)
            dists.append(np.abs(traj.states - ref.states).max())
        assert all(a > b for a, b in zip(dists, dists[1:]))


class TestConservationBound:
    def test_reference_setup_values(self, params):
        cb = fractional_conservation_bound(params, w0=0.5, m=1.0)
        assert cb.a == pytest.approx(0.3125, rel=1e-15)
        assert cb.bound == pytest.approx(1.5416666666666667, rel=1e-15)

    def test_envelope_starts_at_w0(self, params):
        cb = fractional_conservation_bound(params, w0=0.5, m=1.0)
        assert cb.envelope(0.0, 0.95) == 0.5

    def test_envelope_rises_toward_flat_ceiling(self, params):
        cb = fractional_conservation_bound(params, w0=0.5, m=1.0)
        ts = [0.0, 1.0, 5.0, 10.0, 50.0]
        vals = [cb.envelope(t, 0.95) for t in ts]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert all(v <= cb.bound for v in vals)
        # the asymptote is A/beta, approached from below
        assert vals[-1] < cb.a / cb.beta <= cb.bound

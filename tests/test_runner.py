"""Scenario execution, CSV round trips, gnuplot emission, and config files."""
import hashlib
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from predprey import (
    EULER,
    FRACTIONAL,
    MICKENS,
    REFERENCE,
    CompareResult,
    ConfigError,
    DivergenceError,
    ModelParams,
    Scenario,
    State,
    StepSizeWarning,
    Trajectory,
    compare,
    load_scenarios,
    preset_scenarios,
    run_scenario,
    run_scenarios,
    scheme_region,
    solve_scenario,
    trajectory_from_csv,
    trajectory_to_csv,
    write_gnuplot_script,
)
from predprey import runner
from predprey.regions import (continuous_region, euler_region,
                              fractional_region, mickens_region)
from predprey.runner import PRESETS, CSV_HEADER, STANDARD_INITIALS

from conftest import DEFECT_INITIAL, DEFECT_PARAMS, DEFECT_SIGMA


def short_scenario(name="short", **kw):
    kw.setdefault("t_end", 5.0)
    return Scenario(name=name, **kw)


class TestScenario:
    def test_defaults(self):
        sc = Scenario(name="base")
        assert sc.scheme == REFERENCE
        assert sc.h == 0.25
        assert sc.t_end == 300.0
        assert sc.sigma == 0.95
        assert sc.outputs == ("timeseries",)
        assert sc.params.beta == 0.3
        assert sc.initial == State(0.2, 0.3)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            Scenario(name="x", scheme="leapfrog")

    @pytest.mark.parametrize("name", ["a/b", "a\\b", "it's", "", ".", "..",
                                      "a\nb", "a\tb"])
    def test_unsafe_name_rejected(self, name):
        with pytest.raises(ValueError, match="plain file stem"):
            Scenario(name=name)

    @pytest.mark.parametrize("name", ["run", "figure2_d0.2_l0.3", "a..b"])
    def test_file_stem_names_accepted(self, name):
        assert Scenario(name=name).name == name

    def test_outputs_stored_as_a_tuple(self):
        sc = Scenario(name="a", outputs=["timeseries", "verify"])
        twin = Scenario(name="a", outputs=("timeseries", "verify"))
        assert sc.outputs == ("timeseries", "verify")
        assert sc == twin and hash(sc) == hash(twin)

    def test_unknown_output_rejected(self):
        with pytest.raises(ValueError, match="unknown outputs"):
            Scenario(name="x", outputs=("timeseries", "pdf"))

    @pytest.mark.parametrize("initial,name", [
        (State(math.nan, 0.3), "d0"), (State(0.2, math.inf), "l0"),
        (State(-math.inf, 0.3), "d0")])
    def test_non_finite_start_rejected(self, initial, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got "):
            Scenario(name="x", initial=initial)


class TestSolveScenario:
    def test_dispatches_by_scheme(self, params):
        for scheme in (REFERENCE, EULER, MICKENS, FRACTIONAL):
            traj = solve_scenario(short_scenario(scheme=scheme))
            assert traj.scheme == scheme
            assert len(traj) == 21
            assert traj.times[-1] == pytest.approx(5.0)

    def test_grid_matches_step(self):
        traj = solve_scenario(short_scenario(h=0.5, t_end=4.0))
        assert np.array_equal(traj.times, 0.5 * np.arange(9))

    @pytest.mark.parametrize("scheme", [REFERENCE, EULER, MICKENS, FRACTIONAL])
    def test_numpy_scalar_inputs_give_the_same_bits(self, scheme):
        floats = solve_scenario(short_scenario(scheme=scheme, t_end=50.0))
        scalars = solve_scenario(short_scenario(
            scheme=scheme, t_end=50.0,
            params=ModelParams(*map(np.float64, (0.05, 0.3, 0.4, 1.0))),
            initial=State(np.float64(0.2), np.float64(0.3))))
        assert np.array_equal(scalars.states, floats.states)


class TestSchemeRegion:
    def test_matches_per_scheme_constructors(self, params, s0):
        pairs = [
            (REFERENCE, continuous_region(params, s0)),
            (EULER, euler_region(params, 0.25)),
            (MICKENS, mickens_region(params, 0.25)),
            (FRACTIONAL, fractional_region(params, s0)),
        ]
        for scheme, expected in pairs:
            spec = scheme_region(short_scenario(scheme=scheme))
            assert spec.scheme == expected.scheme
            assert spec.numeric_bound == expected.numeric_bound


class TestCsvRoundTrip:
    def test_header_row_count_and_line_endings(self, tmp_path):
        traj = solve_scenario(Scenario(name="full"))
        path = trajectory_to_csv(traj, tmp_path / "full.csv")
        raw = path.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode().split("\n")
        assert lines[0] == CSV_HEADER == "t,D,L"
        assert lines[-1] == ""
        assert len(lines) == 1 + 1201 + 1

    def test_round_trip_is_bit_exact(self, tmp_path):
        traj = solve_scenario(short_scenario(scheme=MICKENS))
        path = trajectory_to_csv(traj, tmp_path / "m.csv")
        back = trajectory_from_csv(path)
        assert np.array_equal(back.times, traj.times)
        assert np.array_equal(back.states, traj.states)
        assert back.scheme == "csv"
        assert back.params is None

    def test_seventeen_digit_cells(self, tmp_path):
        traj = Trajectory(np.array([0.0, 1.0]),
                          np.array([[1 / 3, 2 / 3], [0.1, 0.2]]), "csv")
        path = trajectory_to_csv(traj, tmp_path / "digits.csv")
        row = path.read_text().splitlines()[1]
        assert row.split(",")[1] == "0.33333333333333331"

    def test_rejects_wrong_header(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("time,prey,predator\n0,1,2\n")
        with pytest.raises(ValueError, match="expected header"):
            trajectory_from_csv(bad)

    def test_rejects_ragged_row(self, tmp_path):
        bad = tmp_path / "ragged.csv"
        bad.write_text("t,D,L\n0,0.2,0.3\n0.25,0.2\n")
        with pytest.raises(ValueError, match="row 3"):
            trajectory_from_csv(bad)

    @pytest.mark.parametrize("body,message", [
        ("0,0.2\n0.25,0.2,0.3\n0.5,0.2,0.3\n", "row 2 has 2 columns"),
        ("0,0.2,0.3\n0.25,0.2\n0.5,0.2,0.3\n", "row 3 has 2 columns"),
        ("0,0.2,0.3\n0.25,0.2,0.3\n0.5,0.2\n", "row 4 has 2 columns"),
        ("0,0.2,0.3\n0.25,0.2,0.3,0.4\n", "row 3 has 4 columns"),
        # 2 + 4 cells add up to two full rows, but the rows are still ragged
        ("0,0.2,0.3\n0.25,0.2\n0.5,0.2,0.3,0.4\n", "row 3 has 2 columns"),
        # blank lines are skipped and not counted as rows
        ("\n0,0.2,0.3\n\n\n0.25,0.2\n\n", "row 3 has 2 columns"),
    ])
    def test_names_the_first_bad_row(self, tmp_path, body, message):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,D,L\n" + body)
        with pytest.raises(ValueError, match=f"bad.csv: {message}$"):
            trajectory_from_csv(bad)

    def test_header_only_file_has_no_trajectory(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("t,D,L\n\n")
        with pytest.raises(ValueError, match="nonempty"):
            trajectory_from_csv(empty)

    def test_blank_lines_between_rows_are_skipped(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("t,D,L\n\n0,0.2,0.3\n\n\n0.25,0.5,-0\n\n")
        back = trajectory_from_csv(path)
        assert back.times.tolist() == [0.0, 0.25]
        assert back.states.tolist() == [[0.2, 0.3], [0.5, -0.0]]
        assert math.copysign(1.0, back.states[1, 1]) == -1.0

    def test_preset_csv_bytes_are_frozen(self, tmp_path):
        sc, = (s for s in preset_scenarios("figure2")
               if s.name == "figure2_d0.2_l0.3")
        path = trajectory_to_csv(solve_scenario(sc), tmp_path / "f.csv")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "5be3a09d6b6703dea5972bd50f9dec6d94de07d92b1e50748b150fe8f7e946e4")


def _any_states(n):
    """n states from every finite double, plus inf, -inf, -0.0, subnormals
    and nan."""
    cell = st.floats(allow_nan=False) | st.just(math.nan)
    return st.lists(st.tuples(cell, cell), min_size=n, max_size=n).map(
        lambda rows: np.array(rows).reshape(-1, 2))


@st.composite
def _any_trajectory(draw):
    """Strictly increasing finite times, and any states (see _any_states)."""
    times = sorted(draw(st.sets(st.floats(allow_nan=False, allow_infinity=False),
                                min_size=1, max_size=20)))
    return Trajectory(np.array(times), draw(_any_states(len(times))), "csv")


@settings(max_examples=200, deadline=None)
@given(traj=_any_trajectory())
@example(traj=Trajectory(
    np.array([-1e308, -5e-324, -0.0, 5e-324, 1e308]),
    np.array([[0.0, -0.0], [5e-324, -5e-324], [2.2250738585072009e-308, 1e308],
              [-1e308, 1.7976931348623157e308], [1 / 3, -1e-320]]), "csv"))
def test_csv_round_trip_is_bit_exact_for_any_doubles(traj):
    with tempfile.TemporaryDirectory() as tmp:
        back = trajectory_from_csv(trajectory_to_csv(traj, Path(tmp) / "x.csv"))
    assert back.times.tobytes() == traj.times.tobytes()
    assert back.states.tobytes() == traj.states.tobytes()


def _per_row_csv(traj) -> bytes:
    """The CSV bytes as a writer formatting one row at a time gives them."""
    row = "{:.17g},{:.17g},{:.17g}".format
    lines = ["t,D,L", *map(row, traj.times.tolist(), traj.prey.tolist(),
                           traj.predator.tolist())]
    return ("\n".join(lines) + "\n").encode()


@settings(max_examples=200, deadline=None)
@given(traj=_any_trajectory())
@example(traj=Trajectory(
    np.array([-1e300, -0.0, 5e-324, 1.0, 1.7976931348623157e308]),
    np.array([[-0.0, math.inf], [-math.inf, math.nan], [-math.nan, 5e-324],
              [1 / 3, -2.2250738585072014e-308], [0.1, 1e16]]), "csv"))
def test_csv_bytes_equal_the_per_row_writer(traj):
    with tempfile.TemporaryDirectory() as tmp:
        raw = trajectory_to_csv(traj, Path(tmp) / "x.csv").read_bytes()
    assert raw == _per_row_csv(traj)


class TestCompare:
    def test_identical_grids(self):
        traj = solve_scenario(short_scenario())
        res = compare(traj, traj)
        assert res == CompareResult(0.0, 0.0, resampled=False)

    def test_scheme_gap_on_shared_grid(self):
        a = solve_scenario(short_scenario(scheme=REFERENCE))
        b = solve_scenario(short_scenario(scheme=EULER))
        res = compare(a, b)
        assert not res.resampled
        assert 0.0 < res.terminal_distance <= res.sup_distance < 0.01

    def test_resampling_flagged_and_small(self):
        a = solve_scenario(short_scenario(h=0.25))
        b = solve_scenario(short_scenario(h=0.125))
        res = compare(a, b)
        assert res.resampled
        assert res.sup_distance < 1e-6

    def test_equal_infinities_are_zero_apart(self):
        states = np.array([[0.2, 0.3], [math.inf, -math.inf], [0.1, 0.0]])
        traj = Trajectory(np.array([0.0, 1.0, 2.0]), states, "csv")
        with np.errstate(all="raise"):
            assert compare(traj, traj) == CompareResult(0.0, 0.0)

    def test_nan_cell_gives_nan(self):
        a = Trajectory(np.array([0.0, 1.0]), np.zeros((2, 2)), "csv")
        b = Trajectory(a.times, np.array([[0.0, math.nan], [0.5, 0.0]]), "csv")
        res = compare(a, b)
        assert math.isnan(res.sup_distance) and res.terminal_distance == 0.5

    def test_disjoint_ranges_rejected(self):
        a = Trajectory(np.array([0.0, 1.0]), np.zeros((2, 2)), "csv")
        b = Trajectory(np.array([5.0, 6.0]), np.zeros((2, 2)), "csv")
        with pytest.raises(ValueError, match="disjoint"):
            compare(a, b)

    def test_no_sample_of_the_first_inside_the_shared_range(self):
        # the ends of the shared range are sampled too, so the order of a
        # wide and a narrow range does not matter
        wide = Trajectory(np.array([0.0, 10.0]), np.zeros((2, 2)), "csv")
        narrow = Trajectory(np.array([2.0, 3.0]), np.zeros((2, 2)), "csv")
        assert compare(wide, narrow) == CompareResult(0.0, 0.0, resampled=True)
        assert compare(narrow, wide) == CompareResult(0.0, 0.0, resampled=True)

    def test_a_step_past_the_float_range_is_weighed(self):
        # b's L is 0.5 on [0, 1]; its span 2e308 is halved to find that
        a = Trajectory(np.array([0.0, 1.0]), np.zeros((2, 2)), "csv")
        b = Trajectory(np.array([-1e308, 1e308]), [[0.0, 0.0], [0.0, 1.0]],
                       "csv")
        assert compare(a, b) == CompareResult(0.5, 0.5, resampled=True)
        assert compare(b, a) == CompareResult(0.5, 0.5, resampled=True)

    def test_subnormal_times_are_weighed_unhalved(self):
        # 1.5e-323 and 2.5e-323 would both halve to 1e-323
        a = Trajectory(np.array([1.5e-323, 2e-323, 2.5e-323]), np.zeros((3, 2)),
                       "csv")
        b = Trajectory(np.array([1.5e-323, 2.5e-323]), [[0.0, 0.0], [1.0, 2.0]],
                       "csv")
        assert compare(a, b) == CompareResult(2.0, 2.0, resampled=True)
        assert compare(b, a) == CompareResult(2.0, 2.0, resampled=True)

    def test_terminal_distance_is_at_the_end_of_the_shared_range(self):
        a = Trajectory(np.array([0.0, 1.0, 2.0]), np.zeros((3, 2)), "csv")
        b = Trajectory(np.array([0.0, 1.5]), [[0.0, 0.0], [3.0, 0.0]], "csv")
        assert compare(a, b) == CompareResult(3.0, 3.0, resampled=True)
        assert compare(b, a) == CompareResult(3.0, 3.0, resampled=True)

    def test_equal_neighbours_resample_to_their_value(self):
        # unclipped, (1 - w)*0.1 + w*0.1 misses 0.1 by an ulp for some of
        # the 9999 weights; the clip to the neighbours' range keeps it
        fine = Trajectory(np.linspace(0.0, 1.0, 10001),
                          np.full((10001, 2), 0.1), "csv")
        coarse = Trajectory(np.array([0.0, 1.0]), np.full((2, 2), 0.1), "csv")
        assert compare(fine, coarse) == CompareResult(0.0, 0.0, resampled=True)
        assert compare(coarse, fine) == CompareResult(0.0, 0.0, resampled=True)


@settings(max_examples=300, deadline=None)
@given(a=_any_trajectory(), b=_any_trajectory())
@example(a=Trajectory(np.array([0.0, 1.0]), np.zeros((2, 2)), "csv"),
         b=Trajectory(np.array([-1.7976931348623157e308, 1.7976931348623157e308]),
                      np.array([[1e308, -1e308], [-1e308, 1e308]]), "csv"))
def test_compare_fails_only_on_disjoint_ranges_and_never_warns(a, b):
    disjoint = max(a.times[0], b.times[0]) > min(a.times[-1], b.times[-1])
    zeros = Trajectory(a.times, np.zeros_like(a.states), "csv")
    with warnings.catch_warnings(record=True) as caught, \
            np.errstate(all="warn", under="ignore"):
        warnings.simplefilter("always")
        for x, y in ((a, b), (b, a), (zeros, b)):
            if disjoint:
                with pytest.raises(ValueError, match="disjoint"):
                    compare(x, y)
            else:
                res = compare(x, y)
    assert [w.message for w in caught] == []
    if not disjoint:
        # the last call's sup is the largest |b| read, which interpolation
        # keeps within b's samples (a NaN sample, or inf against -inf,
        # reads NaN)
        cells = np.abs(b.states[~np.isnan(b.states)])
        assert (res.sup_distance <= cells.max(initial=0.0)
                or math.isnan(res.sup_distance))


@st.composite
def _shared_grid_pair(draw):
    """Two trajectories on one grid, with any states."""
    a = draw(_any_trajectory())
    return a, Trajectory(a.times, draw(_any_states(len(a))), "csv")


@settings(max_examples=200, deadline=None)
@given(pair=_shared_grid_pair())
@example(pair=(Trajectory(np.array([1.0]), [[math.inf, 0.5]], "csv"),
               Trajectory(np.array([1.0]), [[math.inf, -0.5]], "csv")))
@example(pair=(Trajectory(np.array([0.0, 1.0]), [[-1e308, math.nan],
                                                 [math.inf, 2.0]], "csv"),
               Trajectory(np.array([0.0, 1.0]), [[1e308, 0.0],
                                                 [-math.inf, 2.0]], "csv")))
def test_compare_on_one_grid_reads_the_states(pair):
    """On a shared grid the distance is the row-wise sup of |a - b|, equal
    cells 0 apart, and nothing is resampled."""
    a, b = pair
    with np.errstate(all="ignore"):
        rows = np.where(a.states == b.states, 0.0,
                        np.abs(a.states - b.states)).max(axis=1)
    res = compare(a, b)
    assert res.resampled is False
    assert (res.sup_distance.hex(), res.terminal_distance.hex()) == (
        float(rows.max()).hex(), float(rows[-1]).hex())


class TestRunScenario:
    def test_all_artifacts_written(self, tmp_path):
        sc = short_scenario(name="art",
                            outputs=("timeseries", "stability", "verify"))
        paths, report = run_scenario(sc, tmp_path)
        assert [p.name for p in paths] == [
            "art.csv", "art_stability.txt", "art_verification.txt"]
        assert all(p.exists() for p in paths)
        assert report is not None and report.ok
        verification = paths[2].read_text()
        assert "ok: all states inside the invariant region" in verification
        stability = paths[1].read_text()
        assert "E3" in stability and "sink" in stability

    def test_timeseries_only_gives_no_report(self, tmp_path):
        paths, report = run_scenario(short_scenario(name="plain"), tmp_path)
        assert [p.name for p in paths] == ["plain.csv"]
        assert report is None

    def test_violation_recorded_in_text(self, tmp_path):
        # a heavy predator load plus a large step drives the prey negative
        sc = short_scenario(name="neg", scheme=EULER, h=2.0, t_end=8.0,
                            initial=State(0.5, 1.5),
                            outputs=("timeseries", "verify"))
        paths, report = run_scenario(sc, tmp_path)
        assert not report.ok
        assert report.violated_quantity == "D >= 0"
        assert report.first_violation_index == 1
        text = paths[1].read_text()
        assert "violation at index 1" in text
        assert report.violated_quantity in text

    def test_report_bytes_are_pinned(self, tmp_path):
        sc = short_scenario(name="neg", scheme=EULER, h=2.0, t_end=8.0,
                            initial=State(0.5, 1.5),
                            outputs=("stability", "verify"))
        stability, verification = run_scenario(sc, tmp_path)[0]
        assert stability.read_bytes() == (
            b"# stability report: scenario neg, scheme euler\n"
            b"E1 (0, 0): saddle [P(1)=-0.06, P(-1)=2.94, P(0)=0.44]\n"
            b"E2 (1, 0): saddle [P(1)=-0.02, P(-1)=4.18, P(0)=1.08]\n"
            b"E3 (0.75, 0.03125): sink [P(1)=0.015, P(-1)=3.865, P(0)=0.94],"
            b" h_max=10\n")
        assert verification.read_bytes() == (
            b"# verification report: scenario neg, scheme euler\n"
            b"violation at index 1 (t = 2): D >= 0, observed "
            b"-0.075000000000000067, bound -9.9999999999999998e-13\n")

    def test_given_trajectory_is_used(self, tmp_path):
        sc = short_scenario(name="given", outputs=("timeseries",))
        traj = solve_scenario(short_scenario(scheme=MICKENS))
        paths, _ = run_scenario(sc, tmp_path, traj)
        written = trajectory_from_csv(paths[0])
        assert np.array_equal(written.states, traj.states)

    def test_batch_rejects_duplicate_names(self, tmp_path):
        scs = [short_scenario(name="dup"), short_scenario(name="dup")]
        with pytest.raises(ValueError, match="unique"):
            run_scenarios(scs, tmp_path)

    def test_diverging_fractional_run_spares_the_others(self, tmp_path):
        both = ("timeseries", "verify")
        scs = [Scenario(name="defect", scheme=FRACTIONAL, h=0.25, t_end=100.0,
                        sigma=DEFECT_SIGMA, params=DEFECT_PARAMS,
                        initial=DEFECT_INITIAL, outputs=both),
               short_scenario(name="ref", outputs=both),
               Scenario(name="frac", scheme=FRACTIONAL, h=0.25, t_end=100.0,
                        sigma=0.9, outputs=both),
               short_scenario(name="nsfd", scheme=MICKENS, outputs=both),
               short_scenario(name="frac_short", scheme=FRACTIONAL,
                              outputs=both),
               # diverges too, at step 636, but later in scenario order
               Scenario(name="sigma_one", scheme=FRACTIONAL, h=0.25,
                        t_end=300.0, sigma=1.0, outputs=both)]
        with np.errstate(all="ignore"), pytest.raises(DivergenceError) as exc:
            run_scenarios(scs, tmp_path)
        assert exc.value.step == 388
        scs = scs[:-1]
        names = [sc.name for sc in scs[1:]]
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            f"{n}{suffix}" for n in names
            for suffix in (".csv", "_verification.txt"))
        for sc in scs[1:]:
            written = trajectory_from_csv(tmp_path / f"{sc.name}.csv")
            assert np.array_equal(written.states, solve_scenario(sc).states)

    @pytest.mark.parametrize("bad", [
        dict(scheme=FRACTIONAL, sigma=1.5),
        dict(scheme=FRACTIONAL, initial=State(-0.1, 0.3)),
        dict(params=ModelParams.unchecked(0.05, 0.0, 0.4, 1.0),
             outputs=("timeseries", "verify")),
    ], ids=["sigma", "negative-start", "region"])
    def test_value_error_fails_the_batch_before_any_write(self, tmp_path,
                                                          bad):
        scs = [short_scenario(name="good", outputs=("timeseries", "verify")),
               short_scenario(name="frac", scheme=FRACTIONAL),
               short_scenario(name="bad", **bad)]
        with pytest.raises(ValueError):
            run_scenarios(scs, tmp_path / "out")
        assert list((tmp_path / "out").iterdir()) == []

    def test_batch_collects_everything(self, tmp_path):
        scs = [short_scenario(name="a", outputs=("timeseries", "verify")),
               short_scenario(name="b", scheme=MICKENS,
                              outputs=("timeseries", "verify"))]
        paths, reports = run_scenarios(scs, tmp_path)
        assert sorted(p.name for p in paths) == [
            "a.csv", "a_verification.txt", "b.csv", "b_verification.txt"]
        assert len(reports) == 2 and all(r.ok for r in reports)


class TestRepeats:
    """A report-free scenario that repeats an earlier one is copied, not solved."""

    @staticmethod
    def count_solves(monkeypatch):
        calls = {"iterate": 0, "members": []}

        def iterate(*args, real=runner.iterate):
            calls["iterate"] += 1
            return real(*args)

        def batch(runs, real=runner.caputo_solve_batch):
            runs = list(runs)
            calls["members"].append(len(runs))
            return real(runs)

        monkeypatch.setattr(runner, "iterate", iterate)
        monkeypatch.setattr(runner, "caputo_solve_batch", batch)
        return calls

    @pytest.mark.parametrize("scheme,solves,members", [
        (MICKENS, 1, [0]), (FRACTIONAL, 0, [1])])
    def test_a_repeat_is_a_byte_copy(self, tmp_path, monkeypatch, scheme,
                                     solves, members):
        calls = self.count_solves(monkeypatch)
        scs = [short_scenario(name=n, scheme=scheme) for n in ("z", "a")]
        paths, reports = run_scenarios(scs, tmp_path)
        assert calls == {"iterate": solves, "members": members}
        assert paths == [tmp_path / "z.csv", tmp_path / "a.csv"]
        assert reports == []
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert all(not p.is_symlink() and p.stat().st_nlink == 1
                   for p in paths)

    def test_a_repeat_of_a_diverging_run_raises_its_error(self, tmp_path,
                                                          monkeypatch):
        scs = [Scenario(name=n, scheme=EULER, h=20.0, t_end=3000.0)
               for n in ("first", "again")]
        with pytest.warns(StepSizeWarning), pytest.raises(DivergenceError) as alone:
            solve_scenario(scs[0])
        calls = self.count_solves(monkeypatch)
        with pytest.warns(StepSizeWarning), pytest.raises(DivergenceError) as exc:
            run_scenarios(scs, tmp_path)
        assert calls["iterate"] == 1
        assert str(exc.value) == str(alone.value)
        assert list(tmp_path.iterdir()) == []

    def test_signed_zero_starts_are_two_runs(self, tmp_path):
        cfg = tmp_path / "zero.cfg"
        cfg.write_text("[plus]\nd0 = 0\nt_end = 5\n[minus]\nd0 = -0\nt_end = 5\n")
        scs = load_scenarios(cfg)
        paths, _ = run_scenarios(scs, tmp_path / "out")
        assert paths[1].read_text().split("\n")[1].startswith("0,-0,")
        for sc, path in zip(scs, paths):
            alone = trajectory_to_csv(solve_scenario(sc), tmp_path / "alone.csv")
            assert path.read_bytes() == alone.read_bytes()

    @pytest.mark.parametrize("report,suffix", [
        ("stability", "_stability.txt"), ("verify", "_verification.txt")])
    def test_scenarios_with_reports_are_each_solved(self, tmp_path, monkeypatch,
                                                     report, suffix):
        calls = self.count_solves(monkeypatch)
        scs = [short_scenario(name=n, outputs=("timeseries", report))
               for n in ("first", "again")]
        paths, reports = run_scenarios(scs, tmp_path)
        assert calls["iterate"] == 2
        assert [p.name for p in paths] == [
            "first.csv", f"first{suffix}", "again.csv", f"again{suffix}"]
        assert len(reports) == (2 if report == "verify" else 0)
        for name in ("first", "again"):
            text = (tmp_path / f"{name}{suffix}").read_text()
            assert f"scenario {name}, scheme reference" in text


class TestGnuplotScript:
    def test_timeseries_script_content(self, tmp_path):
        script = write_gnuplot_script(
            [tmp_path / "a.csv", tmp_path / "b.csv"],
            tmp_path / "combo.gp", title="combo")
        text = script.read_text()
        assert "set datafile separator ','" in text
        assert "set terminal pngcairo size 1000,600" in text
        assert "set output 'combo_timeseries.png'" in text
        assert "'a.csv' skip 1 using 1:2 with lines title 'a D'" in text
        assert "'a.csv' skip 1 using 1:3 with lines title 'a L'" in text
        assert "'b.csv' skip 1 using 1:2" in text
        assert "phase" not in text

    def test_phase_section(self, tmp_path):
        script = write_gnuplot_script([tmp_path / "a.csv"], tmp_path / "p.gp",
                                      title="p", phase=True)
        text = script.read_text()
        assert "set output 'p_phase.png'" in text
        assert "'a.csv' skip 1 using 2:3 with lines title 'a'" in text
        assert b"\r" not in script.read_bytes()


class TestPresets:
    def test_preset_names(self):
        assert PRESETS == tuple(f"figure{i}" for i in range(2, 11))

    def test_initial_condition_spreads(self):
        for preset, scheme in (("figure2", REFERENCE), ("figure3", EULER),
                               ("figure4", MICKENS), ("figure5", FRACTIONAL)):
            scs = preset_scenarios(preset)
            assert [sc.initial for sc in scs] == list(STANDARD_INITIALS)
            assert all(sc.scheme == scheme for sc in scs)
            assert scs[0].name == f"{preset}_d0.2_l0.3"

    def test_scheme_lineups(self):
        assert [sc.scheme for sc in preset_scenarios("figure6")] == [
            FRACTIONAL, REFERENCE, EULER, MICKENS]
        assert [sc.scheme for sc in preset_scenarios("figure7")] == [
            MICKENS, REFERENCE, EULER]
        assert [sc.scheme for sc in preset_scenarios("figure8")] == [
            EULER, REFERENCE]
        assert [sc.name for sc in preset_scenarios("figure9")] == [
            "figure9_reference"]

    def test_order_sweep_preset(self):
        scs = preset_scenarios("figure10")
        assert [sc.sigma for sc in scs[:4]] == [0.8, 0.9, 0.95, 0.99]
        assert all(sc.scheme == FRACTIONAL for sc in scs[:4])
        assert scs[4].name == "figure10_reference"

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="figure2 .. figure10"):
            preset_scenarios("figure1")

    def test_run_figures_emits_csvs_and_script(self, tmp_path):
        paths, _ = run_scenarios(preset_scenarios("figure2"), tmp_path)
        paths.append(write_gnuplot_script(paths, tmp_path / "figure2.gp",
                                          title="figure2", phase=True))
        names = [p.name for p in paths]
        assert names[-1] == "figure2.gp"
        assert sorted(names[:-1]) == ["figure2_d0.2_l0.3.csv",
                                      "figure2_d0.85_l0.1.csv",
                                      "figure2_d0_l0.5.csv"]
        text = paths[-1].read_text()
        assert "figure2_phase.png" in text
        for csv in paths[:-1]:
            back = trajectory_from_csv(csv)
            assert len(back) == 1201


GOOD_CONFIG = """\
# two runs sharing one file
[slow]
scheme = mickens
h = 0.5          ; large steps stay positive
t_end = 10
d0 = 0.85
l0 = 0.1

[memory]
scheme = fractional
sigma = 0.9
t_end = 10
outputs = timeseries, verify
"""


class TestParseConfig:
    """The file format, read by ``load_scenarios`` in one pass."""

    @staticmethod
    def load(tmp_path, text):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        return load_scenarios(cfg)

    @pytest.mark.parametrize("text,fragment", [
        ("[one\nh = 1\n", "unterminated section"),
        ("[ ]\n", "empty section name"),
        ("[a]\nh = 1\n[a]\n", "duplicate section"),
        ("[a]\nh = 1\nh = 2\n", r"bad\.cfg:3: duplicate key 'h'"),
        ("h = 1\n[a]\n", "before any"),
        ("[a]\nstep = 1\n", "unknown key"),
        ("[a]\nh =\n", "empty value"),
        ("[a]\nh 1\n", "expected 'key = value'"),
        ("# only a comment\n", "no scenario sections"),
        # of several errors the earliest line's, and every line reads
        # before any scenario is built
        ("[a]\nh = fast\n[a]\n", r"bad\.cfg:2: h must be a number"),
        ("[zero]\ncapacity = 0\n[b]\nh = fast\n",
         r"bad\.cfg:4: h must be a number"),
    ])
    def test_malformed_files_rejected(self, tmp_path, text, fragment):
        with pytest.raises(ConfigError, match=fragment):
            self.load(tmp_path, text)

    def test_errors_carry_source_and_line(self, tmp_path):
        with pytest.raises(ConfigError, match=r"bad\.cfg:3"):
            self.load(tmp_path, "[a]\nh = 1\nfoo = 2\n")


class TestLoadScenarios:
    def test_scenarios_built_with_defaults_filled(self, tmp_path):
        cfg = tmp_path / "demo.cfg"
        cfg.write_text(GOOD_CONFIG)
        slow, memory = load_scenarios(cfg)
        assert slow.scheme == MICKENS and slow.h == 0.5 and slow.t_end == 10.0
        assert slow.initial == State(0.85, 0.1)
        assert slow.params.alpha == 0.05
        assert memory.sigma == 0.9
        assert memory.outputs == ("timeseries", "verify")

    def test_overrides_take_precedence(self, tmp_path):
        cfg = tmp_path / "demo.cfg"
        cfg.write_text(GOOD_CONFIG)
        slow, memory = load_scenarios(cfg, overrides={"h": 0.125,
                                                      "alpha": None})
        assert slow.h == 0.125 and memory.h == 0.125
        assert slow.params.alpha == 0.05

    def test_non_numeric_value_reports_line(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[a]\nh = fast\n")
        with pytest.raises(ConfigError, match=r"bad\.cfg:2: h must be a number"):
            load_scenarios(cfg)

    def test_non_finite_start_is_a_config_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[a]\nd0 = nan\n")
        with pytest.raises(ConfigError, match="d0 must be finite, got nan"):
            load_scenarios(cfg)

    def test_zero_capacity_is_a_config_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[good]\n[zero]\ncapacity = 0\n")
        with pytest.raises(ConfigError, match=r"bad\.cfg: scenario 'zero': "
                           "capacity must be nonzero"):
            load_scenarios(cfg)

    def test_bad_scheme_wrapped_as_config_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[a]\nscheme = leapfrog\n")
        with pytest.raises(ConfigError, match="unknown scheme"):
            load_scenarios(cfg)

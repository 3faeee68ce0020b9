"""Command line behavior: subcommands, artifacts, and exit codes."""
import contextlib
import hashlib
import io
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import predprey
from predprey import (EULER, PRESETS, SCHEMES, Scenario, StepSizeWarning,
                      load_scenarios, preset_scenarios, runner,
                      solve_scenario, trajectory_to_csv)
from predprey.cli import _scenarios_for, build_parser, main


def run_cli(*argv):
    return main([str(a) for a in argv])


class TestSimulate:
    def test_default_run_writes_csv_and_script(self, tmp_path, capsys):
        code = run_cli("simulate", "--t-end", 5, "--output", tmp_path)
        assert code == 0
        printed = capsys.readouterr().out.splitlines()
        assert printed == [str(tmp_path / "run.csv"), str(tmp_path / "run.gp")]
        assert (tmp_path / "run.csv").read_text().startswith("t,D,L\n")

    def test_named_scheme_run(self, tmp_path, capsys):
        code = run_cli("simulate", "--name", "nsfd", "--scheme", "mickens",
                       "--h", 5, "--t-end", 50, "--output", tmp_path)
        assert code == 0
        assert (tmp_path / "nsfd.csv").exists()
        assert (tmp_path / "nsfd.gp").exists()

    def test_strict_flags_violation(self, tmp_path, capsys):
        code = run_cli("simulate", "--scheme", "euler", "--h", 2,
                       "--t-end", 8, "--d0", 0.5, "--l0", 1.5,
                       "--strict", "--output", tmp_path)
        assert code == 1
        captured = capsys.readouterr()
        assert "violation: D >= 0 at index 1" in captured.err
        assert (tmp_path / "run_verification.txt").exists()

    def test_strict_passes_clean_run(self, tmp_path, capsys):
        code = run_cli("simulate", "--t-end", 5, "--strict",
                       "--output", tmp_path)
        assert code == 0
        assert capsys.readouterr().err == ""

    def test_config_file_drives_batch(self, tmp_path, capsys):
        cfg = tmp_path / "runs.cfg"
        cfg.write_text("[first]\nt_end = 5\n\n[second]\nscheme = mickens\n"
                       "t_end = 5\n")
        code = run_cli("simulate", "--config", cfg, "--output", tmp_path)
        assert code == 0
        assert (tmp_path / "first.csv").exists()
        assert (tmp_path / "second.csv").exists()
        assert (tmp_path / "first.gp").exists()

    def test_strict_keeps_config_outputs(self, tmp_path, capsys):
        cfg = tmp_path / "runs.cfg"
        cfg.write_text("[a]\nt_end = 5\noutputs = timeseries, stability\n")
        code = run_cli("simulate", "--config", cfg, "--strict",
                       "--output", tmp_path)
        assert code == 0
        assert (tmp_path / "a.csv").exists()
        assert (tmp_path / "a_stability.txt").exists()
        assert (tmp_path / "a_verification.txt").exists()

    def test_no_script_without_csv(self, tmp_path, capsys):
        # a gnuplot script with nothing to plot is not written or printed
        cfg = tmp_path / "runs.cfg"
        cfg.write_text("[a]\nt_end = 5\noutputs = stability\n")
        code = run_cli("simulate", "--config", cfg, "--output", tmp_path)
        assert code == 0
        printed = capsys.readouterr().out.splitlines()
        assert printed == [str(tmp_path / "a_stability.txt")]
        assert not (tmp_path / "a.gp").exists()

    def test_output_that_is_a_file_fails_before_any_solve(self, tmp_path,
                                                          capsys,
                                                          monkeypatch):
        cfg = tmp_path / "fr.cfg"
        cfg.write_text("".join(f"[f{i}]\nscheme = fractional\nt_end = 5\n"
                               for i in range(3)))
        target = tmp_path / "taken"
        target.write_text("")
        solved = []
        monkeypatch.setattr(runner, "caputo_solve_batch", solved.append)
        code = run_cli("simulate", "--config", cfg, "--output", target)
        assert code == 2
        assert solved == []
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "Traceback" not in captured.err

    def test_bad_config_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[a]\nstep = 1\n")
        code = run_cli("simulate", "--config", cfg, "--output", tmp_path)
        assert code == 2
        assert "unknown key" in capsys.readouterr().err

    def test_undecodable_config_names_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"[a]\nt_end = 5\xff\n")
        with pytest.raises(predprey.ConfigError, match="bad.cfg: 'utf-8'"):
            load_scenarios(cfg)
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", cfg, "--output", out) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: 'utf-8' codec can't decode")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.cfg"]

    @pytest.mark.parametrize("name", ["../escaped", "it's", "a\\b", ".."])
    def test_unsafe_section_name_exits_two(self, tmp_path, capsys, name):
        cfg = tmp_path / "r.cfg"
        cfg.write_text(f"[{name}]\nt_end = 5\n")
        out = tmp_path / "out"
        code = run_cli("simulate", "--config", cfg, "--output", out)
        assert code == 2
        err = capsys.readouterr().err
        assert str(cfg) in err and repr(name) in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r.cfg"]

    @pytest.mark.parametrize("name", ["../escaped", "it's", "", ".", "a\nb",
                                      "a\tb"])
    def test_unsafe_name_flag_exits_two(self, tmp_path, capsys, name):
        out = tmp_path / "out"
        code = run_cli("simulate", "--name", name, "--t-end", 5,
                       "--output", out)
        assert code == 2
        assert "plain file stem" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_divergent_run_exits_one(self, tmp_path, capsys):
        with np.errstate(all="ignore"):
            code = run_cli("simulate", "--alpha", 1.0, "--beta", 0.5,
                           "--p", 0.1, "--capacity", -1.0, "--d0", 2.0,
                           "--l0", 0.1, "--h", 0.5, "--t-end", 500,
                           "--output", tmp_path)
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_divergent_euler_run_exits_one_and_writes_nothing(self, tmp_path,
                                                              capsys):
        with pytest.warns(StepSizeWarning):
            code = run_cli("simulate", "--scheme", "euler", "--h", 20,
                           "--t-end", 3000, "--output", tmp_path)
        assert code == 1
        assert capsys.readouterr().err == (
            "error: non-finite state at t = 200 (step 10)\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("scheme,size", [("reference", "218. TiB"),
                                             ("fractional", "437. TiB")])
    def test_grid_too_large_for_memory_exits_two(self, tmp_path, capsys,
                                                 scheme, size):
        # 3e13 steps: far past any address space, so the first array of
        # the run fails to allocate at once
        code = run_cli("simulate", "--scheme", scheme, "--h", 1e-11,
                       "--t-end", 300, "--output", tmp_path)
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: Unable to allocate {size}")
        assert list(tmp_path.iterdir()) == []

    def test_overflowing_mickens_constants_exit_one(self, tmp_path, capsys):
        code = run_cli("simulate", "--scheme", "mickens", "--beta", -1000,
                       "--h", 1, "--output", tmp_path)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "(step 1)" in err


# a batch whose later scenario has a bad setting: the command exits 2
# before the good scenarios write anything
_GOOD = "[good]\nt_end = 5\n\n"
_BAD_BATCHES = {
    "simulate-sigma": ("simulate", _GOOD + "[bad]\nscheme = fractional\n"
                       "sigma = 1.5\nt_end = 5\n"),
    "verify-sigma": ("verify", _GOOD + "[bad]\nscheme = fractional\n"
                     "sigma = 1.5\nt_end = 5\n"),
    "sweep-sigma": ("sweep", None),
    "simulate-negative-start": ("simulate", _GOOD + "[bad]\n"
                                "scheme = fractional\nd0 = -0.1\nt_end = 5\n"),
    "simulate-region": ("simulate", _GOOD + "[bad]\nbeta = 0\nt_end = 5\n"
                        "outputs = timeseries, verify\n"),
    "verify-region": ("verify", _GOOD + "[bad]\nbeta = 0\nt_end = 5\n"
                      "outputs = timeseries, verify\n"),
    # a classical grid of 3e13 points cannot be allocated
    "simulate-grid-too-large": ("simulate", _GOOD + "[huge]\nh = 1e-11\n"
                                "t_end = 300\n"),
    "simulate-zero-capacity": ("simulate", _GOOD + "[bad]\ncapacity = 0\n"),
}


@pytest.mark.parametrize("case", _BAD_BATCHES)
def test_bad_scenario_in_a_batch_writes_nothing(tmp_path, capsys, case):
    command, text = _BAD_BATCHES[case]
    out = tmp_path / "out"
    if text is None:
        argv = ("sweep", "--param", "sigma", "--values", "0.9,1.5",
                "--t-end", 5)
    else:
        cfg = tmp_path / "runs.cfg"
        cfg.write_text(text)
        argv = (command, "--config", cfg)
    assert run_cli(*argv, "--output", out) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    # a section rejected as the file is read leaves no output directory
    assert not out.exists() or list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["simulate", "verify", "sweep",
                                     "stability"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_zero_capacity_exits_two_and_writes_nothing(tmp_path, capsys,
                                                    command, scheme):
    out = tmp_path / "out"
    argv = [command, "--scheme", scheme, "--capacity", 0, "--t-end", 5]
    if command == "sweep":
        argv += ["--param", "h", "--values", "0.25,0.5"]
    argv += ["--output", out / "table.txt" if command == "stability" else out]
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert err == ["error: capacity must be nonzero: the model divides by it"]
    assert list(tmp_path.iterdir()) == []


# values that break arithmetic: zero, signed zero, unit, huge, subnormal,
# nan and infinities; each flag also draws values it accepts
_EXTREME = ("0", "-0.0", "1", "-1", "1e308", "-1e308", "1e-320", "5e-324",
            "nan", "inf", "-inf")
_VALID = {"alpha": ("0.05", "0.2"), "beta": ("0.3", "0.5"), "p": ("0.4", "0.9"),
          "capacity": ("1", "2"), "d0": ("0.2", "0.85"), "l0": ("0.3", "0.1"),
          "h": ("0.25", "1"), "t-end": ("5", "50"), "sigma": ("0.5", "0.95")}
# grids longer than this are real but slow, and are not drawn
_MAX_STEPS = 3000
# CSV times whose steps overflow, or are subnormal and would halve to equal
_EXTREME_TIMES = (-1e308, -1.0, 0.0, 5e-324, 1.5e-323, 2e-323, 2.5e-323, 1.0,
                  1e308)


def _csv_text(draw, start):
    """Rows with cells that may be non-finite, at times 1 apart from
    ``start`` or at extreme times (huge, subnormal); or the header alone,
    or a cell that is not a number."""
    cell = st.sampled_from(_EXTREME + _VALID["d0"] + _VALID["l0"])
    rows = draw(st.lists(st.tuples(cell, cell), min_size=1, max_size=3))
    times = [f"{start + i:g}" for i in range(len(rows))]
    if draw(st.booleans()):
        times = map(repr, sorted(draw(st.sets(st.sampled_from(_EXTREME_TIMES),
                                              min_size=len(rows),
                                              max_size=len(rows)))))
    kind = draw(st.sampled_from(("rows",) * 6 + ("header", "bad cell")))
    if kind == "header":
        rows = []
    elif kind == "bad cell":
        rows[-1] = (rows[-1][0], "abc")
    return "t,D,L\n" + "".join(f"{t},{d},{l}\n"
                               for t, (d, l) in zip(times, rows))


@st.composite
def _cli_calls(draw):
    """argv for any command, as --flag=value.

    An item (name, text) stands for a file of that text, passed by path.
    """
    command = draw(st.sampled_from(("stability", "simulate", "verify", "sweep",
                                    "compare", "figures")))
    if command == "compare":
        # b from 0 shares a's grid or resamples, from 10 it is disjoint
        start = draw(st.sampled_from((0, 0, 0.5, 10)))
        return [command, ("a.csv", _csv_text(draw, 0)),
                ("b.csv", _csv_text(draw, start))]
    if command == "figures":
        return [command, draw(st.sampled_from((*PRESETS, "all")))]

    def fields():
        names = draw(st.lists(st.sampled_from(sorted(_VALID)), unique=True,
                              max_size=4))
        return {n: draw(st.sampled_from(_EXTREME + _VALID[n])) for n in names}
    flags = fields()
    argv = [command, *(f"--{n}={v}" for n, v in flags.items())]
    scheme = draw(st.sampled_from((None, *SCHEMES)))
    if scheme:
        argv.append(f"--scheme={scheme}")
    sections = {}
    if command in ("simulate", "verify") and draw(st.booleans()):
        # one or two sections, each drawn like the flags, which override it
        for name in draw(st.lists(st.sampled_from(("a", "b", "a\tb")),
                                  min_size=1, max_size=2, unique=True)):
            sections[name] = fields()
        argv += ["--config", ("runs.cfg", "".join(
            f"[{name}]\n" + "".join(f"{k.replace('-', '_')} = {v}\n"
                                    for k, v in section.items())
            for name, section in sections.items()))]
    elif command == "simulate" and draw(st.booleans()):
        name = draw(st.sampled_from(("a b", "a\nb", "a\tb")))
        argv.append(f"--name={name}")
    steps = []
    if command == "sweep":
        param = draw(st.sampled_from(("sigma", "h")))
        values = draw(st.lists(st.sampled_from(_EXTREME + _VALID[param]),
                               min_size=1, max_size=2))
        argv += [f"--param={param}", f"--values={','.join(values)}"]
        if param == "h":
            steps = values
    elif command != "stability" and draw(st.booleans()):
        argv.append("--strict")
    if command != "stability":
        for run in [{**s, **flags} for s in sections.values()] or [flags]:
            t_end = float(run.get("t-end", "300"))
            for h in map(float, steps or [run.get("h", "0.25")]):
                # a zero, negative or non-finite ratio fails before any solve
                assume(h == 0.0 or not _MAX_STEPS < t_end / h < math.inf)
    return argv


@settings(max_examples=60, deadline=None)
@given(argv=_cli_calls())
@example(argv=["simulate", "--t-end=inf"])
@example(argv=["simulate", "--h=1e-320"])
@example(argv=["simulate", "--t-end=1.7e308", "--h=1.6e308", "--scheme=euler",
               "--alpha=0", "--beta=0", "--p=0"])
@example(argv=["sweep", "--param=h", "--values=5e-324"])
@example(argv=["verify", "--scheme=mickens", "--beta=-1e308"])
@example(argv=["simulate", "--scheme=mickens", "--alpha=1e308", "--strict"])
@example(argv=["verify", "--scheme=mickens", "--d0=nan", "--strict"])
@example(argv=["simulate", "--scheme=euler", "--l0=inf"])
@example(argv=["stability", "--p=1e308", "--capacity=1e308"])
@example(argv=["stability", "--p=1e9", "--beta=1e308"])
@example(argv=["verify", "--scheme=euler", "--beta=-1"])
@example(argv=["sweep", "--l0=1e-9", "--alpha=1e9", "--param=sigma",
               "--values=1e-320,0.3"])
@example(argv=["simulate", "--name=a\nb"])
@example(argv=["simulate", "--scheme=euler", "--h=20", "--t-end=3000"])
@example(argv=["compare", ("a.csv", "t,D,L\n0,inf,0.2\n"),
               ("b.csv", "t,D,L\n0,inf,0.2\n")])
@example(argv=["compare", ("a.csv", "t,D,L\n0,0,1e308\n"),
               ("b.csv", "t,D,L\n0,0,-1e308\n")])
@example(argv=["compare", ("a.csv", "t,D,L\n-1e308,inf,0\n1e308,-inf,0\n"),
               ("b.csv", "t,D,L\n0,0,0\n1,0,0\n")])
def test_every_call_keeps_the_contract(argv):
    # exit 0, or exit 1 or 2 with one error: line (under --strict, exit 1
    # may print violation: lines instead); no traceback, no warning but
    # StepSizeWarning, nothing written on exit 2, every file written has
    # a printable name and every value of every CSV written is finite
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        for name, text in (a for a in argv if isinstance(a, tuple)):
            (Path(tmp) / name).write_text(text)
        argv = [str(Path(tmp) / a[0]) if isinstance(a, tuple) else a
                for a in argv]
        if argv[0] not in ("stability", "compare"):
            argv = [*argv, f"--output={out}"]
        err = io.StringIO()
        # numpy's default error state: underflow alone is silent
        with warnings.catch_warnings(record=True) as caught, \
                np.errstate(all="warn", under="ignore"), \
                contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(argv)
        assert [w.message for w in caught
                if w.category is not StepSizeWarning] == []
        lines = err.getvalue().splitlines()
        if code == 0:
            assert lines == []
        elif code == 1 and "--strict" in argv and not any(
                line.startswith("error:") for line in lines):
            # verify prints its violations to stdout, simulate to stderr
            assert all(line.startswith("violation:") for line in lines)
        else:
            assert code in (1, 2)
            assert len(lines) == 1 and lines[0].startswith("error:")
        written = sorted(out.iterdir()) if out.exists() else []
        if code == 2:
            assert written == []
        assert all(p.name.isprintable() for p in written)
        for csv in (p for p in written if p.suffix == ".csv"):
            for row in csv.read_text().splitlines()[1:]:
                assert all(map(math.isfinite, map(float, row.split(","))))


class TestStability:
    def test_table_printed(self, capsys):
        assert run_cli("stability") == 0
        out = capsys.readouterr().out
        assert "scheme reference" in out
        for label in ("E1", "E2", "E3"):
            assert label in out
        assert "sink" in out and "saddle" in out

    def test_euler_table_reports_step_bound(self, capsys):
        assert run_cli("stability", "--scheme", "euler", "--h", 0.25) == 0
        out = capsys.readouterr().out
        assert "h_max=10" in out

    @pytest.mark.parametrize("flags,reason,labels", [
        (("--p", 1e-200, "--capacity", 1e-200), "p*capacity underflows to 0",
         ("E3",)),
        (("--scheme", "mickens", "--beta", -1000, "--h", 1),
         "the mickens Jacobian overflows", ("E1", "E2")),
        # E3 = (-2500, 312.625) does not exist, whatever its Jacobian does
        (("--scheme", "mickens", "--beta", -1000, "--h", 1),
         "negative coordinate: outside D, L >= 0", ("E3",)),
        # -p*D at E2 is -inf: no criterion value is finite
        (("--p", 1e308, "--capacity", 1e308),
         "the reference Jacobian overflows", ("E2",)),
        # c0 at E3 overflows, and E3 does not exist anyway
        (("--p", 1e9, "--beta", 1e308), "beta >= p*capacity", ("E3",)),
    ])
    def test_extreme_parameters_are_out_of_criterion(self, capsys, flags,
                                                     reason, labels):
        with warnings.catch_warnings(), np.errstate(all="warn"):
            warnings.simplefilter("error")
            assert run_cli("stability", *flags) == 0
        rows = {row[:2]: row for row in capsys.readouterr().out.splitlines()[1:]}
        for label in labels:
            assert f"out-of-criterion [reason={reason}" in rows[label]

    def test_negative_points_are_out_of_criterion(self, capsys):
        assert run_cli("stability", "--scheme", "euler", "--beta", -0.3,
                       "--capacity", -1) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert rows[1].startswith("E2 (-1, 0): out-of-criterion")
        assert rows[2].startswith("E3 (-0.75, 0.03125): out-of-criterion")
        for row in rows[1:]:
            assert "reason=negative coordinate: outside D, L >= 0]" in row

    def test_finite_points_printed_without_a_jacobian(self, capsys):
        assert run_cli("stability", "--scheme", "mickens", "--beta", -1000,
                       "--h", 1) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert rows[0].startswith("E1 (0, 0): out-of-criterion")
        assert rows[1].startswith("E2 (1, 0): out-of-criterion")
        assert all("the mickens Jacobian overflows" in row for row in rows[:2])

    @pytest.mark.parametrize("sigma", ["1.5", "-2", "0", "nan"])
    def test_order_outside_unit_interval_exits_two(self, capsys, sigma):
        assert run_cli("stability", "--scheme", "fractional",
                       "--sigma", sigma) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: sigma must lie in (0, 1], "
                                f"got {float(sigma)!r}\n")

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "report.txt"
        assert run_cli("stability", "--scheme", "mickens",
                       "--output", target) == 0
        assert str(target) in capsys.readouterr().out
        assert "scheme mickens" in target.read_text()


class TestVerify:
    def test_clean_run_reports_ok(self, tmp_path, capsys):
        code = run_cli("verify", "--scheme", "mickens", "--t-end", 50,
                       "--output", tmp_path)
        assert code == 0
        assert "verify: ok (scheme mickens" in capsys.readouterr().out

    def test_violation_printed_but_exit_zero_without_strict(self, tmp_path,
                                                            capsys):
        code = run_cli("verify", "--scheme", "euler", "--h", 2, "--t-end", 8,
                       "--d0", 0.5, "--l0", 1.5, "--output", tmp_path)
        assert code == 0
        assert "VIOLATION D >= 0 at t = 2" in capsys.readouterr().out

    def test_strict_turns_violation_into_failure(self, tmp_path, capsys):
        code = run_cli("verify", "--scheme", "euler", "--h", 2, "--t-end", 8,
                       "--d0", 0.5, "--l0", 1.5, "--strict",
                       "--output", tmp_path)
        assert code == 1

    @pytest.mark.parametrize("flags,zero", [
        (("--scheme", "euler", "--p", 0), "p*h = 0"),
        (("--scheme", "mickens", "--alpha", 0), "alpha*beta = 0"),
        (("--scheme", "reference", "--beta", 0), "beta = 0"),
        (("--scheme", "fractional", "--beta", 0), "beta = 0"),
    ])
    def test_zero_divisor_exits_two(self, tmp_path, capsys, flags, zero):
        code = run_cli("verify", *flags, "--output", tmp_path)
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {zero}: ")

    @pytest.mark.parametrize("flags", [
        ("--scheme", "euler", "--p", 0),
        ("--scheme", "mickens", "--alpha", 0),
        ("--scheme", "reference", "--beta", 0),
        ("--scheme", "fractional", "--beta", 0),
    ])
    def test_region_error_writes_nothing(self, tmp_path, capsys, flags):
        out = tmp_path / "out"
        assert run_cli("verify", *flags, "--output", out) == 2
        assert list(out.iterdir()) == []

    def test_config_outputs_kept(self, tmp_path, capsys):
        cfg = tmp_path / "runs.cfg"
        cfg.write_text("[a]\nt_end = 5\noutputs = stability\n")
        code = run_cli("verify", "--config", cfg, "--output", tmp_path)
        assert code == 0
        assert (tmp_path / "a_stability.txt").exists()
        assert (tmp_path / "a_verification.txt").exists()

    def test_config_fractional_sections_share_one_batch(self, tmp_path,
                                                         capsys, monkeypatch):
        batches = []

        def batch(runs, real=runner.caputo_solve_batch):
            runs = list(runs)
            batches.append(len(runs))
            return real(runs)

        monkeypatch.setattr(runner, "caputo_solve_batch", batch)
        cfg = tmp_path / "runs.cfg"
        cfg.write_text("[a]\nscheme = fractional\nt_end = 5\n\n"
                       "[b]\nt_end = 5\n\n"
                       "[c]\nscheme = fractional\nsigma = 0.8\nt_end = 5\n")
        assert run_cli("verify", "--config", cfg, "--output", tmp_path) == 0
        assert batches == [2]
        printed = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in printed] == ["a", "b", "c"]
        assert all(": ok (scheme " in line for line in printed)


class TestCompare:
    def make_csv(self, tmp_path, name, **kw):
        traj = solve_scenario(Scenario(name=name, t_end=5.0, **kw))
        return trajectory_to_csv(traj, tmp_path / f"{name}.csv")

    def test_shared_grid_distances(self, tmp_path, capsys):
        a = self.make_csv(tmp_path, "a")
        b = self.make_csv(tmp_path, "b", scheme=EULER)
        assert run_cli("compare", a, b) == 0
        out = capsys.readouterr().out
        assert "sup distance" in out and "terminal distance" in out
        assert "resampled" not in out

    def test_resampled_note(self, tmp_path, capsys):
        a = self.make_csv(tmp_path, "a")
        b = self.make_csv(tmp_path, "b", h=0.125)
        assert run_cli("compare", a, b) == 0
        assert "resampled onto the shared range" in capsys.readouterr().out

    def test_identical_files_give_zero(self, tmp_path, capsys):
        a = self.make_csv(tmp_path, "a")
        assert run_cli("compare", a, a) == 0
        out = capsys.readouterr().out
        assert "sup distance      0" in out

    def test_missing_file_exits_two(self, tmp_path, capsys):
        a = self.make_csv(tmp_path, "a")
        assert run_cli("compare", a, tmp_path / "absent.csv") == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("rows_a,rows_b,sup,terminal", [
        # huge neighbours of opposite sign: their slope overflows
        ("0,0,0\n1,0,0\n", "0,0,1e308\n2,0,-1e308\n", "1e+308", "0"),
        # two sample times very close: the slope overflows again
        ("0,0,0\n5e-301,0,0\n", "0,0,0\n1e-300,0,1e10\n",
         "5000000000", "5000000000"),
    ], ids=["opposite-signs", "close-times"])
    def test_resampling_survives_an_overflowing_slope(self, tmp_path, capsys,
                                                      rows_a, rows_b, sup,
                                                      terminal):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_text("t,D,L\n" + rows_a)
        b.write_text("t,D,L\n" + rows_b)
        assert run_cli("compare", a, b) == 0
        assert capsys.readouterr().out == (
            f"sup distance      {sup} (resampled onto the shared range)\n"
            f"terminal distance {terminal}\n")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("rows_a,rows_b,distance", [
        # a's range holds no sample of b's inside it, or the reverse
        ("0,0,0\n10,0,0\n", "2,0,0\n3,0,0\n", "0"),
        ("2,0,0\n3,0,0\n", "0,0,0\n10,0,0\n", "0"),
        # b's L is 0.5 on [0, 1] although its time step overflows
        ("0,0,0\n1,0,0\n", "-1e308,0,0\n1e308,0,1\n", "0.5"),
        ("-1e308,0,0\n1e308,0,1\n", "0,0,0\n1,0,0\n", "0.5"),
    ], ids=["wide-narrow", "narrow-wide", "huge-step-second",
            "huge-step-first"])
    def test_either_order_reads_the_shared_range(self, tmp_path, capsys,
                                                 rows_a, rows_b, distance):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_text("t,D,L\n" + rows_a)
        b.write_text("t,D,L\n" + rows_b)
        assert run_cli("compare", a, b) == 0
        assert capsys.readouterr().out == (
            f"sup distance      {distance} (resampled onto the shared range)\n"
            f"terminal distance {distance}\n")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("body,message", [
        ("", "times must be a nonempty 1-d array"),
        ("0,0.2,0.3\n0,0.2,0.3\n", "times must be strictly increasing"),
        # inf - inf would be a numpy RuntimeWarning ahead of the error
        ("inf,0,0\ninf,0,0\n", "times must be strictly increasing"),
        ("0,0,0\ninf,0,0\n", "times must be finite"),
        ("0,abc,0.3\n", "could not convert string to float: 'abc'"),
    ])
    def test_table_errors_name_the_file(self, tmp_path, capsys, body, message):
        bad = tmp_path / "h.csv"
        bad.write_text("t,D,L\n" + body)
        assert run_cli("compare", bad, bad) == 2
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"

    def test_malformed_csv_exits_two(self, tmp_path, capsys):
        a = self.make_csv(tmp_path, "a")
        bad = tmp_path / "bad.csv"
        bad.write_text("time,prey,predator\n0,1,2\n")
        assert run_cli("compare", a, bad) == 2

    def test_undecodable_csv_names_the_file(self, tmp_path, capsys):
        # artifacts are written as UTF-8, so they are read back as UTF-8
        a = self.make_csv(tmp_path, "a")
        bad = tmp_path / "bin.csv"
        bad.write_bytes(b"\xff\xfet,D,L\n")
        assert run_cli("compare", a, bad) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: 'utf-8' codec can't decode")
        assert len(err.splitlines()) == 1


class TestSweep:
    def test_step_sweep_emits_each_value(self, tmp_path, capsys):
        code = run_cli("sweep", "--param", "h", "--values", "0.25,0.5",
                       "--scheme", "euler", "--t-end", 5, "--output", tmp_path)
        assert code == 0
        assert (tmp_path / "sweep_h0.25.csv").exists()
        assert (tmp_path / "sweep_h0.5.csv").exists()
        assert (tmp_path / "sweep_h.gp").exists()

    def test_sigma_sweep_switches_to_fractional(self, tmp_path):
        code = run_cli("sweep", "--param", "sigma", "--values", "0.9",
                       "--t-end", 5, "--output", tmp_path)
        assert code == 0
        csv = tmp_path / "sweep_sigma0.9.csv"
        assert csv.exists()

    def test_empty_values_exit_two(self, tmp_path, capsys):
        code = run_cli("sweep", "--param", "h", "--values", ",",
                       "--output", tmp_path)
        assert code == 2
        assert "at least one number" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [("--config", "/nonexistent.cfg"),
                                      ("--strict",)])
    def test_run_flags_rejected(self, tmp_path, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            run_cli("sweep", "--param", "h", "--values", "0.25", *flag,
                    "--output", tmp_path)
        assert exc.value.code == 2
        assert list(tmp_path.iterdir()) == []


class TestFigures:
    def test_preset_run(self, tmp_path, capsys):
        code = run_cli("figures", "figure8", "--output", tmp_path)
        assert code == 0
        printed = capsys.readouterr().out.splitlines()
        assert str(tmp_path / "figure8_euler.csv") in printed
        assert str(tmp_path / "figure8_reference.csv") in printed
        assert str(tmp_path / "figure8.gp") in printed

    def test_unknown_preset_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit):
            run_cli("figures", "figure99")

    def test_all_preset_bytes_are_frozen(self, tmp_path, capsys):
        assert run_cli("figures", "all", "--output", tmp_path) == 0
        got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.iterdir()}
        assert got == FIGURES_ALL_SHA256

    def test_paths_listed_per_preset_in_scenario_order(self, tmp_path, capsys):
        assert run_cli("figures", "all", "--output", tmp_path) == 0
        expected = [str(tmp_path / name) for preset in PRESETS
                    for name in (*(f"{sc.name}.csv"
                                   for sc in preset_scenarios(preset)),
                                 f"{preset}.gp")]
        assert capsys.readouterr().out.splitlines() == expected

    @pytest.mark.parametrize("preset,solves,members,writes", [
        # figures 6-10 repeat 12 default-start runs of figures 2-5
        ("all", 9, [6], 15),
        ("figure6", 3, [1], 4),
    ])
    def test_each_distinct_run_is_solved_and_written_once(
            self, tmp_path, capsys, monkeypatch, preset, solves, members,
            writes):
        calls = {"iterate": 0, "trajectory_to_csv": 0}
        batches = []

        def counted(name):
            real = getattr(runner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        def batch(runs, real=runner.caputo_solve_batch):
            runs = list(runs)
            batches.append(len(runs))
            return real(runs)

        for name in calls:
            monkeypatch.setattr(runner, name, counted(name))
        monkeypatch.setattr(runner, "caputo_solve_batch", batch)
        assert run_cli("figures", preset, "--output", tmp_path) == 0
        assert calls == {"iterate": solves, "trajectory_to_csv": writes}
        assert batches == members
        # every repeat is a file of its own, not a link
        assert all(not p.is_symlink() and p.stat().st_nlink == 1
                   for p in tmp_path.iterdir())

    def test_output_that_is_a_file_exits_two(self, tmp_path, capsys,
                                              monkeypatch):
        target = tmp_path / "taken"
        target.write_text("")
        solved = []
        monkeypatch.setattr(runner, "caputo_solve_batch", solved.append)
        assert run_cli("figures", "all", "--output", target) == 2
        assert solved == []     # the directory fails before any solve
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "Traceback" not in captured.err


# the default-parameter runs that several presets repeat
_REFERENCE = "5be3a09d6b6703dea5972bd50f9dec6d94de07d92b1e50748b150fe8f7e946e4"
_EULER = "3b2ca0cd0ae4f67959979f63108ec79505d0401c46bfc5ccd1343acf9dfe1599"
_MICKENS = "b0c01fe6b08971e8e1b3bdca06bc71a0e8a47082f347fbc34882e85feb0476fd"
_SIGMA095 = "8d2cece25f83078445aad84ec2771c0d04e2e9536008a095ff08d6d2adcfd025"

#: sha256 of every file ``predprey figures all`` writes
FIGURES_ALL_SHA256 = {
    "figure2.gp": "d89784fe2278c9d4a697ef8a28d34e13952474af663cff9df23a9485ac8522d8",
    "figure2_d0.2_l0.3.csv": _REFERENCE,
    "figure2_d0.85_l0.1.csv": "d853d5af302017d7ca8cd24f43603c4f014b32ff39a88397681ecf4ade4a9299",
    "figure2_d0_l0.5.csv": "a4e11bee44b598caf8d10f2fa73512421c24bcb8a6b5fe5af1ad54eeb8076fec",
    "figure3.gp": "0ef4a9590d4e1684c3d8fefad8fcc2bdc5ce76169fb94bed1d641d5749569e0a",
    "figure3_d0.2_l0.3.csv": _EULER,
    "figure3_d0.85_l0.1.csv": "4ae84e73d905c6c4f25afed215d9480de78da866af8a4067075a1cb45a29da8d",
    "figure3_d0_l0.5.csv": "3351f72f54f8a39b08b191a3bdd37de28561ea6e480d9542c3ab5da9f124f26a",
    "figure4.gp": "c37456d1e8ac939310e6212cbe721e363ccb07dc6286a0595e169666cb845d96",
    "figure4_d0.2_l0.3.csv": _MICKENS,
    "figure4_d0.85_l0.1.csv": "50e66a4bd6a94008809887b019ae385dba36e61b6d96d98354ff8612c4cd54f9",
    "figure4_d0_l0.5.csv": "5b31477ceb02595ebd691776516b9873157cb1059bbf29c9ea8903fa6ebe493e",
    "figure5.gp": "86513311db60d9196bde4e64a0074b306d9a90a912356635e1eaab94cc8827a2",
    "figure5_d0.2_l0.3.csv": _SIGMA095,
    "figure5_d0.85_l0.1.csv": "ed458d8a495c8aefb2593ae7fe27d974786a85354a1d6c575d2d8f540bba618a",
    "figure5_d0_l0.5.csv": "824d39f1fa05f880b6bea5a1e5bfaff4a61b17228dca70ac92ec9663c7dad32a",
    "figure6.gp": "f26a791ef6b20e92e89656639955a2351cb0cde097f63420d2a8eb2b28a49de2",
    "figure6_euler.csv": _EULER,
    "figure6_fractional.csv": _SIGMA095,
    "figure6_mickens.csv": _MICKENS,
    "figure6_reference.csv": _REFERENCE,
    "figure7.gp": "4b8e3e78cb0b74d09714bca5e4afedb74db4f72783b47a9d14f43eed0c47cbdc",
    "figure7_euler.csv": _EULER,
    "figure7_mickens.csv": _MICKENS,
    "figure7_reference.csv": _REFERENCE,
    "figure8.gp": "a2f6b8b8c235669e9b8d997fdaf1380ff65373f6a8f0508c46372435782aaac2",
    "figure8_euler.csv": _EULER,
    "figure8_reference.csv": _REFERENCE,
    "figure9.gp": "65a80db9222321e71c3d94936095dd2c9cd4d72300ceda41379f4e11d8a77d26",
    "figure9_reference.csv": _REFERENCE,
    "figure10.gp": "9aee7625a3340517224fb57ffa9dd6d809740b9a475c6f6d448cf630bc6f3899",
    "figure10_reference.csv": _REFERENCE,
    "figure10_sigma0.8.csv": "4eb2f6fe0bf793fe743a61d981f743e097e9944d2f5b33ca8dcd6380659148da",
    "figure10_sigma0.9.csv": "8b029179d60645583d1f12a35871f876d58c4a7ac62c74035da684b10e4e2c88",
    "figure10_sigma0.95.csv": _SIGMA095,
    "figure10_sigma0.99.csv": "43c263d1a3daa8b3660cc65899e4c247e291521366971a4bb57174af139e4578",
}


class TestFlagsAndConfig:
    @pytest.mark.parametrize("fields, validated", [
        (dict(scheme="mickens", h=0.5, t_end=10.0, d0=0.85, l0=0.1), True),
        (dict(scheme="fractional", sigma=0.9, alpha=0.1, p=0.5), True),
        # alpha > beta breaks the ordering: both fall back to unchecked
        (dict(scheme="euler", alpha=0.5, beta=0.3, capacity=2.0), False),
    ])
    def test_same_scenario_from_flags_and_section(self, tmp_path, fields,
                                                  validated):
        argv = ["simulate"]
        for key, value in fields.items():
            argv += [f"--{key.replace('_', '-')}", str(value)]
        from_flags = _scenarios_for(build_parser().parse_args(argv), "run",
                                    verify=False)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[run]\n" + "".join(f"{k} = {v}\n"
                                           for k, v in fields.items()))
        assert from_flags == load_scenarios(cfg)
        assert from_flags[0].params.validated is validated

    #: a value for each flat field that differs from its default
    FIELD_VALUES = {"alpha": "0.06", "beta": "0.25", "p": "0.35",
                    "capacity": "1.2", "d0": "0.3", "l0": "0.2",
                    "scheme": "mickens", "h": "0.5", "t_end": "3",
                    "sigma": "0.9"}

    @pytest.mark.parametrize("field", runner.MODEL_FIELDS)
    def test_flag_and_key_write_the_same_csv(self, tmp_path, field):
        # euler keeps each run short; sigma acts only under fractional
        base = {"scheme": "fractional" if field == "sigma" else "euler",
                "t_end": "2"}
        base.pop(field, None)   # a flag would override the key
        value = self.FIELD_VALUES[field]
        argv = [a for k, v in base.items()
                for a in (f"--{k.replace('_', '-')}", v)]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[run]\n{field} = {value}\n")
        csvs = {}
        for run, extra in (("default", []),
                           ("flag", [f"--{field.replace('_', '-')}", value]),
                           ("key", ["--config", cfg])):
            assert run_cli("simulate", "--output", tmp_path / run, *argv,
                           *extra) == 0
            csvs[run] = (tmp_path / run / "run.csv").read_bytes()
        assert csvs["flag"] == csvs["key"] != csvs["default"]


class TestParser:
    def test_missing_subcommand_exits(self, capsys):
        with pytest.raises(SystemExit):
            run_cli()

    def test_scheme_choices_enforced(self, capsys):
        with pytest.raises(SystemExit):
            run_cli("simulate", "--scheme", "leapfrog")

    def test_all_subcommands_registered(self):
        parser = build_parser()
        subactions = [a for a in parser._actions
                      if hasattr(a, "choices") and a.choices]
        commands = set(subactions[0].choices)
        assert commands == {"simulate", "stability", "verify", "compare",
                            "sweep", "figures"}


class TestModuleEntry:
    def test_python_dash_m_invocation(self, tmp_path):
        # The child runs in tmp_path, where a relative PYTHONPATH such as
        # "src" no longer resolves; put the directory holding the imported
        # package first so the child runs the same code the tests import.
        package_root = str(Path(predprey.__file__).resolve().parent.parent)
        inherited = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [package_root] + ([inherited] if inherited else [])))
        proc = subprocess.run(
            [sys.executable, "-m", "predprey", "stability"],
            capture_output=True, text=True, cwd=tmp_path, env=env)
        assert proc.returncode == 0
        assert "E3" in proc.stdout

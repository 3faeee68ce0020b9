"""Command line behavior: subcommands, artifacts, and exit codes."""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import predprey
from predprey import (EULER, Scenario, State, load_scenarios, solve_scenario,
                      trajectory_to_csv)
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

    def test_bad_config_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[a]\nstep = 1\n")
        code = run_cli("simulate", "--config", cfg, "--output", tmp_path)
        assert code == 2
        assert "unknown key" in capsys.readouterr().err

    def test_divergent_run_exits_one(self, tmp_path, capsys):
        with np.errstate(all="ignore"):
            code = run_cli("simulate", "--alpha", 1.0, "--beta", 0.5,
                           "--p", 0.1, "--capacity", -1.0, "--d0", 2.0,
                           "--l0", 0.1, "--h", 0.5, "--t-end", 500,
                           "--output", tmp_path)
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("scheme", ["reference", "euler", "mickens"])
    def test_zero_capacity_exits_one(self, tmp_path, capsys, scheme):
        code = run_cli("simulate", "--scheme", scheme, "--capacity", 0,
                       "--output", tmp_path)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "(step 1)" in err


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

    @pytest.mark.parametrize("scheme", ["reference", "euler", "mickens",
                                        "fractional"])
    def test_zero_capacity_is_out_of_criterion(self, capsys, scheme):
        assert run_cli("stability", "--scheme", scheme, "--capacity", 0) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [row[:2] for row in rows] == ["E1", "E2", "E3"]
        assert all("out-of-criterion [reason=capacity = 0" in row for row in rows)

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

    def test_config_outputs_kept(self, tmp_path, capsys):
        cfg = tmp_path / "runs.cfg"
        cfg.write_text("[a]\nt_end = 5\noutputs = stability\n")
        code = run_cli("verify", "--config", cfg, "--output", tmp_path)
        assert code == 0
        assert (tmp_path / "a_stability.txt").exists()
        assert (tmp_path / "a_verification.txt").exists()


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

    def test_malformed_csv_exits_two(self, tmp_path, capsys):
        a = self.make_csv(tmp_path, "a")
        bad = tmp_path / "bad.csv"
        bad.write_text("time,prey,predator\n0,1,2\n")
        assert run_cli("compare", a, bad) == 2


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

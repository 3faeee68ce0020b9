"""Scenario execution: CSV artifacts, comparisons, presets, config files.

The CSV contract is deliberately rigid: header ``t,D,L``, one row per
grid point, values printed with 17 significant digits and LF line
endings, so a round trip through disk is bit-exact and gnuplot can read
the files unmodified.
"""

from __future__ import annotations

import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .fractional import FractionalConfig, caputo_solve, caputo_solve_batch
from .model import (EULER, FRACTIONAL, MICKENS, REFERENCE, SCHEMES,
                    ModelParams, State, Trajectory)
from .regions import (check_trajectory, continuous_region, euler_region,
                      fractional_region, mickens_region)
from .schemes import SchemeConfig, iterate
from .stability import classify

CSV_HEADER = "t,D,L"

OUTPUT_KINDS = ("timeseries", "phase", "stability", "verify")

#: defaults shared by the command line and the bundled presets
DEFAULT_PARAMS = ModelParams(alpha=0.05, beta=0.3, p=0.4, capacity=1.0)
DEFAULT_INITIAL = State(0.2, 0.3)
STANDARD_INITIALS = (State(0.2, 0.3), State(0.0, 0.5), State(0.85, 0.1))


class ConfigError(ValueError):
    """Bad scenario file; the message carries file and line number."""


@dataclass(frozen=True)
class Scenario:
    """One solver run plus the artifacts requested from it.

    ``name`` is the artifacts' file stem and a gnuplot string literal.
    """

    name: str
    params: ModelParams = DEFAULT_PARAMS
    initial: State = DEFAULT_INITIAL
    scheme: str = REFERENCE
    h: float = 0.25
    t_end: float = 300.0
    sigma: float = 0.95
    outputs: tuple = ("timeseries",)

    def __post_init__(self):
        if self.name in ("", ".", "..") or any(c in self.name for c in "/\\'"):
            raise ValueError(f"scenario name {self.name!r} is not a plain "
                             "file stem (no /, \\ or ', not empty, . or ..)")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        bad = [o for o in self.outputs if o not in OUTPUT_KINDS]
        if bad:
            raise ValueError(f"unknown outputs {bad!r}; expected {OUTPUT_KINDS}")

    @classmethod
    def from_fields(cls, name: str, fields) -> "Scenario":
        """Build from flat fields, as a config section or flags give them.

        Keys are the scenario fields plus alpha, beta, p, capacity, d0 and
        l0; a missing or None field takes its default.  Parameters that
        break the ordering fall back to ``ModelParams.unchecked``.
        """
        given = {k: v for k, v in fields.items() if v is not None}
        p = {k: given.pop(k, getattr(DEFAULT_PARAMS, k))
             for k in ("alpha", "beta", "p", "capacity")}
        try:
            params = ModelParams(**p)
        except ValueError:
            params = ModelParams.unchecked(**p)
        initial = State(given.pop("d0", DEFAULT_INITIAL.d),
                        given.pop("l0", DEFAULT_INITIAL.l))
        return cls(name=name, params=params, initial=initial, **given)


def _config(sc: Scenario):
    """The solver configuration of a scenario's scheme."""
    if sc.scheme == FRACTIONAL:
        return FractionalConfig(sigma=sc.sigma, h=sc.h, t_end=sc.t_end)
    return SchemeConfig(h=sc.h, t_end=sc.t_end, scheme=sc.scheme)


def solve_scenario(sc: Scenario) -> Trajectory:
    """Dispatch to the scheme-appropriate solver."""
    solve = caputo_solve if sc.scheme == FRACTIONAL else iterate
    return solve(sc.params, _config(sc), sc.initial)


def _solve_fractional(scenarios) -> dict:
    """Name -> trajectory, or the error its solve raised, of each
    fractional scenario, all solved by one batch call."""
    solved, runs = {}, {}
    for sc in scenarios:
        if sc.scheme == FRACTIONAL:
            try:
                runs[sc.name] = (sc.params, _config(sc), sc.initial)
            except ValueError as exc:
                solved[sc.name] = exc
    solved.update(zip(runs, caputo_solve_batch(runs.values())))
    return solved


def scheme_region(sc: Scenario):
    """The region spec matching a scenario's scheme."""
    if sc.scheme == REFERENCE:
        return continuous_region(sc.params, sc.initial)
    if sc.scheme == EULER:
        return euler_region(sc.params, sc.h)
    if sc.scheme == MICKENS:
        return mickens_region(sc.params, sc.h)
    return fractional_region(sc.params, sc.initial)


# {{{ CSV round trip

def trajectory_to_csv(traj: Trajectory, path) -> Path:
    """Write ``t,D,L`` rows with 17 significant digits and LF endings."""
    path = Path(path)
    values = np.column_stack([traj.times, traj.states]).ravel().tolist()
    body = "%.17g,%.17g,%.17g\n" * len(traj) % tuple(values)
    path.write_text(f"{CSV_HEADER}\n{body}", newline="\n")
    return path


def trajectory_from_csv(path) -> Trajectory:
    """Re-read a trajectory CSV (scheme ``csv``); numbers round-trip bit-exact.

    Blank lines are skipped.  Every error names the file.
    """
    path = Path(path)
    lines = list(filter(None, path.read_text().split("\n")))
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"{path}: expected header {CSV_HEADER!r}")
    commas = [line.count(",") for line in lines]
    if commas.count(2) != len(commas):
        bad = next(i for i, n in enumerate(commas) if n != 2)
        raise ValueError(f"{path}: row {bad + 1} has {commas[bad] + 1} columns")
    try:
        # the header's three cells lead the one split over all rows
        table = np.array(",".join(lines).split(",")[3:], dtype=float)
        table = table.reshape(-1, 3)
        return Trajectory(table[:, 0], table[:, 1:], "csv")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None

# }}}


@dataclass(frozen=True)
class CompareResult:
    """Distances between two trajectories over their shared time range."""

    sup_distance: float
    terminal_distance: float
    resampled: bool = False


def compare(traj_a: Trajectory, traj_b: Trajectory) -> CompareResult:
    """Sup-norm and final-time distance between two trajectories.

    Trajectories on different grids are resampled by linear interpolation
    onto the overlap of their time ranges (flagged in the result).
    Disjoint ranges are a usage error.
    """
    ta, tb = traj_a.times, traj_b.times
    if ta.size == tb.size and np.array_equal(ta, tb):
        a_states, b_states = traj_a.states, traj_b.states
        resampled = False
    else:
        lo, hi = max(ta[0], tb[0]), min(ta[-1], tb[-1])
        if hi < lo:
            raise ValueError("trajectories cover disjoint time ranges")
        keep = (ta >= lo) & (ta <= hi)
        grid = ta[keep]
        if grid.size == 0:
            raise ValueError("no sample points fall inside the shared range")
        a_states = traj_a.states[keep]
        b_states = np.column_stack([
            np.interp(grid, tb, traj_b.states[:, 0]),
            np.interp(grid, tb, traj_b.states[:, 1])])
        resampled = True
    pointwise = np.abs(a_states - b_states).max(axis=1)
    return CompareResult(sup_distance=float(pointwise.max()),
                         terminal_distance=float(pointwise[-1]),
                         resampled=resampled)


# {{{ artifact writing

def stability_text(sc: Scenario) -> str:
    """Equilibrium classification table for a scenario's scheme."""
    arg = sc.sigma if sc.scheme == FRACTIONAL else sc.h
    lines = [f"# stability report: scenario {sc.name}, scheme {sc.scheme}"]
    for rep in classify(sc.params, sc.scheme, arg):
        eq = rep.equilibrium
        point = (f"({eq.point.d:.6g}, {eq.point.l:.6g})"
                 if math.isfinite(eq.point.d) and math.isfinite(eq.point.l)
                 else "(undefined)")
        detail = ", ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                           for k, v in rep.criterion_details.items())
        extra = f", h_max={rep.step_bound:.6g}" if rep.step_bound else ""
        lines.append(f"{eq.label} {point}: {rep.classification} [{detail}]{extra}")
    return "\n".join(lines) + "\n"


def _verification_text(sc: Scenario, report) -> str:
    lines = [f"# verification report: scenario {sc.name}, scheme {sc.scheme}"]
    if report.ok:
        lines.append("ok: all states inside the invariant region")
    else:
        lines.append(
            f"violation at index {report.first_violation_index} "
            f"(t = {report.trajectory.times[report.first_violation_index]:g}): "
            f"{report.violated_quantity}, observed {report.observed:.17g}, "
            f"bound {report.bound:.17g}")
    return "\n".join(lines) + "\n"


def run_scenario(sc: Scenario, out_dir, traj=None):
    """Solve one scenario and write its artifacts.

    ``traj`` is the scenario's trajectory when it is already solved, or
    the exception its solve raised, which is raised here; None solves it.
    Returns (paths, violation_report) where the report is None unless the
    scenario requested verification.
    """
    if isinstance(traj, Exception):
        raise traj
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if traj is None:
        traj = solve_scenario(sc)
    # a region that cannot be built fails the run before any artifact
    region = scheme_region(sc) if "verify" in sc.outputs else None
    paths = []
    report = None
    if "timeseries" in sc.outputs or "phase" in sc.outputs:
        paths.append(trajectory_to_csv(traj, out_dir / f"{sc.name}.csv"))
    if "stability" in sc.outputs:
        p = out_dir / f"{sc.name}_stability.txt"
        p.write_text(stability_text(sc), newline="\n")
        paths.append(p)
    if "verify" in sc.outputs:
        report = check_trajectory(traj, region)
        p = out_dir / f"{sc.name}_verification.txt"
        p.write_text(_verification_text(sc, report), newline="\n")
        paths.append(p)
    return paths, report


def run_scenarios(scenarios, out_dir, workers: Optional[int] = None):
    """Run a batch in the calling thread; artifact files never collide by name.

    Fractional scenarios are first solved together by one
    :func:`caputo_solve_batch` call.  Then each scenario runs through
    :func:`run_scenario` in order, which solves the classical ones and
    writes every artifact.  A scenario whose run failed still lets the
    others write theirs; the first such error in scenario order is raised
    once all have run.  ``workers`` has no effect.
    """
    names = [sc.name for sc in scenarios]
    if len(set(names)) != len(names):
        raise ValueError("scenario names must be unique within a batch")
    solved = _solve_fractional(scenarios)
    results, error = [], None
    for sc in scenarios:
        try:
            results.append(run_scenario(sc, out_dir, solved.get(sc.name)))
        except Exception as exc:    # the others still run; raised below
            if error is None:
                error = exc
    if error is not None:
        raise error
    paths = [p for ps, _ in results for p in ps]
    reports = [r for _, r in results if r is not None]
    return paths, reports

# }}}


# {{{ gnuplot emission

def write_gnuplot_script(csv_paths, out_path, title: str,
                         phase: bool = False) -> Path:
    """Emit a batch gnuplot script rendering the given CSVs to PNG."""
    out_path = Path(out_path)
    stem = out_path.stem

    def plot(columns):
        return "plot " + ", \\\n     ".join(
            f"'{Path(p).name}' skip 1 using {using} with lines "
            f"title '{Path(p).stem}{tag}'"
            for p in csv_paths for using, tag in columns)

    lines = [
        "# generated by predprey; run with: gnuplot " + out_path.name,
        "set datafile separator ','",
        "set key outside",
        "set grid",
        "set terminal pngcairo size 1000,600",
        f"set output '{stem}_timeseries.png'",
        f"set title '{title}'",
        "set xlabel 't'",
        "set ylabel 'population'",
        plot([("1:2", " D"), ("1:3", " L")]),
    ]
    if phase:
        lines += [
            f"set output '{stem}_phase.png'",
            "set xlabel 'D'",
            "set ylabel 'L'",
            plot([("2:3", "")]),
        ]
    out_path.write_text("\n".join(lines) + "\n", newline="\n")
    return out_path


def run_batch(scenarios, out_dir, script: str, title: str, phase: bool = True):
    """Run a batch, then write ``<script>.gp`` over the CSVs it wrote.

    Returns (paths, reports) as :func:`run_scenarios` does, with the
    script path last; no script is written when the batch wrote no CSV.
    """
    paths, reports = run_scenarios(scenarios, out_dir)
    csvs = [p for p in paths if p.suffix == ".csv"]
    if csvs:
        paths.append(write_gnuplot_script(csvs, Path(out_dir) / f"{script}.gp",
                                          title=title, phase=phase))
    return paths, reports

# }}}


# {{{ presets

#: each preset's runs in order, as (scenario name suffix, Scenario fields)
_PRESET_RUNS = {
    **{f"figure{i}": [(f"d{ic.d:g}_l{ic.l:g}", {"scheme": s, "initial": ic})
                      for ic in STANDARD_INITIALS]
       for i, s in enumerate((REFERENCE, EULER, MICKENS, FRACTIONAL), start=2)},
    "figure6": [(s, {"scheme": s}) for s in (FRACTIONAL, REFERENCE, EULER, MICKENS)],
    "figure7": [(s, {"scheme": s}) for s in (MICKENS, REFERENCE, EULER)],
    "figure8": [(s, {"scheme": s}) for s in (EULER, REFERENCE)],
    "figure9": [(REFERENCE, {"scheme": REFERENCE})],
    "figure10": [*((f"sigma{s:g}", {"scheme": FRACTIONAL, "sigma": s})
                   for s in (0.8, 0.9, 0.95, 0.99)),
                 (REFERENCE, {"scheme": REFERENCE})],
}

PRESETS = tuple(_PRESET_RUNS)


def preset_scenarios(preset: str):
    """Scenario bundle for a named preset (figure2 .. figure10)."""
    if preset not in _PRESET_RUNS:
        raise ValueError(f"unknown preset {preset!r}; expected figure2 .. figure10")
    return [Scenario(name=f"{preset}_{suffix}", **fields)
            for suffix, fields in _PRESET_RUNS[preset]]


def run_presets(presets, out_dir):
    """Write each named preset's CSVs and gnuplot script, solving each run once.

    Presets repeat runs: figures 6-10 reuse the default-start runs of
    figures 2-5.  Scenarios that agree in every field but their name are
    one run.  The first scenario of each run is solved and written by a
    single :func:`run_scenarios` batch, and every repeat's CSV is a byte
    copy of that first CSV.  Nothing is kept between calls.  Returns the
    paths preset by preset: its CSVs in scenario order, then its script.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)     # fail before any solve
    bundles = {preset: preset_scenarios(preset) for preset in presets}
    first, source = {}, {}
    for scenarios in bundles.values():
        for sc in scenarios:
            run = tuple(v for k, v in vars(sc).items() if k != "name")
            source[sc.name] = first.setdefault(run, sc).name
    run_scenarios(list(first.values()), out_dir)
    paths = []
    for preset, scenarios in bundles.items():
        csvs = [out_dir / f"{sc.name}.csv" for sc in scenarios]
        for sc, csv in zip(scenarios, csvs):
            if source[sc.name] != sc.name:
                shutil.copyfile(out_dir / f"{source[sc.name]}.csv", csv)
        paths += csvs
        paths.append(write_gnuplot_script(csvs, out_dir / f"{preset}.gp",
                                          title=preset, phase=True))
    return paths

# }}}


# {{{ scenario config files

_FLOAT_KEYS = ("alpha", "beta", "p", "capacity", "d0", "l0", "h", "t_end", "sigma")
_SCENARIO_KEYS = frozenset(_FLOAT_KEYS) | {"scheme", "outputs"}


def parse_config(text: str, source: str = "<config>"):
    """Parse a sectioned key-value scenario file.

    Format: ``[name]`` headers introduce scenarios; ``key = value`` lines
    set fields; ``#`` or ``;`` start comments.  Unknown keys and malformed
    lines are reported with their line numbers.  Returns a list of
    (name, {key: (raw_value, lineno)}).
    """
    sections = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].split(";", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"{source}:{lineno}: unterminated section header")
            name = line[1:-1].strip()
            if not name:
                raise ConfigError(f"{source}:{lineno}: empty section name")
            if any(n == name for n, _ in sections):
                raise ConfigError(f"{source}:{lineno}: duplicate section {name!r}")
            current = {}
            sections.append((name, current))
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', "
                              f"got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if current is None:
            raise ConfigError(f"{source}:{lineno}: {key!r} appears before any "
                              "[section] header")
        if key not in _SCENARIO_KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if not value:
            raise ConfigError(f"{source}:{lineno}: empty value for {key!r}")
        current[key] = (value, lineno)
    if not sections:
        raise ConfigError(f"{source}: no scenario sections found")
    return sections


def _scenario_from_section(name, mapping, source, overrides=None):
    fields = {}
    for key, (value, lineno) in mapping.items():
        if key in _FLOAT_KEYS:
            try:
                fields[key] = float(value)
            except ValueError:
                raise ConfigError(f"{source}:{lineno}: {key} must be a number, "
                                  f"got {value!r}") from None
        elif key == "outputs":
            fields[key] = tuple(v.strip() for v in value.split(",") if v.strip())
        else:
            fields[key] = value
    if overrides:
        fields.update({k: v for k, v in overrides.items() if v is not None})
    try:
        return Scenario.from_fields(name, fields)
    except ValueError as exc:
        raise ConfigError(f"{source}: scenario {name!r}: {exc}") from None


def load_scenarios(path, overrides=None):
    """Scenarios from a config file, with optional flag overrides applied."""
    path = Path(path)
    sections = parse_config(path.read_text(), source=str(path))
    return [_scenario_from_section(name, mapping, str(path), overrides)
            for name, mapping in sections]

# }}}

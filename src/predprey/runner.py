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

#: a scenario's flat fields, each both a config key and a command-line
#: flag, in flag order, with the flag's help text; all but scheme are floats
MODEL_FIELDS = {
    "alpha": "prey growth rate",
    "beta": "predator death rate",
    "p": "predation rate",
    "capacity": "prey carrying capacity",
    "d0": "initial prey population",
    "l0": "initial predator population",
    "scheme": "solver formulation (default reference)",
    "h": "step size (default 0.25)",
    "t_end": "final time (default 300)",
    "sigma": "Caputo order in (0, 1] (default 0.95)",
}


class ConfigError(ValueError):
    """Bad scenario file; the message carries file and line number."""


@dataclass(frozen=True)
class Scenario:
    """One solver run plus the artifacts requested from it.

    ``name``, a file stem and gnuplot string literal, must be printable.
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
        if (self.name in ("", ".", "..") or not self.name.isprintable()
                or any(c in self.name for c in "/\\'")):
            raise ValueError(f"scenario name {self.name!r} is not a plain "
                             "file stem (no /, \\ or ', not empty, . or ..)")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        for name, value in (("d0", self.initial.d), ("l0", self.initial.l)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        bad = [o for o in self.outputs if o not in OUTPUT_KINDS]
        if bad:
            raise ValueError(f"unknown outputs {bad!r}; expected {OUTPUT_KINDS}")

    @classmethod
    def from_fields(cls, name: str, fields) -> "Scenario":
        """Build from flat fields, as a config section or flags give them.

        Keys are those of :data:`MODEL_FIELDS` and ``outputs``; a missing
        or None field takes its default.  Parameters that break the
        ordering fall back to ``ModelParams.unchecked``.
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


def scheme_region(sc: Scenario):
    """The region spec matching a scenario's scheme."""
    if sc.scheme == REFERENCE:
        return continuous_region(sc.params, sc.initial)
    if sc.scheme == EULER:
        return euler_region(sc.params, sc.h)
    if sc.scheme == MICKENS:
        return mickens_region(sc.params, sc.h)
    return fractional_region(sc.params, sc.initial)


def write_artifact(path, text: str) -> Path:
    """Write ``text`` to ``path`` as UTF-8 bytes, whatever the locale.

    Every artifact goes through here, so its bytes are exactly the text's:
    LF line endings stay LF on every platform.
    """
    path = Path(path)
    path.write_bytes(text.encode())
    return path


def _read_utf8(path: Path, error=ValueError) -> str:
    """The text of ``path`` decoded as UTF-8; bad bytes raise ``error``."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: {exc}") from None


# {{{ CSV round trip

def trajectory_to_csv(traj: Trajectory, path) -> Path:
    """Write ``t,D,L`` rows with 17 significant digits and LF endings."""
    values = np.column_stack([traj.times, traj.states]).ravel().tolist()
    body = "%.17g,%.17g,%.17g\n" * len(traj) % tuple(values)
    return write_artifact(path, f"{CSV_HEADER}\n{body}")


def trajectory_from_csv(path) -> Trajectory:
    """Re-read a trajectory CSV (scheme ``csv``); numbers round-trip bit-exact.

    Blank lines are skipped.  Every error names the file.
    """
    path = Path(path)
    lines = list(filter(None, _read_utf8(path).split("\n")))
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


def _at(traj: Trajectory, grid) -> np.ndarray:
    """``traj``'s states at ``grid`` times inside its range: a sample at its
    own time, else its neighbours' mean weighted by position w = (t - t0) /
    (t1 - t0), clipped to their range.  Only where t1 - t0 overflows are the
    three times halved: halved subnormal times can make both ends equal."""
    j = np.searchsorted(traj.times, grid, side="right") - 1
    jk = [j, np.minimum(j + 1, len(traj) - 1)]
    # take and minimum/maximum: 10x faster than fancy indexing and np.sort
    (t0, t1), (y0, y1) = traj.times[jk], traj.states.take(jk, axis=0)
    with np.errstate(all="ignore"):     # a non-finite sample gives nan or inf
        scale = np.where(np.isfinite(t1 - t0), 1.0, 0.5)
        w = ((grid * scale - t0 * scale) / (t1 * scale - t0 * scale))[:, None]
        mean = np.clip((1 - w) * y0 + w * y1, np.minimum(y0, y1), np.maximum(y0, y1))
    return np.where((grid == t0)[:, None], y0, mean)


def compare(traj_a: Trajectory, traj_b: Trajectory) -> CompareResult:
    """Sup-norm and final-time distance between two trajectories.

    Both are read (see :func:`_at`) at the ends of their shared range and
    at the first one's times strictly inside it, so the terminal distance
    is at the range's end; grids that differ are flagged in the result.
    Equal cells are 0 apart (the same infinity too), a NaN cell gives NaN
    and a gap past the float range inf.  Only disjoint ranges are an error.
    """
    ta, tb = traj_a.times, traj_b.times
    lo, hi = max(ta[0], tb[0]), min(ta[-1], tb[-1])
    if hi < lo:
        raise ValueError("trajectories cover disjoint time ranges")
    # np.concatenate, not np.union1d: np.unique imports numpy.ma
    grid = np.concatenate(([lo], ta[(ta > lo) & (ta < hi)], [hi]))
    a_states, b_states = _at(traj_a, grid), _at(traj_b, grid)
    with np.errstate(over="ignore"):
        gap = np.subtract(a_states, b_states, out=np.zeros(a_states.shape),
                          where=a_states != b_states)
    pointwise = np.abs(gap).max(axis=1)
    return CompareResult(sup_distance=float(pointwise.max()),
                         terminal_distance=float(pointwise[-1]),
                         resampled=not np.array_equal(ta, tb))


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


def run_scenario(sc: Scenario, out_dir, traj: Optional[Trajectory] = None):
    """Solve one scenario and write its artifacts.

    ``traj`` is the scenario's trajectory when it is already solved; None
    solves it.  Returns (paths, violation_report) where the report is None
    unless the scenario requested verification.
    """
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
        paths.append(write_artifact(out_dir / f"{sc.name}_stability.txt",
                                    stability_text(sc)))
    if "verify" in sc.outputs:
        report = check_trajectory(traj, region)
        paths.append(write_artifact(out_dir / f"{sc.name}_verification.txt",
                                    _verification_text(sc, report)))
    return paths, report


def run_scenarios(scenarios, out_dir, workers: Optional[int] = None):
    """Run a batch in the calling thread; artifact files never collide by name.

    The output directory is made first, then every scenario's solver
    configuration and, for ``verify`` outputs, its region are built, and
    each classical scenario's time grid is allocated once, so a directory
    that cannot be made, a bad setting or a grid too large for memory
    fails the batch before any solve.  Fractional scenarios are solved
    together by one :func:`caputo_solve_batch` call, and a negative start
    among them is raised before any write: every ValueError and
    MemoryError leaves nothing written.
    Each scenario then runs in order: a failed fractional member raises
    its error, and the rest go through :func:`run_scenario`, which solves
    the classical ones and writes every artifact.  A failed run still lets
    the others write theirs; the first error in scenario order is raised
    once all have run.  ``workers`` has no effect.
    """
    names = [sc.name for sc in scenarios]
    if len(set(names)) != len(names):
        raise ValueError("scenario names must be unique within a batch")
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    runs = {}
    for sc in scenarios:
        cfg = _config(sc)
        if "verify" in sc.outputs:
            scheme_region(sc)
        if sc.scheme == FRACTIONAL:
            runs[sc.name] = (sc.params, cfg, sc.initial)
        else:
            # the first array iterate allocates; the solve stays in
            # run_scenario, and this raises MemoryError before any write
            np.empty(cfg.n_steps() + 1)
    solved = dict(zip(runs, caputo_solve_batch(runs.values())))
    for traj in solved.values():
        if isinstance(traj, ValueError):
            raise traj
    results, error = [], None
    for sc in scenarios:
        traj = solved.get(sc.name)
        try:
            if isinstance(traj, Exception):
                raise traj
            results.append(run_scenario(sc, out_dir, traj))
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
    return write_artifact(out_path, "\n".join(lines) + "\n")


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
        key, value = (part.strip() for part in line.split("=", 1))
        if current is None:
            raise ConfigError(f"{source}:{lineno}: {key!r} appears before any "
                              "[section] header")
        if key not in MODEL_FIELDS and key != "outputs":
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if not value:
            raise ConfigError(f"{source}:{lineno}: empty value for {key!r}")
        current[key] = (value, lineno)
    if not sections:
        raise ConfigError(f"{source}: no scenario sections found")
    return sections


def load_scenarios(path, overrides=None):
    """Scenarios from a config file, with optional flag overrides applied."""
    path = Path(path)
    flags = {k: v for k, v in (overrides or {}).items() if v is not None}
    scenarios = []
    for name, mapping in parse_config(_read_utf8(path, ConfigError), str(path)):
        fields = {}
        for key, (value, lineno) in mapping.items():
            if key == "outputs":
                fields[key] = tuple(v.strip() for v in value.split(",") if v.strip())
            else:
                try:
                    fields[key] = value if key == "scheme" else float(value)
                except ValueError:
                    raise ConfigError(f"{path}:{lineno}: {key} must be a number, "
                                      f"got {value!r}") from None
        try:
            scenarios.append(Scenario.from_fields(name, {**fields, **flags}))
        except ValueError as exc:
            raise ConfigError(f"{path}: scenario {name!r}: {exc}") from None
    return scenarios

# }}}

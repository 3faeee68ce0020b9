"""The three benchmark workloads: inputs from a seed, one timed pass, checks.

Each workload is a class built from ``(seed, work_dir)``.  Building it
generates the inputs (the end of set-up).  ``run_pass(out_dir)`` is the
timed part and calls only the public API of ``predprey``.
``check_pass(result, tally)`` runs untimed after every pass: it records
one operation per solve, region check, CSV round trip and comparison in
``tally`` and returns the pass's grid-point count together with the final
states still to be compared against the oracle.  ``check_finals`` does
that comparison once at the end, so the oracle's cost falls in neither
set-up nor the timed passes.

Why each workload exists and which metric it should move is recorded in
README.md next to this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from pathlib import Path

import numpy as np

import predprey as pp
import predprey.cli

import oracle
from calibrate import POOL, Kernel

GAP = 0.02          # pairwise gap of the ordered draws, as in the c05/c06 corpus


class Tally:
    """Operations attempted and failed; failures keep a short reason."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.fail(what)
        return ok

    def fail(self, what: str):
        """Mark an operation already counted as attempted as failed."""
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)


def _final(traj):
    return float(traj.states[-1, 0]), float(traj.states[-1, 1])


def _check_solve(tally, name, traj, scheme, n_points):
    """One solve operation: right scheme, full grid, every state finite."""
    return tally.check(traj.scheme == scheme and len(traj) == n_points
                       and bool(np.isfinite(traj.states).all()),
                       f"{name}: bad trajectory")


def _expected_final(sc):
    pr = sc.params
    return oracle.final_state(sc.scheme, (pr.alpha, pr.beta, pr.p, pr.capacity),
                              sc.h, sc.t_end, sc.sigma, sc.initial.d, sc.initial.l)


def check_finals(finals, expected, tally):
    """Compare every recorded final state with its oracle value.

    ``finals`` is a list of (key, (d, l)) over all passes and ``expected``
    maps key -> oracle (d, l).  Each comparison belongs to a solve
    operation that ``check_pass`` already counted as attempted.
    """
    for key, got in finals:
        if not oracle.close(got, expected[key]):
            tally.fail(f"{key}: final state {got} != oracle {expected[key]}")


class Corpus:
    """A scenario file drawn like the c05/c06 corpus, run in one batch.

    Draws ordered parameters (capacity 1) and several initial states.
    Per state: RK4 reference and Euler at h = 0.25 to t = 300, Mickens at
    a drawn h in [0.05, 50] to t = 300, and the Caputo solver at h = 0.25
    to t = 100.  Outputs are ``stability, verify``, so no CSV is written.
    """

    name = "corpus"
    KERNEL = Kernel(runs=(("reference", 0.25, 300.0), ("euler", 0.25, 300.0),
                          ("mickens", 1.0, 300.0), ("fractional", 0.25, 100.0)),
                    csv_rows=0, tasks=8, threads=POOL, ref_s=0.085)
    N_DRAWS = 8
    N_STATES = 3
    H_MICKENS = (0.05, 50.0)
    # The c05/c06 corpus draws sigma in [0.8, 1].  Above about 0.99 the
    # predictor-corrector can diverge or turn negative at h = 0.25 (19 of
    # 4776 such runs over seeds 1-199), and run_scenarios stops the whole
    # batch at the first DivergenceError, so such a draw fails the pass.
    # The timed corpus keeps below that range (0 failures in 24 000 runs
    # over seeds 0-999) and known_defect() re-runs one failing draw on
    # every run, so the defect stays on show until it is fixed.
    SIGMA = (0.8, 0.99)
    DEFECT = pp.Scenario(
        name="defect", scheme="fractional", h=0.25, t_end=100.0,
        sigma=0.9995984281287198,
        params=pp.ModelParams(0.056855987345937775, 0.46495492358440327,
                              0.693078530037033, 1.0),
        initial=pp.State(0.21802292303380175, 0.27565498163756413))

    def __init__(self, seed: int, work_dir: Path):
        rng = np.random.default_rng(seed)
        # The Mickens steps are uniform on [0.05, 50] as in c05/c06, but
        # stratified: one draw in each 1/N_DRAWS slice of the range, dealt
        # out in seeded order, so every seed has the same spread of steps.
        lo, hi = self.H_MICKENS
        width = (hi - lo) / self.N_DRAWS
        strata = lo + width * (np.arange(self.N_DRAWS)
                               + rng.uniform(0.0, 1.0, self.N_DRAWS))
        h_mickens = rng.permutation(strata)
        self.runs = []          # (name, scheme, params, h, t_end, sigma, d0, l0)
        draw = 0
        while draw < self.N_DRAWS:
            trio = np.sort(rng.uniform(0.0, 1.0, size=3))
            alpha, beta, p = (float(v) for v in trio)
            if alpha < GAP or p > 1.0 - GAP or min(np.diff(trio)) < GAP:
                continue
            params = (alpha, beta, p, 1.0)
            h_mick = float(h_mickens[draw])
            sigma = float(rng.uniform(*self.SIGMA))
            for k, (d0, l0) in enumerate(rng.uniform(GAP, 1.0, size=(self.N_STATES, 2))):
                stem = f"c{draw:02d}_s{k}"
                for scheme, h, t_end in (("reference", 0.25, 300.0),
                                         ("euler", 0.25, 300.0),
                                         ("mickens", h_mick, 300.0),
                                         ("fractional", 0.25, 100.0)):
                    self.runs.append((f"{stem}_{scheme}", scheme, params, h,
                                      t_end, sigma, float(d0), float(l0)))
            draw += 1
        self.config = Path(work_dir) / "corpus.cfg"
        self.config.write_text(self._config_text(), newline="\n")

    def _config_text(self) -> str:
        out = [f"# {len(self.runs)} scenarios drawn by the benchmark"]
        for name, scheme, (a, b, p, c), h, t_end, sigma, d0, l0 in self.runs:
            out += [f"[{name}]", f"alpha = {a!r}", f"beta = {b!r}",
                    f"p = {p!r}", f"capacity = {c!r}", f"d0 = {d0!r}",
                    f"l0 = {l0!r}", f"scheme = {scheme}", f"h = {h!r}",
                    f"t_end = {t_end!r}", f"sigma = {sigma!r}",
                    "outputs = stability, verify", ""]
        return "\n".join(out)

    def run_pass(self, out_dir: Path):
        scenarios = pp.load_scenarios(self.config)
        _, reports = pp.run_scenarios(scenarios, out_dir)
        return reports

    def check_pass(self, reports, tally, out_dir: Path):
        points = 0
        finals = []
        tally.check(len(reports) == len(self.runs),
                    f"{len(reports)} reports for {len(self.runs)} scenarios")
        for run, report in zip(self.runs, reports):
            name, scheme, _, h, t_end = run[:5]
            traj = report.trajectory
            if _check_solve(tally, name, traj, scheme,
                            oracle.n_steps(t_end, h) + 1):
                finals.append((name, _final(traj)))
            points += len(traj)
            verification = out_dir / f"{name}_verification.txt"
            stability = out_dir / f"{name}_stability.txt"
            tally.check(report.ok and verification.is_file()
                        and "\nok: " in verification.read_text()
                        and stability.read_text().count("\nE") == 3,
                        f"{name}: region check or report failed")
        return points, finals

    def expected(self):
        return {name: oracle.final_state(scheme, params, h, t_end, sigma, d0, l0)
                for name, scheme, params, h, t_end, sigma, d0, l0 in self.runs}

    def known_defect(self):
        """What still goes wrong on DEFECT, a draw from the full c05/c06
        range; None once it runs inside its region."""
        sc = self.DEFECT
        try:
            with np.errstate(all="ignore"):
                traj = pp.solve_scenario(sc)
        except pp.DivergenceError as exc:
            return f"fractional run at sigma = {sc.sigma:.6g}, h = {sc.h:g}: {exc}"
        report = pp.check_trajectory(traj, pp.scheme_region(sc))
        if report.ok:
            return None
        return (f"fractional run at sigma = {sc.sigma:.6g}, h = {sc.h:g}: "
                f"{report.violated_quantity} fails, observed {report.observed:g}")


class Figures:
    """Every figure preset through the CLI, then each CSV read back and compared.

    The presets fix the solver inputs; the seed picks the order in which
    CSVs are read back and compared.
    """

    name = "figures"
    KERNEL = Kernel(runs=(("reference", 0.25, 300.0), ("fractional", 0.25, 300.0)),
                    csv_rows=1201, tasks=4, threads=POOL, ref_s=0.12)

    def __init__(self, seed: int, work_dir: Path):
        rng = np.random.default_rng(seed)
        self.scenarios = {sc.name: (preset, sc) for preset in pp.PRESETS
                          for sc in pp.preset_scenarios(preset)}
        names = list(self.scenarios)
        self.read_order = [names[i] for i in rng.permutation(len(names))]
        self.reference = {name: self._reference_of(name) for name in names}
        self.first_pass = None  # CSV digests and compare results of pass 0

    def _reference_of(self, name):
        """The reference-scheme run each CSV is compared against.

        A preset's own ``<preset>_reference`` run where it has one; else
        the figure2 reference run from the same initial state.  figure2's
        runs are the references themselves and are not compared.
        """
        preset, sc = self.scenarios[name]
        if preset == "figure2":
            return None
        own = f"{preset}_reference"
        if own in self.scenarios and own != name:
            return own
        return f"figure2_d{sc.initial.d:g}_l{sc.initial.l:g}"

    def run_pass(self, out_dir: Path):
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = pp.cli.main(["figures", "all", "--output", str(out_dir)])
        trajs = {name: pp.trajectory_from_csv(out_dir / f"{name}.csv")
                 for name in self.read_order}
        compared = {name: pp.compare(trajs[name], trajs[ref])
                    for name, ref in self.reference.items() if ref is not None}
        return code, printed.getvalue(), trajs, compared

    def check_pass(self, result, tally, out_dir: Path):
        code, printed, trajs, compared = result
        listed = printed.split()
        tally.check(code == 0 and len(listed) == len(self.scenarios) + len(pp.PRESETS)
                    and all(Path(p).is_file() for p in listed),
                    f"figures exited {code} listing {len(listed)} files")
        digests = {name: hashlib.sha256((out_dir / f"{name}.csv").read_bytes()).digest()
                   for name in trajs}
        first = self.first_pass is None
        if first:
            self.first_pass = digests, compared
        points = 0
        finals = []
        for name, traj in trajs.items():
            preset, sc = self.scenarios[name]
            n_points = oracle.n_steps(sc.t_end, sc.h) + 1
            ok = len(traj) == n_points and bool(np.isfinite(traj.states).all())
            if tally.check(ok, f"{name}: bad trajectory"):
                finals.append((name, _final(traj)))
            points += len(traj)
            if first:
                # Round trip: the re-read CSV equals the solver's output bit
                # for bit.  Later passes must write byte-identical files.
                source = pp.solve_scenario(sc)
                tally.check(np.array_equal(traj.times, source.times)
                            and np.array_equal(traj.states, source.states),
                            f"{name}: CSV round trip is not bit-exact")
            else:
                tally.check(digests[name] == self.first_pass[0][name],
                            f"{name}: CSV bytes differ from the first pass")
            as_scheme = pp.Trajectory(traj.times, traj.states, sc.scheme, sc.params)
            tally.check(pp.check_trajectory(as_scheme, pp.scheme_region(sc)).ok,
                        f"{name}: region check failed")
        for name, res in compared.items():
            if first:
                ok = self._compare_ok(res, trajs[name], trajs[self.reference[name]])
            else:
                ok = res == self.first_pass[1][name]
            tally.check(ok, f"{name}: compare result {res}")
        return points, finals

    @staticmethod
    def _compare_ok(res, a, b):
        gap = np.abs(a.states - b.states).max(axis=1)
        return (not res.resampled and res.sup_distance == float(gap.max())
                and res.terminal_distance == float(gap[-1]))

    def expected(self):
        return {name: _expected_final(sc) for name, (_, sc) in self.scenarios.items()}


class Long:
    """Single runs on the default parameters: three fine classical grids
    of 30 000 steps and one Caputo run of 12 000 steps."""

    name = "long"
    KERNEL = Kernel(runs=(("reference", 0.01, 30.0), ("euler", 0.01, 30.0),
                          ("mickens", 0.01, 30.0), ("fractional", 0.025, 75.0)),
                    csv_rows=0, tasks=1, threads=1, ref_s=0.065)
    T_END = 300.0
    H_CLASSICAL = 0.01
    H_FRACTIONAL = 0.025

    def __init__(self, seed: int, work_dir: Path):
        rng = np.random.default_rng(seed)
        d0, l0 = (float(v) for v in rng.uniform(GAP, 1.0, size=2))
        self.initial = pp.State(d0, l0)
        self.sigma = float(rng.uniform(0.8, 1.0))
        self.params = pp.DEFAULT_PARAMS
        self.scenarios = [pp.Scenario(name=f"long_{s}", params=self.params,
                                      initial=self.initial, scheme=s,
                                      h=self.H_CLASSICAL, t_end=self.T_END)
                          for s in ("reference", "euler", "mickens")]
        self.scenarios.append(pp.Scenario(
            name="long_fractional", params=self.params, initial=self.initial,
            scheme="fractional", h=self.H_FRACTIONAL, t_end=self.T_END,
            sigma=self.sigma))

    def run_pass(self, out_dir: Path):
        trajs = []
        for sc in self.scenarios[:3]:
            cfg = pp.SchemeConfig(h=sc.h, t_end=sc.t_end, scheme=sc.scheme)
            trajs.append(pp.iterate(self.params, cfg, self.initial))
        cfg = pp.FractionalConfig(sigma=self.sigma, h=self.H_FRACTIONAL,
                                  t_end=self.T_END)
        trajs.append(pp.caputo_solve(self.params, cfg, self.initial))
        return trajs

    def check_pass(self, trajs, tally, out_dir: Path):
        points = 0
        finals = []
        for sc, traj in zip(self.scenarios, trajs):
            if _check_solve(tally, sc.name, traj, sc.scheme,
                            oracle.n_steps(sc.t_end, sc.h) + 1):
                finals.append((sc.name, _final(traj)))
            points += len(traj)
            tally.check(pp.check_trajectory(traj, pp.scheme_region(sc)).ok,
                        f"{sc.name}: region check failed")
        return points, finals

    def expected(self):
        return {sc.name: _expected_final(sc) for sc in self.scenarios}


WORKLOADS = {w.name: w for w in (Corpus, Figures, Long)}

"""Mutants: one exact source replacement each, and the tests that must kill it.

Each entry of ``MUTANTS`` names a file, an exact old text, the new text
that replaces it, and the pytest arguments (test files or node ids) whose
run must fail once the replacement is made.  ``tests/test_mutants.py``
checks in tier-1 that each old text occurs exactly once in its file, so a
refactor that moves a target has to update its entry here.

    python tests/mutants.py              # list the mutants
    python tests/mutants.py --run [NAME ...]

``--run`` exports the tracked files as they stand (``git stash create``,
which touches no file and no ref, or HEAD when nothing changed) with
``git archive`` into a temporary directory.  It runs every listed test
there once unmutated, then applies each mutant in turn, runs its tests
and restores the file.  A mutant is killed when its tests fail.  Each
mutant takes 5-25 s, so a full run is not part of tier-1.  The exit
status is 0 only when every mutant is killed.
"""

from __future__ import annotations

import argparse
import io
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str       # relative to the repository root
    old: str
    new: str
    tests: tuple    # pytest arguments that must fail on the mutant


STABILITY = "src/predprey/stability.py"
REGIONS = "src/predprey/regions.py"
SCHEMES = "src/predprey/schemes.py"
FRACTIONAL = "src/predprey/fractional.py"
RUNNER = "src/predprey/runner.py"
STRICT_HALF_PLANE = ("tests/test_stability.py::TestCriteria::"
                     "test_half_plane_is_strict")
REAL_ROOTS = ("tests/test_stability.py::TestQuadratic::"
              "test_real_roots_are_exact")

MUTANTS = (
    Mutant("flip-boundary", STABILITY,
           "\n            or abs(sc.at_minus_one) < BOUNDARY_TOL):", "):",
           ("tests/test_stability.py",)),
    Mutant("triangular-eigenvalues", STABILITY,
           "    if jac[1, 0] == 0.0 or jac[0, 1] == 0.0:\n"
           "        return complex(jac[0, 0]), complex(jac[1, 1])\n"
           "    return poly.roots()",
           "    return poly.roots()",
           ("tests/test_stability.py",)),
    Mutant("existence-ignored", STABILITY,
           "        if not eq.exists:\n            label = OUT_OF_CRITERION\n",
           "        if False:\n            label = OUT_OF_CRITERION\n",
           ("tests/test_stability.py",)),
    Mutant("duplicate-key-kept", RUNNER,
           "        if key in fields:\n"
           "            raise ConfigError(f\"{where}: duplicate key {key!r}\")\n",
           "",
           ("tests/test_runner.py",)),
    Mutant("resample-unclipped", RUNNER,
           "mean = np.clip((1 - w) * y0 + w * y1, np.minimum(y0, y1), "
           "np.maximum(y0, y1))",
           "mean = (1 - w) * y0 + w * y1",
           ("tests/test_runner.py",)),
    Mutant("repeat-key-by-equality", RUNNER,
           'key = repr(replace(sc, name="_"))',
           'key = tuple(v for k, v in vars(sc).items() if k != "name")',
           ("tests/test_runner.py",)),
    Mutant("reports-repeat-too", RUNNER,
           'if "stability" not in sc.outputs and "verify" not in sc.outputs:',
           "if True:",
           ("tests/test_runner.py",
            "bench/test_bench.py::test_pool_thread_spans_attach_to_run_scenarios")),
    Mutant("region-ignores-start", REGIONS,
           "max(region.numeric_bound, w[0]) + BOUND_TOL",
           "region.numeric_bound + BOUND_TOL",
           ("tests/test_regions.py",)),
    Mutant("negativity-tol-1e-6", REGIONS,
           "NEGATIVITY_TOL = 1e-12", "NEGATIVITY_TOL = 1e-6",
           ("tests/test_regions.py",)),
    Mutant("bound-tol-1e-3", REGIONS,
           "BOUND_TOL = 1e-9", "BOUND_TOL = 1e-3",
           ("tests/test_regions.py",)),
    Mutant("mickens-w-bound-1pc", REGIONS,
           "w_bound = (4.0 * params.alpha ** 2 + xi * params.beta ** 2)",
           "w_bound = 1.01 * (4.0 * params.alpha ** 2 + xi * params.beta ** 2)",
           ("tests/test_regions.py",)),
    Mutant("conservation-a-over-m", REGIONS,
           "a = (params.alpha + 4.0 * beta) / 4.0 * m",
           "a = (params.alpha + 4.0 * beta) / 4.0 / m",
           ("tests/test_regions.py::"
            "test_runs_scale_exactly_with_the_population_unit",)),
    Mutant("boundary-tol-1e-6", STABILITY,
           "BOUNDARY_TOL = 1e-9", "BOUNDARY_TOL = 1e-6",
           ("tests/test_stability.py",)),
    Mutant("ml-small-term-1e-10", "src/predprey/special.py",
           "ML_ABS_TOL = 1e-14", "ML_ABS_TOL = 1e-10",
           ("tests/test_special.py",)),
    Mutant("envelope-0.1pc", REGIONS,
           "return self.a / self.beta * (1.0 - decay) + self.w0 * decay",
           "return 1.001 * (self.a / self.beta * (1.0 - decay) "
           "+ self.w0 * decay)",
           ("tests/test_fractional.py",)),
    Mutant("half-plane-c1-weak", STABILITY,
           "return m.c1 > 0.0 and", "return m.c1 >= 0.0 and",
           (STRICT_HALF_PLANE,)),
    Mutant("half-plane-c0-weak", STABILITY,
           "and m.c0 > 0.0", "and m.c0 >= 0.0",
           (STRICT_HALF_PLANE,)),
    Mutant("euler-bound-zero-gap", STABILITY,
           "if gap <= 0.0:", "if gap < 0.0:",
           ("tests/test_stability.py::TestStepBound::"
            "test_zero_gap_is_refused",)),
    Mutant("unit-p0-boundary", STABILITY,
           "if abs(abs(sc.at_zero) - 1.0) < BOUNDARY_TOL:",
           "if abs(abs(sc.at_zero) - 1.0) < 0.0:",
           ("tests/test_stability.py",)),
    Mutant("crossings-difference", STABILITY,
           "crossings = (sc.at_one < 0.0) + (sc.at_minus_one < 0.0)",
           "crossings = (sc.at_one < 0.0) - (sc.at_minus_one < 0.0)",
           ("tests/test_stability.py::TestClassifyEuler::"
            "test_flip_saddle_is_a_saddle",)),
    Mutant("half-plane-boundary-and", STABILITY,
           "if abs(c0) < BOUNDARY_TOL or (c0 > 0.0",
           "if abs(c0) < BOUNDARY_TOL and (c0 > 0.0",
           ("tests/test_stability.py::TestClassifyContinuous::"
            "test_zero_eigenvalue_is_non_hyperbolic",)),
    Mutant("real-root-half-1e-6", STABILITY,
           "q = -0.5 * (b + math.copysign(sq, b))",
           "q = -0.5000005 * (b + math.copysign(sq, b))",
           (REAL_ROOTS,)),
    Mutant("zero-b-root-half-1e-6", STABILITY,
           "else 0.5 * sq", "else 0.5000005 * sq",
           (REAL_ROOTS,)),
    Mutant("latest-violation", REGIONS,
           "i, quantity, observed, limit = min(hits)",
           "i, quantity, observed, limit = max(hits)",
           ("tests/test_regions.py",)),
    Mutant("zero-corrector-passes", FRACTIONAL,
           "if self.corrector_passes < 1:", "if self.corrector_passes < 0:",
           ("tests/test_fractional.py",)),
    Mutant("einsum-near-sum", FRACTIONAL,
           "products = [near[0, :, -1 - pos:].dot for pos in range(_NEAR)]",
           "products = [partial(lambda a, b, c: np.einsum('ij,jk->ik', a, "
           "b, out=c), near[0, :, -1 - pos:]) for pos in range(_NEAR)]",
           ("tests/test_fractional.py",)),
    Mutant("caputo-corrector-regrouped", FRACTIONAL,
           "l = l0 + scale_c * (cl + fl)\n"
           "                        pdl = p * d * l",
           "l = l0 + scale_c * (cl + fl)\n"
           "                        pdl = p * (d * l)",
           ("tests/test_fractional.py::"
            "test_caputo_steps_repeat_the_rate_field",
            "tests/test_fractional.py::TestCaputoBitExact")),
    Mutant("no-divergence-check", SCHEMES,
           "    exc = DivergenceError.first_in(states, h)\n"
           "    if exc is not None:\n"
           "        raise exc\n",
           "",
           ("tests/test_schemes.py",)),
    Mutant("rk4-regrouped", SCHEMES,
           "pdl = p * d * l", "pdl = p * (d * l)",
           ("tests/test_schemes.py",)),
    Mutant("mickens-old-prey", SCHEMES,
           "                    d = xi * d / (1.0 + pphi * l + aphi * d / capacity)\n"
           "                    l = (pphi * d + 1.0) * l / decay\n",
           "                    d, l = (xi * d / (1.0 + pphi * l + aphi * d "
           "/ capacity),\n"
           "                            (pphi * d + 1.0) * l / decay)\n",
           ("tests/test_schemes.py",)),
)


def _git(*args) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True).stdout


def _pytest(copy: Path, tests) -> int:
    """Exit status of pytest on ``tests`` in ``copy``, with no database or
    cache carried over from an earlier run."""
    shutil.rmtree(copy / ".hypothesis", ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, ["src", os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         *tests], cwd=copy, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL).returncode


def run(mutants) -> int:
    rev = _git("stash", "create").decode().strip() or "HEAD"
    with tempfile.TemporaryDirectory(prefix="predprey-mutants-") as tmp:
        copy = Path(tmp)
        with tarfile.open(fileobj=io.BytesIO(_git("archive", rev))) as tar:
            tar.extractall(copy, filter="data")
        tests = sorted({t for m in mutants for t in m.tests})
        status = _pytest(copy, tests)
        if status:
            print(f"unmutated copy: pytest exit {status} on {' '.join(tests)}")
            return 2
        survivors = []
        for m in mutants:
            target = copy / m.path
            source = target.read_text()
            target.write_text(source.replace(m.old, m.new, 1))
            status = _pytest(copy, m.tests)
            target.write_text(source)
            verdict = {0: "SURVIVED", 1: "killed"}.get(
                status, f"broken (pytest exit {status})")
            print(f"{m.name:24} {verdict:28} {' '.join(m.tests)}", flush=True)
            if status != 1:
                survivors.append(m.name)
        print(f"{len(mutants) - len(survivors)} of {len(mutants)} killed")
        return 1 if survivors else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--run", action="store_true",
                        help="apply each mutant to a copy and run its tests")
    parser.add_argument("names", nargs="*", help="mutants to run (default all)")
    args = parser.parse_args(argv)
    unknown = set(args.names) - {m.name for m in MUTANTS}
    if unknown:
        parser.error(f"unknown mutants: {', '.join(sorted(unknown))}")
    chosen = [m for m in MUTANTS if not args.names or m.name in args.names]
    if args.run:
        return run(chosen)
    for m in chosen:
        print(f"{m.name:24} {m.path:28} {' '.join(m.tests)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Shipped acceptance suite: one test per release criterion, c01 to c11.

Run with ``pytest -v tests/test_acceptance.py`` to get a single pass or
fail line per criterion.  Tolerances are pinned below and the random
corpora use frozen seeds, so reruns are bit-for-bit identical.
"""
import math

import numpy as np
import pytest

from predprey import (
    EULER,
    FRACTIONAL,
    MICKENS,
    REFERENCE,
    FractionalConfig,
    ModelParams,
    Quadratic,
    SchemeConfig,
    State,
    beta,
    caputo_solve,
    check_trajectory,
    classify,
    continuous_region,
    equilibria,
    euler_region,
    euler_step_bound,
    fractional_region,
    gamma,
    iterate,
    mickens_region,
    mittag_leffler,
    routh_hurwitz_quadratic,
    scalar_caputo_solve,
    schur_cohn_quadratic,
    trajectory_from_csv,
    trajectory_to_csv,
)
from predprey.cli import main as cli_main
from predprey.stability import characteristic_quadratic, jacobian_euler

PARAMS = ModelParams(alpha=0.05, beta=0.3, p=0.4, capacity=1.0)
START = State(0.2, 0.3)

# frozen corpus for c05/c06; regenerating with this seed reproduces the
# exact parameter draws, initial states, step sizes, and orders
CORPUS_SEED = 20260825
N_DRAWS = 50
N_STATES = 5
GAP = 0.02

# E_{0.95}(-1), 40-digit series evaluation rounded to double
ML_095_AT_M1 = 0.37157362003067881


def _draw_corpus(seed):
    """Ordered parameter draws with pairwise gaps so each case is P1-valid."""
    rng = np.random.default_rng(seed)
    draws = []
    while len(draws) < N_DRAWS:
        trio = np.sort(rng.uniform(0.0, 1.0, size=3))
        alpha, beta_r, p = trio
        if alpha < GAP or p > 1.0 - GAP:
            continue
        if trio[1] - trio[0] < GAP or trio[2] - trio[1] < GAP:
            continue
        params = ModelParams(alpha=alpha, beta=beta_r, p=p, capacity=1.0)
        initials = [State(d, l)
                    for d, l in rng.uniform(GAP, 1.0, size=(N_STATES, 2))]
        h_mickens = rng.uniform(0.05, 50.0)
        sigma = rng.uniform(0.8, 1.0)
        draws.append((params, initials, h_mickens, sigma))
    return draws


@pytest.fixture(scope="module")
def corpus_runs():
    """All four schemes over the frozen corpus, shared by c05 and c06."""
    runs = []
    for params, initials, h_mick, sigma in _draw_corpus(CORPUS_SEED):
        assert 1.0 - params.beta * 0.25 > 0.0    # H1 holds at the corpus step
        for s0 in initials:
            traj = iterate(params, SchemeConfig(h=0.25, t_end=300.0,
                                                scheme=REFERENCE), s0)
            runs.append((traj, continuous_region(params, s0)))
            traj = iterate(params, SchemeConfig(h=0.25, t_end=300.0,
                                                scheme=EULER), s0)
            runs.append((traj, euler_region(params, 0.25)))
            traj = iterate(params, SchemeConfig(h=h_mick, t_end=300.0,
                                                scheme=MICKENS), s0)
            runs.append((traj, mickens_region(params, h_mick)))
            traj = caputo_solve(params, FractionalConfig(sigma=sigma, h=0.25,
                                                         t_end=100.0), s0)
            runs.append((traj, fractional_region(params, s0)))
    return runs


def _coexistence():
    return next(eq for eq in equilibria(PARAMS) if eq.label == "E3").point


def _terminal_distances():
    eq = _coexistence()
    out = {}
    for scheme in (REFERENCE, EULER, MICKENS):
        fin = iterate(PARAMS, SchemeConfig(h=0.25, t_end=300.0,
                                           scheme=scheme), START).final
        out[scheme] = max(abs(fin.d - eq.d), abs(fin.l - eq.l))
    fin = caputo_solve(PARAMS, FractionalConfig(sigma=0.95, h=0.25,
                                                t_end=300.0), START).final
    out[FRACTIONAL] = max(abs(fin.d - eq.d), abs(fin.l - eq.l))
    return out


def test_c01_equilibrium_reproduction():
    eq = _coexistence()
    assert abs(eq.d - 0.75) <= 1e-15
    assert abs(eq.l - 0.03125) <= 1e-15


def test_c02_classification_table():
    expected = {"E1": "saddle", "E2": "saddle", "E3": "sink"}
    for scheme, arg in ((REFERENCE, None), (EULER, 0.25), (MICKENS, 0.25),
                        (FRACTIONAL, 0.95)):
        got = {r.equilibrium.label: r.classification
               for r in classify(PARAMS, scheme, arg)}
        assert got == expected, f"scheme {scheme}: {got}"


def test_c03_euler_step_bound():
    assert euler_step_bound(PARAMS) == pytest.approx(10.0, rel=1e-12)
    eq = _coexistence()
    for h, stable in ((0.25, True), (5.0, True), (9.9, True),
                      (10.5, False), (11.0, False)):
        verdict = schur_cohn_quadratic(
            characteristic_quadratic(jacobian_euler(PARAMS, h, eq)))
        assert bool(verdict) is stable, f"h={h}"
        if h == 11.0:
            assert verdict.at_zero == pytest.approx(1.04125, abs=1e-9)


def test_c04_convergence_to_equilibrium():
    distances = _terminal_distances()
    report = ", ".join(f"{k} {v:.6g}" for k, v in sorted(distances.items()))
    assert all(v <= 5e-3 for v in distances.values()), (
        f"terminal sup-distance to the coexistence point: {report}")


def test_c05_nonnegativity_suite(corpus_runs):
    worst = min(float(traj.states.min()) for traj, _ in corpus_runs)
    assert worst >= -1e-12, f"most negative coordinate {worst:.3e}"


def test_c06_conservation_suite(corpus_runs):
    failures = []
    for traj, region in corpus_runs:
        report = check_trajectory(traj, region)
        if not report.ok:
            failures.append(f"{traj.scheme}: {report.violated_quantity} "
                            f"observed {report.observed:.6g} "
                            f"bound {report.bound:.6g}")
    assert not failures, "; ".join(failures)


def test_c07_special_function_accuracy():
    zs = np.linspace(0.1, 10.0, 100)
    resid = max(abs(gamma(z + 1.0) - z * gamma(z)) / gamma(z + 1.0)
                for z in zs)
    assert resid <= 1e-12
    assert beta(2.0, 3.0) == pytest.approx(1.0 / 12.0, abs=1e-14)
    for z in np.linspace(-5.0, 5.0, 101):
        assert mittag_leffler(1.0, 1.0, z) == pytest.approx(math.exp(z),
                                                            rel=1e-11)
    for a, b in ((0.5, 1.0), (0.95, 1.0), (1.5, 0.5), (0.3, 2.0)):
        assert mittag_leffler(a, b, 0.0) * gamma(b) == pytest.approx(
            1.0, abs=1e-13)


def test_c08_fractional_solver_consistency():
    # (a) integer order reduces to the classical trajectory
    frac = caputo_solve(PARAMS, FractionalConfig(sigma=1.0, h=0.01,
                                                 t_end=10.0), START)
    ref = iterate(PARAMS, SchemeConfig(h=0.01, t_end=10.0,
                                       scheme=REFERENCE), START)
    assert float(np.abs(frac.states - ref.states).max()) <= 1e-3
    # (b) scalar relaxation matches its analytic solution, and refines
    e_coarse = abs(scalar_caputo_solve(-1.0, 0.95, 1.0, 0.01, 1.0)[-1]
                   - ML_095_AT_M1)
    e_fine = abs(scalar_caputo_solve(-1.0, 0.95, 1.0, 0.005, 1.0)[-1]
                 - ML_095_AT_M1)
    assert e_coarse <= 5e-3
    assert e_coarse / e_fine >= 2.0
    # (c) distance to the classical run shrinks as the order tends to 1
    ref50 = iterate(PARAMS, SchemeConfig(h=0.25, t_end=50.0), START)
    dists = []
    for sigma in (0.80, 0.90, 0.95, 0.99):
        traj = caputo_solve(PARAMS, FractionalConfig(sigma=sigma, h=0.25,
                                                     t_end=50.0), START)
        dists.append(float(np.abs(traj.states - ref50.states).max()))
    assert all(a > b for a, b in zip(dists, dists[1:])), dists


def test_c09_criterion_oracles():
    rng = np.random.default_rng(CORPUS_SEED)
    for c1, c0 in rng.uniform(-2.0, 2.0, size=(1000, 2)):
        if min(abs(c1), abs(c0)) < 1e-9:
            continue
        q = Quadratic(1.0, c1, c0)
        truth = all(z.real < 0.0 for z in q.roots())
        assert routh_hurwitz_quadratic(q) == truth, (c1, c0)
    for c1, c0 in rng.uniform(-2.0, 2.0, size=(1000, 2)):
        q = Quadratic(1.0, c1, c0)
        sc = schur_cohn_quadratic(q)
        if min(abs(sc.at_one), abs(sc.at_minus_one),
               abs(abs(sc.at_zero) - 1.0)) < 1e-9:
            continue
        truth = all(abs(z) < 1.0 for z in q.roots())
        assert bool(sc) == truth, (c1, c0)


def test_c10_euler_order():
    truth = iterate(PARAMS, SchemeConfig(h=0.0125, t_end=10.0), START).final
    errs = []
    for h in (0.1, 0.05):
        fin = iterate(PARAMS, SchemeConfig(h=h, t_end=10.0,
                                           scheme=EULER), START).final
        errs.append(max(abs(fin.d - truth.d), abs(fin.l - truth.l)))
    ratio = errs[0] / errs[1]
    assert 1.7 <= ratio <= 2.3, f"halving gave ratio {ratio:.3f}"


def test_c11_cli_contract(tmp_path):
    fig_dir = tmp_path / "figs"
    assert cli_main(["figures", "figure2", "--output", str(fig_dir)]) == 0
    csvs = sorted(fig_dir.glob("*.csv"))
    assert len(csvs) == 3
    for path in csvs:
        lines = path.read_text().splitlines()
        assert lines[0] == "t,D,L"
        assert len(lines) == 1202
        echoed = trajectory_to_csv(trajectory_from_csv(path),
                                   tmp_path / "echo.csv")
        assert echoed.read_bytes() == path.read_bytes()
    assert cli_main(["verify", "--scheme", "mickens", "--strict",
                     "--output", str(tmp_path / "check")]) == 0

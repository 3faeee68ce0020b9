"""The batch workflow: scenarios, CSV artifacts, and trajectory diffs.

Everything the ``predprey`` command does is available as plain function
calls.  This script builds a small batch, writes its artifacts into a
scratch directory, round-trips a trajectory through CSV, and compares
two schemes on the same grid.
"""
import tempfile
from pathlib import Path

from predprey import (Scenario, compare, load_scenarios, run_scenario,
                      run_scenarios, solve_scenario, trajectory_from_csv,
                      trajectory_to_csv, write_gnuplot_script)

out = Path(tempfile.mkdtemp(prefix="predprey_demo_"))
print(f"writing into {out}")

# one scenario, all artifact kinds
sc = Scenario(name="tour", scheme="mickens", h=0.5, t_end=120.0,
              outputs=("timeseries", "stability", "verify"))
paths, report = run_scenario(sc, out)
for p in paths:
    print(f"  wrote {p.name}")
print(f"  invariant check ok: {report.ok}")

# the CSV round trip is bit-exact, so diffs against re-read files are
# trustworthy
traj = solve_scenario(sc)
back = trajectory_from_csv(out / "tour.csv")
same = (back.times == traj.times).all() and (back.states == traj.states).all()
print(f"  re-read equals in-memory run: {same}")

# a batch from a config file, then a scheme-vs-scheme diff
cfg = out / "pair.cfg"
cfg.write_text(
    "# same start, two discretizations\n"
    "[pair_euler]\n"
    "scheme = euler\n"
    "t_end = 120\n"
    "\n"
    "[pair_mickens]\n"
    "scheme = mickens\n"
    "t_end = 120\n")
scenarios = load_scenarios(cfg)
csvs, _ = run_scenarios(scenarios, out)
write_gnuplot_script(csvs, out / "pair.gp", title="euler vs mickens",
                     phase=True)
print(f"\nbatch of {len(scenarios)} from {cfg.name}:")
for p in csvs:
    print(f"  wrote {p.name}")

a = trajectory_from_csv(out / "pair_euler.csv")
b = trajectory_from_csv(out / "pair_mickens.csv")
res = compare(a, b)
print(f"\neuler vs mickens on the shared grid: sup {res.sup_distance:.2e}, "
      f"terminal {res.terminal_distance:.2e}")

# grids do not have to match: compare() resamples onto the overlap
fine = solve_scenario(Scenario(name="fine", h=0.05, t_end=60.0))
coarse = solve_scenario(Scenario(name="coarse", h=0.25, t_end=120.0))
trajectory_to_csv(fine, out / "fine.csv")
res = compare(coarse, fine)
print(f"coarse vs fine reference run: sup {res.sup_distance:.2e} "
      f"(resampled: {res.resampled})")

print(f"\nrender the plots with:  cd {out} && gnuplot pair.gp")

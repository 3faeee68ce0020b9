"""Tour of the continuous model: rates, equilibria, and long runs.

Prey D grows logistically toward the carrying capacity and is eaten at
rate p*D*L; predators L convert that intake and die at rate beta.  With
the default parameters every positive start spirals into the coexistence
point, which this script shows by table and (optionally) by plot.
"""
import numpy as np

from predprey import (ModelParams, SchemeConfig, State, classify, equilibria,
                      iterate, rate_field)

params = ModelParams(alpha=0.05, beta=0.3, p=0.4, capacity=1.0)

print("equilibria")
for eq in equilibria(params):
    rate = rate_field(params)(eq.point.d, eq.point.l)
    print(f"  {eq.label} = ({eq.point.d:.6g}, {eq.point.l:.6g})"
          f"   |f| = {np.hypot(*rate):.2e}")

print("\nclassification (continuous criterion)")
for rep in classify(params, "reference", None):
    c1 = rep.criterion_details.get("c1")
    c0 = rep.criterion_details.get("c0")
    print(f"  {rep.equilibrium.label}: {rep.classification:8s}"
          f"   c1 = {c1:.6g}, c0 = {c0:.6g}")

# three starts used throughout: interior, prey-free, prey-heavy
starts = [State(0.2, 0.3), State(0.0, 0.5), State(0.85, 0.1)]
grid = SchemeConfig(h=0.25, t_end=300.0)  # RK4 reference by default
runs = [iterate(params, grid, s0) for s0 in starts]

print("\nterminal states after 300 time units (step 0.25)")
target = equilibria(params)[2].point
for s0, traj in zip(starts, runs):
    fin = traj.final
    dist = max(abs(fin.d - target.d), abs(fin.l - target.l))
    print(f"  start ({s0.d:.2f}, {s0.l:.2f}) ->"
          f" ({fin.d:.6f}, {fin.l:.6f})   gap to E3 {dist:.2e}")

print("\nnote the prey-free start: with D = 0 the predators simply decay,")
print("so that run lands on E1 instead of the coexistence point.")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, (ax_t, ax_p) = plt.subplots(1, 2, figsize=(10, 4))
    for s0, traj in zip(starts, runs):
        label = f"D0={s0.d:g}, L0={s0.l:g}"
        ax_t.plot(traj.times, traj.prey, label=label)
        ax_t.plot(traj.times, traj.predator, linestyle="--")
        ax_p.plot(traj.prey, traj.predator, label=label)
    ax_p.plot(target.d, target.l, "k*", markersize=12, label="E3")
    ax_t.set_xlabel("t")
    ax_t.set_ylabel("population")
    ax_p.set_xlabel("D")
    ax_p.set_ylabel("L")
    ax_t.legend(fontsize=8)
    ax_p.legend(fontsize=8)
    fig.tight_layout()
    fig.savefig("demo01_continuous.png", dpi=120)
    print("\nwrote demo01_continuous.png")
except ImportError:
    print("\nmatplotlib not installed, skipping the figure")

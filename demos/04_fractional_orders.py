"""Memory effects: the Caputo-order solver and its conservation envelope.

Replacing d/dt with a Caputo derivative of order sigma < 1 gives the
populations memory: every past state contributes to the next step
through a power-law kernel.  Lower orders damp the transient faster at
first but approach equilibrium more slowly; as sigma tends to 1 the runs
converge to the classical trajectory.
"""
import numpy as np

from predprey import (FractionalConfig, ModelParams, SchemeConfig, State,
                      caputo_solve, fractional_conservation_bound, iterate,
                      mittag_leffler, scalar_caputo_solve)

params = ModelParams(alpha=0.05, beta=0.3, p=0.4, capacity=1.0)
start = State(0.2, 0.3)

# sanity anchor: for the scalar relaxation the solver must reproduce
# the known closed form E_sigma(-t^sigma)
print("scalar check against the closed-form relaxation, t = 1")
for sigma in (0.7, 0.95, 1.0):
    y = scalar_caputo_solve(-1.0, sigma, 1.0, 0.005, 1.0)[-1]
    exact = mittag_leffler(sigma, 1.0, -1.0)
    print(f"  sigma = {sigma:4.2f}: solver {y:.8f}  exact {exact:.8f}"
          f"  error {abs(y - exact):.1e}")

ref = iterate(params, SchemeConfig(h=0.25, t_end=50.0), start)
print("\nsup distance to the classical run over [0, 50]")
runs = {}
for sigma in (0.80, 0.90, 0.95, 0.99):
    traj = caputo_solve(params, FractionalConfig(sigma=sigma, h=0.25,
                                                 t_end=50.0), start)
    runs[sigma] = traj
    dist = float(np.abs(traj.states - ref.states).max())
    print(f"  sigma = {sigma:4.2f}: {dist:.4f}")

# the total population is bounded by a closed-form envelope built from
# the Mittag-Leffler function
env = fractional_conservation_bound(params, start.d + start.l,
                                    max(start.d, params.capacity))
traj = runs[0.95]
w = traj.totals
margins = [env.envelope(t, 0.95) - wt for t, wt in zip(traj.times, w)]
print(f"\norder 0.95 run: ceiling {env.bound:.4f}, max total "
      f"{w.max():.4f}, min envelope margin {min(margins):.4f}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(6, 4))
    for sigma, traj in runs.items():
        ax.plot(traj.times, traj.prey, lw=0.9, label=f"sigma = {sigma:g}")
    ax.plot(ref.times, ref.prey, "k--", lw=1.2, label="classical")
    ax.set_xlabel("t")
    ax.set_ylabel("prey")
    ax.set_title("lower orders respond faster, settle slower")
    ax.legend(fontsize=8)
    fig.tight_layout()
    fig.savefig("demo04_fractional.png", dpi=120)
    print("wrote demo04_fractional.png")
except ImportError:
    print("matplotlib not installed, skipping the figure")

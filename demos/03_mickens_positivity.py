"""The nonstandard scheme: positive and stable at any step size.

Two changes to Euler buy unconditional good behavior: the step h is
replaced by the denominator phi = (1 - exp(-beta*h))/beta, and each
update divides by its loss terms instead of subtracting them.  The
result is a map of positive states to positive states that keeps the
same equilibria and their stability for every h > 0.
"""
from predprey import (MICKENS, ModelParams, SchemeConfig, State, classify,
                      equilibria, iterate, mickens_phi, mickens_region)

params = ModelParams(alpha=0.05, beta=0.3, p=0.4, capacity=1.0)
start = State(0.2, 0.3)
target = equilibria(params)[2].point

print("denominator function phi(h), which saturates at 1/beta")
for h in (0.01, 0.25, 1.0, 5.0, 50.0):
    print(f"  h = {h:5.2f}: phi = {mickens_phi(params, h):.6f}")

print(f"\nsaturation level 1/beta = {1.0 / params.beta:.6f}")

print("\nterminal gap to E3 after 3000 time units, one run per step size")
for h in (0.25, 5.0, 20.0, 50.0):
    traj = iterate(params, SchemeConfig(h=h, t_end=3000.0, scheme=MICKENS),
                   start)
    fin = traj.final
    gap = max(abs(fin.d - target.d), abs(fin.l - target.l))
    low = float(traj.states.min())
    print(f"  h = {h:5.2f}: gap {gap:.2e}   lowest coordinate {low:.2e}")

print("\nevery entry above is nonnegative: no step size breaks positivity.")

print("\nclassification is step-independent")
for h in (0.25, 50.0):
    labels = [f"{r.equilibrium.label}:{r.classification}"
              for r in classify(params, MICKENS, h)]
    print(f"  h = {h:5.2f}: " + "  ".join(labels))

# the total population W = D + L obeys a discrete contraction toward a
# fixed ceiling, so runs started far above it are pulled back down
region = mickens_region(params, 5.0)
heavy = iterate(params, SchemeConfig(h=5.0, t_end=600.0, scheme=MICKENS),
                State(0.9, 0.9))
w = heavy.totals
print(f"\nlong-run population ceiling {region.numeric_bound:.6f}")
print(f"start W = {w[0]:.3f}, final W = {w[-1]:.6f}, "
      f"max over the tail {w[len(w) // 2:].max():.6f}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(6, 4))
    for h in (0.25, 5.0, 50.0):
        traj = iterate(params, SchemeConfig(h=h, t_end=3000.0,
                                            scheme=MICKENS), start)
        ax.plot(traj.times, traj.prey, lw=0.9, label=f"D, h = {h:g}")
    ax.axhline(target.d, color="k", lw=0.5)
    ax.set_xlabel("t")
    ax.set_ylabel("prey")
    ax.set_title("same limit at every step size")
    ax.legend(fontsize=8)
    fig.tight_layout()
    fig.savefig("demo03_mickens.png", dpi=120)
    print("wrote demo03_mickens.png")
except ImportError:
    print("matplotlib not installed, skipping the figure")

"""Explicit Euler: first-order accuracy and the step-size cliff.

Euler preserves the equilibria exactly, but its stability and positivity
are conditional.  Below the computed step bound the coexistence point
stays attracting; past it the discrete map turns the spiral into a
repeller, and large steps can push populations negative outright.
"""
import numpy as np

from predprey import (EULER, ModelParams, SchemeConfig, State, classify,
                      equilibria, euler_step_bound, iterate)

params = ModelParams(alpha=0.05, beta=0.3, p=0.4, capacity=1.0)
start = State(0.2, 0.3)
target = equilibria(params)[2].point

h_max = euler_step_bound(params)
print(f"step bound for the coexistence point: h < {h_max:.6g}")

print("\nclassification of E3 as the step grows")
for h in (0.25, 5.0, 9.9, 10.5, 11.0):
    rep = classify(params, EULER, h)[2]
    p0 = rep.criterion_details["P(0)"]
    print(f"  h = {h:5.2f}: {rep.classification:15s} P(0) = {p0:.6g}")

# first-order convergence: halving h halves the terminal error
truth = iterate(params, SchemeConfig(h=0.0125, t_end=10.0), start).final
print("\nglobal error at t = 10 versus a fine reference run")
prev = None
for h in (0.4, 0.2, 0.1, 0.05):
    fin = iterate(params, SchemeConfig(h=h, t_end=10.0, scheme=EULER),
                  start).final
    err = max(abs(fin.d - truth.d), abs(fin.l - truth.l))
    note = f"   ratio {prev / err:.2f}" if prev is not None else ""
    print(f"  h = {h:4.2f}: error {err:.3e}{note}")
    prev = err

# positivity is also conditional: a heavy predator load plus a large
# step sends the prey below zero in one update
bad = iterate(params, SchemeConfig(h=2.0, t_end=8.0, scheme=EULER),
              State(0.5, 1.5))
print(f"\nwith h = 2 from (0.5, 1.5) the prey reaches"
      f" {bad.prey.min():.4f} (negative!)")

# watch the cliff directly: start a hair off E3 and track the gap per
# step.  below the bound the gap contracts, above it the gap grows.
# the solver warns about positivity for h > 1/beta; near E3 the update
# factors stay positive, so the warning is acknowledged and silenced.
import warnings  # noqa: E402

from predprey import StepSizeWarning  # noqa: E402

near = State(target.d - 1e-3, target.l + 1e-3)
print("\ngap to E3 over 2000 steps from a nearby start")
gaps = {}
with warnings.catch_warnings():
    warnings.simplefilter("ignore", StepSizeWarning)
    for h in (5.0, 9.9, 10.5):
        traj = iterate(params, SchemeConfig(h=h, t_end=2000.0 * h,
                                            scheme=EULER), near)
        gap = np.abs(traj.states - [target.d, target.l]).max(axis=1)
        gaps[h] = gap
        print(f"  h = {h:5.2f}: start {gap[0]:.2e}  transient max "
              f"{gap.max():.2e}  end {gap[-1]:.2e}")
print("just under the bound the contraction is slow but real; just")
print("over it the orbit escapes to a step-size artifact cycle.")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(6, 4))
    for h, gap in gaps.items():
        ax.semilogy(gap, lw=0.9, label=f"h = {h:g}")
    ax.set_xlabel("step")
    ax.set_ylabel("gap to E3")
    ax.set_title("contraction below the step bound, growth above")
    ax.legend(fontsize=8)
    fig.tight_layout()
    fig.savefig("demo02_euler_steps.png", dpi=120)
    print("wrote demo02_euler_steps.png")
except ImportError:
    print("matplotlib not installed, skipping the figure")

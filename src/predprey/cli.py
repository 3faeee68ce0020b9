"""Command line front end.

Exit codes: 0 success, 1 invariant violation under --strict (or solver
divergence), 2 usage or configuration errors, or a run too large for
memory.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .model import FRACTIONAL, SCHEMES
from .runner import (PRESETS, ConfigError, Scenario, compare, load_scenarios,
                     run_batch, run_presets, run_scenarios, stability_text,
                     trajectory_from_csv, write_artifact)
from .schemes import DivergenceError


def _add_model_flags(p: argparse.ArgumentParser):
    g = p.add_argument_group("model")
    g.add_argument("--alpha", type=float, default=None, help="prey growth rate")
    g.add_argument("--beta", type=float, default=None, help="predator death rate")
    g.add_argument("--p", type=float, default=None, help="predation rate")
    g.add_argument("--capacity", type=float, default=None, help="prey carrying capacity")
    g.add_argument("--d0", type=float, default=None, help="initial prey population")
    g.add_argument("--l0", type=float, default=None, help="initial predator population")
    g.add_argument("--scheme", choices=SCHEMES, default=None,
                   help="solver formulation (default reference)")
    g.add_argument("--h", type=float, default=None, help="step size (default 0.25)")
    g.add_argument("--t-end", type=float, default=None, dest="t_end",
                   help="final time (default 300)")
    g.add_argument("--sigma", type=float, default=None,
                   help="Caputo order in (0, 1] (default 0.95)")


def _add_common_flags(p: argparse.ArgumentParser):
    p.add_argument("--output", default=".", help="output directory (default .)")
    p.add_argument("--strict", action="store_true",
                   help="exit nonzero when an invariant is violated")
    p.add_argument("--config", default=None, help="scenario file to run")


def _overrides(args) -> dict:
    keys = ("alpha", "beta", "p", "capacity", "d0", "l0", "scheme", "h",
            "t_end", "sigma")
    return {k: getattr(args, k) for k in keys}


def _scenarios_for(args, default_name, verify: bool):
    if args.config:
        scenarios = load_scenarios(args.config, _overrides(args))
    else:
        scenarios = [Scenario.from_fields(default_name, _overrides(args))]
    if verify:
        scenarios = [sc if "verify" in sc.outputs
                     else replace(sc, outputs=sc.outputs + ("verify",))
                     for sc in scenarios]
    return scenarios


def cmd_simulate(args) -> int:
    scenarios = _scenarios_for(args, args.name, verify=args.strict)
    name = scenarios[0].name
    paths, reports = run_batch(scenarios, args.output, name, title=name)
    for p in paths:
        print(p)
    bad = [r for r in reports if not r.ok]
    if args.strict and bad:
        for r in bad:
            print(f"violation: {r.violated_quantity} at index "
                  f"{r.first_violation_index} (observed {r.observed:g}, "
                  f"bound {r.bound:g})", file=sys.stderr)
        return 1
    return 0


def cmd_stability(args) -> int:
    text = stability_text(Scenario.from_fields("stability", _overrides(args)))
    if args.output != ".":
        out = Path(args.output)
        out.parent.mkdir(parents=True, exist_ok=True)
        print(write_artifact(out, text))
    else:
        print(text, end="")
    return 0


def cmd_verify(args) -> int:
    scenarios = _scenarios_for(args, "verify", verify=True)
    _, reports = run_scenarios(scenarios, args.output)
    ok = True
    # every scenario asks for verify, so each has one report, in order
    for sc, report in zip(scenarios, reports):
        if report.ok:
            print(f"{sc.name}: ok (scheme {sc.scheme}, {sc.t_end:g} time units)")
        else:
            ok = False
            t = report.trajectory.times[report.first_violation_index]
            print(f"{sc.name}: VIOLATION {report.violated_quantity} at t = {t:g} "
                  f"(observed {report.observed:g}, bound {report.bound:g})")
    if not ok and args.strict:
        return 1
    return 0


def cmd_compare(args) -> int:
    a = trajectory_from_csv(args.csv_a)
    b = trajectory_from_csv(args.csv_b)
    res = compare(a, b)
    note = " (resampled onto the shared range)" if res.resampled else ""
    print(f"sup distance      {res.sup_distance:.17g}{note}")
    print(f"terminal distance {res.terminal_distance:.17g}")
    return 0


def cmd_sweep(args) -> int:
    values = [float(v) for v in args.values.split(",") if v.strip()]
    if not values:
        raise ConfigError("--values must list at least one number")
    base = Scenario.from_fields("sweep", _overrides(args))
    scheme = FRACTIONAL if args.param == "sigma" else base.scheme
    scenarios = [replace(base, name=f"{base.name}_{args.param}{v:g}",
                         scheme=scheme, **{args.param: v})
                 for v in values]
    paths, _ = run_batch(scenarios, args.output, f"{base.name}_{args.param}",
                         title=f"{args.param} sweep", phase=False)
    for p in paths:
        if p.suffix == ".csv":
            print(p)
    return 0


def cmd_figures(args) -> int:
    presets = PRESETS if args.preset == "all" else (args.preset,)
    for p in run_presets(presets, args.output):
        print(p)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="predprey",
        description="Predator-prey dynamics with logistic prey growth: "
                    "reference, Euler, Mickens, and Caputo-order solvers.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one scenario (or a config file) to CSV")
    p.add_argument("--name", default="run", help="scenario name for artifacts")
    _add_model_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("stability", help="print the equilibrium classification table")
    _add_model_flags(p)
    p.add_argument("--output", default=".",
                   help="file to write instead of stdout")
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("verify", help="check a run against its invariant region")
    _add_model_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("compare", help="distances between two trajectory CSVs")
    p.add_argument("csv_a")
    p.add_argument("csv_b")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("sweep", help="rerun a scenario across parameter values")
    p.add_argument("--param", choices=("sigma", "h"), required=True)
    p.add_argument("--values", required=True, help="comma-separated list")
    _add_model_flags(p)
    p.add_argument("--output", default=".", help="output directory (default .)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("figures", help="emit the CSVs and gnuplot script of a preset")
    p.add_argument("preset", choices=(*PRESETS, "all"))
    p.add_argument("--output", default=".", help="output directory")
    p.set_defaults(func=cmd_figures)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:     # a grid too large to allocate
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""The predprey benchmark: one workload, timed end to end or per layer.

Run from the repository root:

    python3 bench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Workloads are ``corpus``, ``figures`` and ``long`` (see README.md here).
Each runs in a fresh worker process (worker.py) that drives the public
API of the package in ``src/`` as one closed-loop caller.  ``--trace 0``
reports the end-to-end metrics.  Set-up is timed over SETUP_LAUNCHES
launches that stop once the inputs are ready, and then a last launch
measures the passes.  Times are rescaled to the reference speed of the
kernel in calibrate.py, which each launch times as well.  ``--trace 1``
reports the per-layer metrics from a run that alternates untraced and
traced passes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before
it is one JSON object with the key ``known_defect``: a string that says
what still goes wrong on the known failing draw, or null.  The lines
before those are the same figures for people, with quartiles and sample
counts.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("corpus", "figures", "long")
SETUP_LAUNCHES = 7      # worker launches timed for setup_s
TIME_MARGIN = 140.0     # seconds allowed beyond --seconds, set-up included


class BenchError(RuntimeError):
    pass


def launch(cmd, deadline):
    """Start a worker; return (seconds until it printed ``ready``, its output)."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - start
        rest = proc.stdout.read()
    finally:
        proc.stdout.close()
        proc.wait()
        watchdog.cancel()
    if first.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker {' '.join(cmd[1:])} exited with code "
                         f"{proc.returncode}")
    return ready, rest


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "predprey" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'predprey'}",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + args.seconds + TIME_MARGIN
    out_root = ROOT / ".bench_out"
    work = out_root / f"work-{os.getpid()}"
    spans_out = out_root / f"spans-{args.workload}-{args.seed}.jsonl"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--work-dir", str(work),
           "--spans-out", str(spans_out)]
    try:
        setups = []
        for _ in range(0 if args.trace else SETUP_LAUNCHES):
            ready, kernel = launch(cmd + ["--setup-only"], deadline)
            setups.append((ready, json.loads(kernel)))
            shutil.rmtree(work, ignore_errors=True)
        _, output = launch(cmd + ["--seconds", str(args.seconds),
                                  "--trace", str(args.trace)], deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    raw = json.loads(output.strip().splitlines()[-1])

    walls = raw["walls"]
    wall = statistics.median(walls)
    q1, q3 = quartiles(walls)
    scale = raw["kernel_ref_s"] / raw["kernel_s"]
    print(f"workload {args.workload}, seed {args.seed}: {len(walls)} timed"
          f" passes of {raw['points']:g} grid points")
    print(f"raw pass time: median {wall:.6f} s, quartiles {q1:.6f} .. {q3:.6f}")
    print(f"kernel: median {raw['kernel_s']:.6f} s against reference "
          f"{raw['kernel_ref_s']} s; times below are scaled by {scale:.4f}")
    if args.trace:
        # Passes alternate untraced, traced, untraced, ...: compare each
        # traced pass with the mean of its two untraced neighbours, so the
        # host's drift and the order of the passes cancel.
        ratios = [2.0 * t / (before + after) for before, t, after
                  in zip(walls, raw["traced_walls"], walls[1:])]
        metrics = {name: ({"value": m["value"] * scale, "unit": m["unit"]}
                          if m["unit"] in ("s", "ns") and m["value"] is not None
                          else m)
                   for name, m in raw["layers"].items()}
        metrics["trace.overhead_frac"] = {
            "value": statistics.median(ratios) - 1.0, "unit": "frac"}
        print(f"per-layer times are scaled like wall_s; trace overhead from "
              f"{len(ratios)} traced passes, each against its neighbours")
        if raw["unmeasured"]:
            print("unmeasured layers: " + ", ".join(raw["unmeasured"]))
    else:
        setup = statistics.median(ready for ready, _ in setups)
        setup_scale = setups[0][1]["kernel_ref_s"] / statistics.median(
            k["kernel_s"] for _, k in setups)
        metrics = {
            "setup_s": {"value": setup * setup_scale, "unit": "s"},
            "wall_s": {"value": wall * scale, "unit": "s"},
            "points_per_s": {"value": raw["points"] / (wall * scale), "unit": "1/s"},
            "peak_rss_mb": {"value": raw["peak_rss_kb"] / 1024.0, "unit": "MB"},
        }
        print(f"raw setup time over {len(setups)} launches: "
              + " ".join(f"{ready:.4f}" for ready, _ in setups)
              + f"; scaled by {setup_scale:.4f}")
    for name, m in metrics.items():
        value = "unmeasured" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:36s} {value:>14s} {m['unit']}")
    error_rate = raw["failed"] / raw["attempted"]
    print(f"  {'error_rate':36s} {error_rate:>14.6g} 1  "
          f"({raw['failed']} failed of {raw['attempted']} operations)")
    for failure in raw["failures"]:
        print(f"  failed: {failure}")
    if raw["known_defect"]:
        print(f"  known defect, outside the timed inputs: {raw['known_defect']}")
    print(json.dumps({"known_defect": raw["known_defect"]}))
    print(json.dumps({"correct": raw["failed"] == 0,
                      "attempted": raw["attempted"],
                      "failed": raw["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

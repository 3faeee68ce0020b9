"""Run the benchmark over several seeds and write one summary JSON.

    python3 bench/record.py --seeds 1-10 --seconds 30 --out summary.json

For every workload this runs ``run.py`` once per seed with ``--trace 0``
and once per seed with ``--trace 1``.  Per metric it records the median,
the quartiles, the spread (quartile distance over median) and every
value, and it keeps each distinct ``known_defect`` that the runs printed.
The machine is recorded too.  ``baseline.json`` next to this file was
written this way at the seed commit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("corpus", "figures", "long")


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def machine():
    import numpy
    model = next((line.split(":", 1)[1].strip()
                  for line in Path("/proc/cpuinfo").read_text().splitlines()
                  if line.startswith("model name")), platform.processor())
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform()}


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    *_, defect, result = out.stdout.strip().splitlines()
    return json.loads(defect)["known_defect"], json.loads(result)


def summarise(results):
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        entry = {"unit": results[0]["metrics"][name]["unit"], "values": values}
        if None not in values:
            entry["median"] = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                entry.update(q1=q1, q3=q3)
                if entry["median"]:
                    entry["spread"] = (q3 - q1) / entry["median"]
        out[name] = entry
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    summary = {"machine": machine(), "seconds": args.seconds, "seeds": args.seeds,
               "workloads": {}}
    for workload in WORKLOADS:
        runs = [run(workload, s, args.seconds, trace)
                for trace in (0, 1) for s in args.seeds]
        results = [r for _, r in runs]
        plain, layers = results[:len(args.seeds)], results[len(args.seeds):]
        summary["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "known_defect": sorted({d for d, _ in runs if d}),
            "end_to_end": summarise(plain),
            "per_layer": summarise(layers),
        }
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One workload in one fresh process; started by run.py.

Prints ``ready`` once the package is imported and the inputs are made,
which ends set-up.  With ``--setup-only`` it then times the set-up
kernel of calibrate.py (after one untimed call), prints that, and exits.
Otherwise it runs one untimed warm-up pass, then timed passes until
``--seconds`` have passed (at least MIN_PASSES), checks every pass, and
prints one JSON line of raw measurements.  Before every timed pass it
times the workload's kernel.  With ``--trace 1`` untraced and traced
passes alternate, so the tracing overhead is measured in the same
process.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MIN_PASSES = 5


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--spans-out", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import predprey
    if not Path(predprey.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"predprey imported from {predprey.__file__}, not from {ROOT / 'src'}")
    from workloads import WORKLOADS, Tally, check_finals

    args.work_dir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.work_dir)
    print("ready", flush=True)
    import calibrate
    if args.setup_only:
        kernel = calibrate.SETUP_KERNEL
        kernel()                    # the first call pays numpy's lazy set-up
        start = time.perf_counter()
        kernel()
        print(json.dumps({"kernel_s": time.perf_counter() - start,
                          "kernel_ref_s": kernel.ref_s}))
        return 0

    kernel = workload.KERNEL
    tally = Tally()
    finals = []
    points = []
    walls = {False: [], True: []}
    kernel_s = []
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()

    def one_pass(index, traced):
        out = args.work_dir / f"pass-{index}"
        gc.collect()
        if index:
            start = time.perf_counter()
            kernel()
            kernel_s.append(time.perf_counter() - start)
        if traced:
            tracer.pass_id = index
            tracer.install()
        start = time.perf_counter()
        try:
            result = workload.run_pass(out)
        finally:
            wall = time.perf_counter() - start
            if traced:
                tracer.uninstall()
        n, f = workload.check_pass(result, tally, out)
        shutil.rmtree(out, ignore_errors=True)
        points.append(n)
        finals.extend(f)
        return wall

    try:
        one_pass(0, False)
        deadline = time.perf_counter() + args.seconds
        index = 1
        while (time.perf_counter() < deadline or len(walls[False]) < MIN_PASSES
               or (tracer and len(walls[True]) < MIN_PASSES)):
            traced = tracer is not None and index % 2 == 0
            walls[traced].append(one_pass(index, traced))
            index += 1
    except Exception:
        # A pass that raises is a failed operation; report what ran so far.
        traceback.print_exc()
        tally.check(False, "a pass raised")
    if not walls[False]:
        return 1
    check_finals(finals, workload.expected(), tally)
    defect = getattr(workload, "known_defect", None)

    out = {
        "walls": walls[False],
        "traced_walls": walls[True],
        "points": statistics.median(points),
        "kernel_s": statistics.median(kernel_s),
        "kernel_ref_s": kernel.ref_s,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
        "known_defect": defect() if defect else None,
    }
    if tracer:
        from tracing import layer_metrics
        out["layers"] = layer_metrics(tracer.spans, tracer.unmeasured)
        out["unmeasured"] = tracer.unmeasured
        with open(args.spans_out, "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

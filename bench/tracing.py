"""Per-layer timing from outside the package.

``Tracer.install`` replaces each public function named in ``LAYERS`` with
a wrapper in every loaded ``predprey`` module that binds it (the package
namespace, ``predprey.runner``, ``predprey.cli`` and the defining module),
so calls the package makes between its own modules are seen too.
``uninstall`` puts the originals back.  A wrapper records a span (name,
start, end, thread, parent, pass id) in memory; nothing is written until
the caller asks for ``spans``.

A span's parent is the innermost open span of its own thread.  Spans
opened in a thread with no open span, such as the pool threads of
``run_scenarios``, attach to the innermost open ``run_scenarios`` span.

A layer whose function cannot be found is listed in ``unmeasured`` and
its metrics are reported as None instead of failing the run.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import sys
import threading
import time
from pathlib import Path


def _points(args, kwargs, result):
    return {"points": len(result)}


def _solve_points(args, kwargs, result):
    return {"points": len(result), "max_steps": len(result) - 1}


def _violations(args, kwargs, result):
    return {"violations": int(not result.ok)}


def _written(args, kwargs, result):
    return {"bytes": Path(result).stat().st_size}


def _read(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return {"bytes": Path(path).stat().st_size}


#: layer.function -> (defining module, function name, counter)
LAYERS = {
    "schemes.iterate": ("predprey.schemes", "iterate", _points),
    "fractional.caputo_solve": ("predprey.fractional", "caputo_solve", _solve_points),
    "regions.check_trajectory": ("predprey.regions", "check_trajectory", _violations),
    "stability.classify": ("predprey.stability", "classify", None),
    "runner.load_scenarios": ("predprey.runner", "load_scenarios", None),
    "runner.run_scenarios": ("predprey.runner", "run_scenarios", None),
    "runner.run_scenario": ("predprey.runner", "run_scenario", None),
    "runner.trajectory_to_csv": ("predprey.runner", "trajectory_to_csv", _written),
    "runner.trajectory_from_csv": ("predprey.runner", "trajectory_from_csv", _read),
    "runner.write_gnuplot_script": ("predprey.runner", "write_gnuplot_script", None),
    "runner.compare": ("predprey.runner", "compare", None),
    "cli.main": ("predprey.cli", "main", None),
}

#: span whose pool threads' spans attach to it
FANOUT = "runner.run_scenarios"

#: per-layer metric -> (layer, statistic, unit); statistics come from pass_stats
METRICS = {
    "schemes.iterate.calls": ("schemes.iterate", "calls", "count"),
    "schemes.iterate.busy_s": ("schemes.iterate", "busy_s", "s"),
    "schemes.points": ("schemes.iterate", "points", "count"),
    "schemes.ns_per_point": ("schemes.iterate", "ns_per_point", "ns"),
    "fractional.caputo_solve.calls": ("fractional.caputo_solve", "calls", "count"),
    "fractional.caputo_solve.busy_s": ("fractional.caputo_solve", "busy_s", "s"),
    "fractional.points": ("fractional.caputo_solve", "points", "count"),
    "fractional.max_steps": ("fractional.caputo_solve", "max_steps", "count"),
    "regions.check_trajectory.calls": ("regions.check_trajectory", "calls", "count"),
    "regions.check_trajectory.busy_s": ("regions.check_trajectory", "busy_s", "s"),
    "regions.violations": ("regions.check_trajectory", "violations", "count"),
    "stability.classify.calls": ("stability.classify", "calls", "count"),
    "stability.classify.busy_s": ("stability.classify", "busy_s", "s"),
    "runner.load_scenarios.busy_s": ("runner.load_scenarios", "busy_s", "s"),
    "runner.run_scenarios.busy_s": ("runner.run_scenarios", "busy_s", "s"),
    "runner.run_scenarios.self_s": ("runner.run_scenarios", "self_s", "s"),
    "runner.run_scenario.self_s": ("runner.run_scenario", "self_s", "s"),
    "runner.threads": ("runner.run_scenarios", "threads", "count"),
    "runner.trajectory_to_csv.calls": ("runner.trajectory_to_csv", "calls", "count"),
    "runner.trajectory_to_csv.busy_s": ("runner.trajectory_to_csv", "busy_s", "s"),
    "runner.csv_bytes_written": ("runner.trajectory_to_csv", "bytes", "bytes"),
    "runner.trajectory_from_csv.busy_s": ("runner.trajectory_from_csv", "busy_s", "s"),
    "runner.csv_bytes_read": ("runner.trajectory_from_csv", "bytes", "bytes"),
    "runner.write_gnuplot_script.busy_s": ("runner.write_gnuplot_script", "busy_s", "s"),
    "runner.compare.busy_s": ("runner.compare", "busy_s", "s"),
    "cli.main.busy_s": ("cli.main", "busy_s", "s"),
    "cli.main.self_s": ("cli.main", "self_s", "s"),
}


class Span:
    __slots__ = ("id", "name", "start", "end", "thread", "parent", "pass_id",
                 "counts")

    def __init__(self, id, name, start, end, thread, parent, pass_id, counts=None):
        self.id = id
        self.name = name
        self.start = start
        self.end = end
        self.thread = thread
        self.parent = parent
        self.pass_id = pass_id
        self.counts = counts or {}

    def as_dict(self):
        return {k: getattr(self, k) for k in self.__slots__}


class Tracer:
    def __init__(self):
        self.spans = []
        self.pass_id = None
        self.unmeasured = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._fanout = []
        self._patched = []

    def install(self):
        """Wrap every layer function found; returns the unmeasured layers."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "predprey" or n.startswith("predprey.")]
        self.unmeasured = []
        for layer, (module, fname, counter) in LAYERS.items():
            original = getattr(sys.modules.get(module), fname, None)
            if not callable(original):
                original = getattr(sys.modules.get("predprey"), fname, None)
            if not callable(original):
                self.unmeasured.append(layer)
                continue
            wrapper = self._wrap(layer, original, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))
        return self.unmeasured

    def uninstall(self):
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    def _wrap(self, layer, fn, counter):
        tracer = self
        fanout = layer == FANOUT

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            if stack:
                parent = stack[-1]
            else:
                parent = tracer._fanout[-1] if tracer._fanout else None
            span_id = next(tracer._ids)
            stack.append(span_id)
            if fanout:
                tracer._fanout.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if fanout:
                    tracer._fanout.remove(span_id)
            counts = counter(args, kwargs, result) if counter else None
            tracer.spans.append(Span(span_id, layer, start, end,
                                     threading.get_ident(), parent,
                                     tracer.pass_id, counts))
            return result

        return wrapper


def union_length(intervals, lo=float("-inf"), hi=float("inf")) -> float:
    """Total length covered by the intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """span id -> duration minus the union of its children's intervals."""
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    return {s.id: (s.end - s.start)
            - union_length([(c.start, c.end) for c in children.get(s.id, ())],
                           s.start, s.end)
            for s in spans}


def pass_stats(spans):
    """layer -> statistics over one pass's spans.

    ``busy_s`` is the length of the union of the layer's spans, so calls
    overlapping in pool threads count once; ``self_s`` sums self time
    over the layer's spans; counters are summed, ``max_*`` ones maxed.
    ``threads`` is the most distinct threads seen under one
    ``run_scenarios`` span.
    """
    selfs = self_times(spans)
    by_layer = {}
    for s in spans:
        by_layer.setdefault(s.name, []).append(s)
    stats = {}
    for layer in LAYERS:
        own = by_layer.get(layer, [])
        st = {"calls": len(own),
              "busy_s": union_length([(s.start, s.end) for s in own]),
              "self_s": sum(selfs[s.id] for s in own)}
        for s in own:
            for key, value in s.counts.items():
                st[key] = max(st.get(key, 0), value) if key.startswith("max_") \
                    else st.get(key, 0) + value
        stats[layer] = st
    threads = {}
    for s in spans:
        threads.setdefault(s.parent, set()).add(s.thread)
    stats[FANOUT]["threads"] = max(
        (len(threads.get(s.id, ())) for s in by_layer.get(FANOUT, [])), default=0)
    it = stats["schemes.iterate"]
    it["ns_per_point"] = (it["busy_s"] / it["points"] * 1e9
                          if it.get("points") else 0.0)
    return stats


def layer_metrics(spans, unmeasured=()):
    """Median over passes of every per-layer metric; None where unmeasured."""
    passes = {}
    for s in spans:
        passes.setdefault(s.pass_id, []).append(s)
    per_pass = [pass_stats(group) for group in passes.values()]
    out = {}
    for name, (layer, stat, unit) in METRICS.items():
        value = None
        if layer not in unmeasured and per_pass:
            value = statistics.median(st[layer].get(stat, 0) for st in per_pass)
        out[name] = {"value": value, "unit": unit}
    return out

"""Self-tests of the benchmark.  Run: python3 -m pytest bench/test_bench.py

``python3 bench/test_bench.py`` re-records ``expected_seed.json``: the
final states the package under ``src/`` produces for seed 1 of each
workload.  The file in the repository was recorded at the seed commit.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy as np                      # noqa: E402
import pytest                           # noqa: E402

import predprey as pp                   # noqa: E402
import predprey.runner                  # noqa: E402
import oracle                           # noqa: E402
import tracing                          # noqa: E402
from tracing import Span, Tracer        # noqa: E402
from workloads import WORKLOADS, Long, Tally, check_finals  # noqa: E402

EXPECTED = HERE / "expected_seed.json"


def _inputs(workload):
    if isinstance(workload, WORKLOADS["corpus"]):
        return workload.config.read_text()
    if isinstance(workload, WORKLOADS["figures"]):
        return workload.read_order
    return (workload.initial, workload.sigma)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_deterministic_per_seed(name, tmp_path):
    made = []
    for i, seed in enumerate((7, 7, 8)):
        work = tmp_path / str(i)
        work.mkdir()
        made.append(_inputs(WORKLOADS[name](seed, work)))
    assert made[0] == made[1]
    assert made[0] != made[2]


def test_self_time_subtracts_union_of_overlapping_children():
    spans = [
        Span(1, "runner.run_scenarios", 0.0, 10.0, 1, None, 0),
        Span(2, "runner.run_scenario", 1.0, 4.0, 2, 1, 0),
        Span(3, "runner.run_scenario", 3.0, 6.0, 3, 1, 0),   # overlaps span 2
        Span(4, "runner.run_scenario", 8.0, 12.0, 2, 1, 0),  # runs past its parent
        Span(5, "schemes.iterate", 1.5, 3.5, 2, 2, 0, {"points": 10}),
    ]
    selfs = tracing.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - (5.0 + 2.0))
    assert selfs[2] == pytest.approx(3.0 - 2.0)
    assert selfs[5] == pytest.approx(2.0)
    stats = tracing.pass_stats(spans)
    assert stats["runner.run_scenario"]["busy_s"] == pytest.approx(5.0 + 4.0)
    assert stats["runner.run_scenario"]["self_s"] == pytest.approx(1.0 + 3.0 + 4.0)
    assert stats["runner.run_scenarios"]["threads"] == 2
    assert stats["schemes.iterate"]["ns_per_point"] == pytest.approx(2e8)


def test_union_length_merges_and_clips():
    assert tracing.union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert tracing.union_length([(0, 2), (1, 3), (5, 6)], 1.5, 5.5) == 2
    assert tracing.union_length([]) == 0


class _Short(Long):
    T_END = 2.0


def test_error_rate_counts_an_injected_failure(tmp_path):
    workload = _Short(3, tmp_path)
    trajs = workload.run_pass(tmp_path)
    clean = Tally()
    _, finals = workload.check_pass(trajs, clean, tmp_path)
    check_finals(finals, workload.expected(), clean)
    assert clean.attempted == 8 and clean.failed == 0

    # a final state off by 1e-6 relative: a wrong scheme or order
    bad = trajs[0].states.copy()
    bad[-1] *= 1.0 + 1e-6
    trajs[0] = pp.Trajectory(trajs[0].times, bad, trajs[0].scheme)
    # a non-finite state in another trajectory
    nan = trajs[1].states.copy()
    nan[5, 1] = np.nan
    trajs[1] = pp.Trajectory(trajs[1].times, nan, trajs[1].scheme)
    tally = Tally()
    _, finals = workload.check_pass(trajs, tally, tmp_path)
    check_finals(finals, workload.expected(), tally)
    assert tally.attempted == 8
    assert tally.failed == 2


def test_oracle_matches_the_seed_commit():
    recorded = json.loads(EXPECTED.read_text())
    for name, finals in recorded.items():
        with tempfile.TemporaryDirectory() as tmp:
            expected = WORKLOADS[name](1, Path(tmp)).expected()
        assert expected.keys() == finals.keys()
        for key, got in finals.items():
            assert oracle.close(got, expected[key]), (name, key)


def test_pool_thread_spans_attach_to_run_scenarios(tmp_path):
    scenarios = [pp.Scenario(name=f"s{i}", scheme="mickens", h=1.0, t_end=20.0,
                             outputs=("verify",)) for i in range(6)]
    tracer = Tracer()
    tracer.pass_id = 1
    assert tracer.install() == []
    try:
        pp.run_scenarios(scenarios, tmp_path, workers=2)
    finally:
        tracer.uninstall()
    assert pp.runner.iterate is pp.schemes.iterate
    assert pp.run_scenarios is pp.runner.run_scenarios
    assert not hasattr(pp.run_scenarios, "__wrapped__")
    by_id = {s.id: s for s in tracer.spans}
    roots = [s for s in tracer.spans if s.name == "runner.run_scenarios"]
    assert len(roots) == 1
    iterates = [s for s in tracer.spans if s.name == "schemes.iterate"]
    assert len(iterates) == 6
    for span in iterates:
        parent = by_id[span.parent]
        assert parent.name == "runner.run_scenario"
        assert parent.thread == span.thread
        assert parent.parent == roots[0].id


def test_missing_layer_is_reported_unmeasured(monkeypatch):
    monkeypatch.setitem(tracing.LAYERS, "schemes.iterate",
                        ("predprey.schemes", "no_such_function", None))
    tracer = Tracer()
    tracer.pass_id = 1
    assert tracer.install() == ["schemes.iterate"]
    try:
        pp.caputo_solve(pp.DEFAULT_PARAMS,
                        pp.FractionalConfig(sigma=0.9, h=0.5, t_end=5.0),
                        pp.DEFAULT_INITIAL)
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer.spans, tracer.unmeasured)
    assert metrics["schemes.iterate.calls"]["value"] is None
    assert metrics["fractional.caputo_solve.calls"]["value"] == 1
    assert metrics["fractional.max_steps"]["value"] == 10


def record():
    """Final states of seed 1 of every workload, from the package in src/."""
    out = {}
    for name, cls in WORKLOADS.items():
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            workload = cls(1, tmp)
            result = workload.run_pass(tmp / "pass")
            _, finals = workload.check_pass(result, Tally(), tmp / "pass")
        out[name] = dict(finals)
    EXPECTED.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    record()

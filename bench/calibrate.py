"""A fixed reference kernel, timed next to every pass to cancel host drift.

On the 2-CPU shared host this benchmark was written on, the same code ran
up to 1.5x faster or slower for minutes at a time as other tenants came
and went.  Raw median pass times of one commit spread by 11-56 %
(quartile distance over median) across runs.  So the worker times a
kernel before every pass, and run.py rescales the run's median times by
``ref_s`` / (median kernel time).  Each time is thus reported at the
kernel's reference speed.

The kernel is the benchmark's own code, so no change to the package
moves it.  Each workload's kernel is a scaled-down copy of the
workload's own arithmetic, run by the oracle: the same solvers on grids
of similar size, plus as many CSV-style text rows as the workload writes
and reads.  A mix that differs from the workload's slows by a different
factor when the host slows.  Workloads that go through the thread pool
of ``run_scenarios`` run the kernel's tasks in a pool of the same size,
so the kernel feels the same lock hand-offs as the program.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

import oracle

POOL = os.cpu_count() or 1
_PARAMS = (0.05, 0.3, 0.4, 1.0)


@dataclass(frozen=True)
class Kernel:
    """``tasks`` copies of ``runs`` (scheme, h, t_end) and ``csv_rows``
    rows of text, on ``threads`` threads; ``ref_s`` is its time at the
    reference speed."""

    runs: tuple
    csv_rows: int
    tasks: int
    threads: int
    ref_s: float

    def _task(self, _):
        for scheme, h, t_end in self.runs:
            oracle.final_state(scheme, _PARAMS, h, t_end, 0.9, 0.2, 0.3)
        if self.csv_rows:
            text = "\n".join(f"{x:.17g},{0.5 * x:.17g},{0.25 * x:.17g}"
                             for x in np.linspace(0.0, 1.0, self.csv_rows))
            sum(float(c) for line in text.split("\n") for c in line.split(","))

    def __call__(self):
        if self.threads == 1:
            for i in range(self.tasks):
                self._task(i)
            return
        with ThreadPoolExecutor(max_workers=self.threads) as pool:
            list(pool.map(self._task, range(self.tasks)))


#: timed in each set-up launch: interpreter-bound, like the imports
SETUP_KERNEL = Kernel(runs=(("reference", 0.01, 250.0),), csv_rows=3000,
                      tasks=1, threads=1, ref_s=0.045)

"""A fixed reference task, timed between kernelize calls to gauge how fast
the machine runs dict-heavy Python code at the moment.

On the shared 2-vCPU VM the benchmark was tuned on, a workload ran up to 1.9
times slower for minutes at a time, while a pure arithmetic loop slowed by
only 1.3 times over the same minutes: the slow phases come from contention
for caches and memory, not from lost CPU time (`/proc/stat` showed no steal).
This task, which fills a dict with tuple keys and sorts it, slowed with the
program. Over 23 windows of 20 s across such a phase, the fastest
matroid-wide calls summed to between 2.4 and 4.6 s (quartiles 2.7 and 4.2),
and their ratio to the task's median time stayed between 0.067 and 0.090
(quartiles 0.076 and 0.086). The benchmark measures each kernelize call
against the runs of this task around it (`bench.in_ref`).

The task uses nothing from the program, so a change to the program cannot
move it; it is part of the benchmark and stays fixed with it.
"""
from __future__ import annotations

import time

KEYS = 20000


def task() -> int:
    table = {}
    for i in range(KEYS):
        table[(i * 7919) % 10007, i & 15] = i
    items = sorted(table.items())
    return len(items) + items[-1][1]


def timed() -> float:
    t0 = time.perf_counter()
    task()
    return time.perf_counter() - t0

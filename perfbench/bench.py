"""Measurement of one workload: set-up, timed passes, checks and metrics.

A pass runs `sfvs kernelize` in-process (`sfvs_kernel.cli.main`) once per
instance of the workload, reading and writing real files. With tracing off,
one pass is followed by round-robin calls while the measuring time lasts,
each call is measured in units of the reference task's time around it, and an
instance's latency is the median of its calls. With tracing on, each
pass calls every instance untraced and traced, back to back; the traced calls
give the per-layer metrics and, against the untraced ones, the tracing
overhead. Every call of an instance must produce the same output bytes, and
the first output is checked for its answer and size bound after the clock
has stopped.
"""
from __future__ import annotations

import bisect
import gc
import hashlib
import os
import random
import resource
import statistics
import time
from dataclasses import dataclass
from typing import Optional

from sfvs_kernel import cli, parse_instance, serialize_instance

from . import layers, reference
from .checks import check_output
from .tracer import Tracer
from .workloads import Case, Workload

# (name, unit, better, bound); BENCHMARK.json's end_to_end list is this list
E2E = [
    ("wall_ref", "ref", "lower", 0.25),
    ("lat_p50_ref", "ref", "lower", 0.25),
    ("lat_p99_ref", "ref", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
    ("kernel_n", "count", "lower", 0.15),
    ("kernel_s", "count", "lower", 0.15),
]
# seconds between two runs of the reference task (25-60 ms each), and how
# many runs around a call give the machine's speed at that call
REF_EVERY = 0.5
REF_NEAR = 4
UNITS = dict((name, unit) for name, unit, _, _ in E2E)
UNITS.update((name, unit) for name, unit, _ in layers.METRICS)


@dataclass
class Call:
    latency: float
    output: Optional[str]
    error: Optional[str]
    start: float                 # time.perf_counter() when the call began


@dataclass
class Prepared:
    cases: list[Case]
    inputs: list[str]            # input file texts, as written
    paths: list[str]
    setup_s: float               # import, build, write and warm-up


@dataclass
class Result:
    metrics: dict[str, float]
    attempted: int
    failed: int
    notes: list[str]             # failures, call counts, output hash


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between the closest ranks, q in [0, 1]."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def kernelize(workload: Workload, case: Case, path: str,
              tracer: Optional[Tracer] = None) -> Call:
    out_path = path + ".out"
    argv = ["kernelize", path, "-o", out_path, *workload.flags(case)]
    error = None
    t0 = time.perf_counter()
    try:
        if tracer is None:
            rc = cli.main(argv)
        else:
            with tracer.span("kernelize"):
                rc = cli.main(argv)
    except Exception as exc:   # a crash is a failed instance, not a dead run
        rc, error = None, f"raised {type(exc).__name__}: {exc}"
    latency = time.perf_counter() - t0
    if error is None and rc != 0:
        error = f"exit code {rc}"
    if error is not None:
        return Call(latency, None, error, t0)
    with open(out_path, encoding="ascii") as fh:
        return Call(latency, fh.read(), None, t0)


def prepare(workload: Workload, seed: int, work: str,
            import_s: float) -> Prepared:
    """Build the inputs and write them into the directory `work`, then make
    one warm-up call; `setup_s` adds the time of that to `import_s`."""
    t0 = time.perf_counter()
    rng = random.Random(seed)
    cases = workload.build(rng)
    inputs, paths = [], []
    for i, case in enumerate(cases):
        text = serialize_instance(case.pinst)
        path = os.path.join(work, f"{i}.in")
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
        inputs.append(text)
        paths.append(path)
    warm = Case("warmup", workload.warmup(), 0, None)
    warm_path = os.path.join(work, "warmup.in")
    with open(warm_path, "w", encoding="ascii") as fh:
        fh.write(serialize_instance(warm.pinst))
    kernelize(workload, warm, warm_path)
    return Prepared(cases, inputs, paths,
                    import_s + time.perf_counter() - t0)


def paired_pass(workload: Workload, prep: Prepared
                ) -> tuple[list[Call], list[Call], Tracer]:
    """A pass that calls each instance untraced and traced, back to back, so
    that both calls meet the machine in the same state. Which goes first
    alternates between instances: the second call of a pair ran up to 25%
    faster on small-batch, whichever it was."""
    tracer = Tracer()
    probes = layers.probes()
    plain, traced = [], []
    for i, (case, path) in enumerate(zip(prep.cases, prep.paths)):
        tracer.call = i
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                with tracer.patched(probes):
                    traced.append(kernelize(workload, case, path, tracer))
            else:
                plain.append(kernelize(workload, case, path))
    return plain, traced, tracer


def _reference_run() -> tuple[float, float]:
    """(midpoint, duration) of one run of the reference task."""
    t0 = time.perf_counter()
    d = reference.timed()
    return t0 + d / 2, d


def _cycle(workload: Workload, prep: Prepared, seconds: float
           ) -> tuple[list[list[Call]], list[tuple[float, float]]]:
    """Calls per instance: one full pass, then round-robin over the instances
    whose next call would likely end before the deadline, until none would.
    The reference task runs first and then after a call whenever REF_EVERY
    seconds have passed since it last ran; its runs are returned too."""
    deadline = time.perf_counter() + seconds
    refs = [_reference_run()]

    def call(i: int) -> Call:
        c = kernelize(workload, prep.cases[i], prep.paths[i])
        if time.perf_counter() - refs[-1][0] >= REF_EVERY:
            refs.append(_reference_run())
        return c

    per_case = [[call(i)] for i in range(len(prep.cases))]
    i = skipped = 0
    while skipped < len(per_case):
        if time.perf_counter() + per_case[i][-1].latency <= deadline:
            per_case[i].append(call(i))
            skipped = 0
        else:
            skipped += 1
        i = (i + 1) % len(per_case)
    return per_case, refs


def _paired(workload: Workload, prep: Prepared, seconds: float
            ) -> list[tuple[list[Call], list[Call], Tracer]]:
    """Paired passes, at least one, until the next would likely end past the
    deadline."""
    deadline = time.perf_counter() + seconds
    passes = []
    while True:
        t0 = time.perf_counter()
        passes.append(paired_pass(workload, prep))
        now = time.perf_counter()
        if now + (now - t0) > deadline:
            return passes


def in_ref(call: Call, refs: list[tuple[float, float]]) -> float:
    """The call's latency over the median time of the REF_NEAR reference
    runs nearest to it (half before its midpoint, half after)."""
    mids = [t for t, _ in refs]
    j = bisect.bisect_left(mids, call.start + call.latency / 2)
    lo = max(0, min(j - REF_NEAR // 2, len(refs) - REF_NEAR))
    return call.latency / statistics.median(d for _, d in refs[lo:lo + REF_NEAR])


def _digest(outputs: list[Call]) -> str:
    h = hashlib.sha256()
    for c in outputs:
        h.update((c.output if c.output is not None else f"!{c.error}").encode())
        h.update(b"\0")
    return h.hexdigest()


def _failures(workload: Workload, prep: Prepared,
              per_case: list[list[Call]]) -> dict[int, list[str]]:
    """Per instance index, the reasons it failed, over all of its calls."""
    bad: dict[int, list[str]] = {}
    for i, (case, calls) in enumerate(zip(prep.cases, per_case)):
        why = [c.error for c in calls if c.error]
        if any(c.output != calls[0].output for c in calls[1:]):
            why.append("output differs between calls")
        if calls[0].output is not None:
            try:
                why += check_output(workload.stage, case.expect,
                                    prep.inputs[i], calls[0].output)
            except Exception as exc:   # the checker must not end the run
                why.append(f"check raised {type(exc).__name__}: {exc}")
        if why:
            bad[i] = why
    return bad


def _kernel_sizes(outputs: list[Call]) -> tuple[int, int]:
    n = s = 0
    for c in outputs:
        if c.output is not None:
            k = parse_instance(c.output)
            n += k.graph.n
            s += len(k.s)
    return n, s


def measure(workload: Workload, prep: Prepared, seconds: float,
            trace: bool) -> Result:
    # A full pass of the cyclic collector scans every tracked object. Left
    # alone, calls pay for scanning the benchmark's own instances and the
    # modules, and the few calls a full pass lands in (20-40 ms each on a
    # 2-vCPU VM) moved small-batch's p99 between 24 and 39 ms from run to
    # run. Frozen objects are skipped; what the calls allocate is not.
    gc.freeze()
    if trace:
        passes = _paired(workload, prep, seconds)
        per_case = [list(calls) for calls in
                    zip(*[calls for plain, traced, _ in passes
                          for calls in (plain, traced)])]
    else:
        per_case, refs = _cycle(workload, prep, seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    firsts = [calls[0] for calls in per_case]
    bad = _failures(workload, prep, per_case)
    notes = [f"FAIL {prep.cases[i].label}: {'; '.join(why)}"
             for i, why in sorted(bad.items())]
    counts = [len(calls) for calls in per_case]
    notes.append(f"{sum(counts)} kernelize calls over {len(per_case)} "
                 f"instances ({min(counts)} to {max(counts)} each); latency "
                 f"percentiles over the {len(per_case)} per-instance medians; "
                 f"output sha256 {_digest(firsts)}")

    if not trace:
        # The machine's speed moves in phases of seconds to minutes, from
        # contention for caches and memory (reference.py). Each call is
        # therefore measured against the reference runs around it, and an
        # instance's latency is the median of its calls. On recorded runs of
        # gnm-ladder and small-batch cut into 25 s windows, this moved 0.09
        # and 0.03 (quartile distance over median) from window to window,
        # against 0.11 and 0.13 for the median in seconds, 0.12 and 0.06 for
        # that median over the window's median reference run, and 0.21 and
        # 0.25 for the fastest call in seconds.
        lat_s = [statistics.median(c.latency for c in calls) for calls in per_case]
        lat = [statistics.median(in_ref(c, refs) for c in calls)
               for calls in per_case]
        ref = statistics.median(d for _, d in refs)
        kn, ks = _kernel_sizes(firsts)
        notes.append(f"measured: wall {sum(lat_s):.6g} s, latency p50 "
                     f"{1000 * percentile(lat_s, 0.50):.6g} ms, p99 "
                     f"{1000 * percentile(lat_s, 0.99):.6g} ms; reference "
                     f"task {1000 * ref:.6g} ms, median of {len(refs)} runs")
        metrics = {
            "wall_ref": sum(lat),
            "lat_p50_ref": percentile(lat, 0.50),
            "lat_p99_ref": percentile(lat, 0.99),
            "setup_s": prep.setup_s,
            "peak_rss_mb": rss_mb,
            "kernel_n": kn,
            "kernel_s": ks,
        }
    else:
        summaries = [layers.summarize(t) for _, _, t in passes]
        metrics = {name: statistics.median(s[name] for s in summaries)
                   for name in summaries[0]}
        metrics["trace.overhead_ratio"] = statistics.median(
            sum(sp.duration for sp in t.spans if sp.parent < 0)
            / sum(c.latency for c in plain) for plain, _, t in passes)
    return Result(metrics, len(prep.cases), len(bad), notes)

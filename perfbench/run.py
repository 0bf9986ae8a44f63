"""Benchmark of `sfvs kernelize`: one workload per run, result as JSON.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its `src/`.
Human-readable lines (every metric with its unit, sample counts, the output
hash and any failed instance) come first; the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics. With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the per-layer
ones from a traced pass. `--workload all` runs every workload in turn and
prefixes each metric with its workload's name. Scratch files go under
`.perfbench/` in the checkout and are removed at exit.

Set-up (import, building and writing the inputs, one warm-up call) is timed
in this process and again in SETUP_SAMPLES - 1 fresh interpreters started
with `--setup-only`, so that import-time and first-call costs show in every
sample; setup_s is the median. All samples write the same files: the first
creates them and the others overwrite them. Creating a file cost between 0.05
and 0.8 ms on the same 2-vCPU VM within one hour, which on small-batch's 1000
files outweighed everything the program does in set-up.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("gnm-ladder", "fan-steps", "matroid-wide", "small-batch")
SETUP_SAMPLES = 3


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", metavar="DIR",
                   help="time one set-up of the workload writing into DIR, "
                        "print it and exit")
    return p


def _setup_sample(name: str, seed: int, work: str) -> float:
    out = subprocess.run(
        [sys.executable, "-B", os.path.abspath(__file__), "--workload", name,
         "--seed", str(seed), "--seconds", "1", "--setup-only", work],
        capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.split()[-1])


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SRC, "sfvs_kernel", "cli.py")):
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2

    sys.dont_write_bytecode = True
    sys.path[0:1] = [SRC, ROOT]   # replaces this script's own directory
    t0 = time.perf_counter()
    import sfvs_kernel
    from perfbench import bench, workloads
    import_s = time.perf_counter() - t0
    if os.path.dirname(os.path.abspath(sfvs_kernel.__file__)) != \
            os.path.join(SRC, "sfvs_kernel"):
        print(f"error: sfvs_kernel came from {sfvs_kernel.__file__}",
              file=sys.stderr)
        return 2

    if args.setup_only:
        wl = workloads.WORKLOADS[args.workload]
        print(bench.prepare(wl, args.seed, args.setup_only, import_s).setup_s)
        return 0

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    work_root = os.path.join(ROOT, ".perfbench")
    os.makedirs(work_root, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=work_root)
    metrics: dict[str, dict] = {}
    attempted = failed = 0
    try:
        for name in names:
            wl = workloads.WORKLOADS[name]
            work = os.path.join(scratch, name)
            os.mkdir(work)
            prep = bench.prepare(wl, args.seed, work, import_s)
            prep.setup_s = statistics.median(
                [prep.setup_s] + [_setup_sample(name, args.seed, work)
                                  for _ in range(SETUP_SAMPLES - 1)])
            res = bench.measure(wl, prep, args.seconds, bool(args.trace))
            attempted += res.attempted
            failed += res.failed
            prefix = f"{name}." if len(names) > 1 else ""
            for note in res.notes:
                print(f"{name}: {note}")
            for metric, value in res.metrics.items():
                unit = bench.UNITS[metric]
                print(f"{name}: {metric} = {value:.6g} {unit}")
                metrics[prefix + metric] = {"value": value, "unit": unit}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass   # another run still uses it
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

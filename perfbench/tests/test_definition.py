import json
import os
import random
import shutil
import subprocess
import sys

from sfvs_kernel import serialize_instance, solve_exact

from perfbench import bench, layers, run
from perfbench.workloads import WORKLOADS, leaf_fan

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_matches_the_code():
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert spec["workloads"] == [{"name": w.name, "why": w.why}
                                 for w in WORKLOADS.values()]
    assert spec["end_to_end"] == [{"name": n, "unit": u, "better": b, "bound": bd}
                                  for n, u, b, bd in bench.E2E]
    assert spec["per_layer"] == [{"name": n, "unit": u, "better": b}
                                 for n, u, b in layers.METRICS]
    assert run.WORKLOAD_NAMES == tuple(WORKLOADS)


def test_bounds_and_targets():
    spec = _spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    per_layer = {m["name"] for m in spec["per_layer"]}
    for w in WORKLOADS.values():
        assert set(w.moves) <= per_layer, w.name


def test_seed_sets_the_kernelizer_seeds_and_nothing_else():
    def inputs(wl, seed):
        cases = wl.build(random.Random(seed))
        return [serialize_instance(c.pinst) for c in cases], \
            [c.kseed for c in cases]

    for wl in WORKLOADS.values():
        (files5, seeds5), (files6, seeds6) = inputs(wl, 5), inputs(wl, 6)
        assert (files5, seeds5) == inputs(wl, 5)
        assert files5 == files6
        assert seeds5 != seeds6


def test_leaf_fan_answer_is_yes_exactly_from_k_2():
    for leaves in (3, 9):
        assert not solve_exact(leaf_fan(leaves, 1)).found
        assert solve_exact(leaf_fan(leaves, 2)).found


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                          "small-batch", "--seed", "1", "--seconds", "1"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert "correct" not in out.stdout

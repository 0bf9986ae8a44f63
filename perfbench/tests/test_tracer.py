import itertools
import math

from sfvs_kernel import ruleengine, serialize_instance

from perfbench import bench, layers
from perfbench.tracer import Probe, Tracer
from perfbench.workloads import WORKLOADS, Case, leaf_fan


def test_self_times_of_nested_spans_add_up_to_the_root():
    ticks = itertools.count()
    t = Tracer(clock=lambda: float(next(ticks)))
    with t.span("kernelize"):                  # 0 .. 7
        with t.span("flowers.decide"):         # 1 .. 2
            pass
        with t.span("gammoid.represent"):      # 3 .. 6
            with t.span("fieldlinalg.rref"):   # 4 .. 5
                pass
    assert [sp.parent for sp in t.spans] == [-1, 0, 0, 2]
    assert t.self_times() == [3.0, 1.0, 2.0, 1.0]
    by_layer = layers.self_by_layer(t)
    assert (by_layer["other"], by_layer["flowers"], by_layer["gammoid"],
            by_layer["fieldlinalg"]) == (3.0, 1.0, 2.0, 1.0)
    assert sum(by_layer.values()) == 7.0


def test_patched_wraps_then_restores():
    orig = ruleengine.has_flower_of_order
    t = Tracer()
    with t.patched([Probe(ruleengine, "has_flower_of_order", "flowers.decide")]):
        assert ruleengine.has_flower_of_order is not orig
        assert ruleengine.has_flower_of_order.__wrapped__ is orig
    assert ruleengine.has_flower_of_order is orig


def _prepared(tmp_path, cases):
    inputs, paths = [], []
    for i, case in enumerate(cases):
        text = serialize_instance(case.pinst)
        path = tmp_path / f"{i}.in"
        path.write_text(text)
        inputs.append(text)
        paths.append(str(path))
    return bench.Prepared(cases, inputs, paths, 0.0)


def test_traced_pass_self_times_cover_its_wall_time(tmp_path):
    wl = WORKLOADS["fan-steps"]
    prep = _prepared(tmp_path, [Case("fan-4", leaf_fan(4, 2), 7, True),
                                Case("fan-5", leaf_fan(5, 2), 8, True)])
    plain, traced, t = bench.paired_pass(wl, prep)

    assert [c.output for c in traced] == [c.output for c in plain]
    assert all(c.error is None for c in plain)
    roots = [sp for sp in t.spans if sp.parent < 0]
    assert [sp.call for sp in roots] == [0, 1]
    wall = sum(sp.duration for sp in roots)
    summary = layers.summarize(t)
    total = sum(summary[f"{layer}.self_s"] for layer in layers.LAYERS + ("other",))
    assert math.isclose(total, wall, rel_tol=1e-9)
    assert summary["ruleengine.steps"] > 0
    assert summary["pathpacking.gallai_calls"] > 0
    assert summary["ruleengine.fired_r10"] > 0


def test_summary_reports_every_per_layer_metric_but_the_overhead():
    names = {name for name, _, _ in layers.METRICS}
    assert set(layers.summarize(Tracer())) == names - {"trace.overhead_ratio"}

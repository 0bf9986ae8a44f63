from perfbench import bench, reference
from perfbench.bench import Call


def _call(start: float, latency: float) -> Call:
    return Call(latency, "", None, start)


def test_a_call_is_measured_against_the_reference_runs_around_it():
    # (midpoint, duration): the machine is twice as slow from t=10 on
    refs = [(t, 0.01) for t in range(10)] + [(t, 0.02) for t in range(10, 20)]
    assert bench.in_ref(_call(3.0, 0.5), refs) == 50
    assert bench.in_ref(_call(15.0, 1.0), refs) == 50
    # the median of two fast and two slow runs, at the boundary
    assert bench.in_ref(_call(9.5, 0.3), refs) == 0.3 / 0.015


def test_calls_at_either_end_use_the_nearest_runs():
    refs = [(0.0, 0.01), (1.0, 0.02), (2.0, 0.03), (3.0, 0.04), (4.0, 0.05)]
    assert bench.in_ref(_call(-1.0, 0.25), refs) == 0.25 / 0.025
    assert bench.in_ref(_call(9.0, 0.35), refs) == 0.35 / 0.035
    assert bench.in_ref(_call(0.0, 0.1), refs[:1]) == 0.1 / 0.01


def test_reference_task_does_the_same_work_every_time():
    assert reference.task() == reference.task()
    assert reference.timed() > 0

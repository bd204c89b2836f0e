"""Self-tests of the benchmark's own logic.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import jobs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


@pytest.mark.parametrize("workload", sorted(jobs.CATALOGUES))
def test_job_list_is_a_function_of_the_seed(workload):
    first = jobs.job_list(workload, seed=3, n_rounds=2)
    assert first == jobs.job_list(workload, seed=3, n_rounds=2)
    assert first != jobs.job_list(workload, seed=4, n_rounds=2)
    # Every round is the whole catalogue, whatever the seed.
    size = len(jobs.CATALOGUES[workload])
    for r in range(2):
        assert sorted(c.key for c in first[r * size:(r + 1) * size]) == sorted(
            c.key for c in jobs.CATALOGUES[workload]
        )


def test_percentile_needs_ten_samples_beyond():
    assert run.min_samples(90) == 100
    assert run.min_samples(50) == 20
    values = list(range(1, 101))  # 1..100
    assert run.beyond(100, 90) == 10
    assert run.percentile(values, 90) == 90
    assert run.percentile(values, 50) == 50
    assert sum(v > run.percentile(values, 90) for v in values) == 10
    with pytest.raises(ValueError, match="need 10"):
        run.percentile(values[:99], 90)
    # Ties and order do not matter: nearest rank over the sorted values.
    shuffled = [7.0] * 49 + [1.0] * 40 + [9.0] * 11
    assert run.percentile(shuffled, 90) == 9.0
    assert run.percentile(shuffled, 50) == 7.0


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_a_nested_span_tree():
    clock = FakeClock()
    log = spans.SpanLog(clock=clock)
    a, b, c = (log.layer_index(n) for n in ("a", "b", "c"))
    log.enabled = True
    # a [0, 10) holds b [1, 4) -- which holds c [2, 3) -- and c [5, 9).
    root = log.open(a)
    log.resume(root)
    clock.now = 1.0
    mid = log.open(b)
    log.resume(mid)
    clock.now = 2.0
    leaf = log.open(c)
    log.resume(leaf)
    clock.now = 3.0
    log.pause()
    clock.now = 4.0
    log.pause()
    clock.now = 5.0
    late = log.open(c)
    log.resume(late)
    clock.now = 9.0
    log.pause()
    clock.now = 10.0
    log.pause()
    assert list(log.self_times()) == [10 - 3 - 4, 3 - 1, 1, 4]
    assert list(log.parent) == [-1, root, mid, root]
    assert log.self_by_layer() == {"a": 3.0, "b": 2.0, "c": 5.0}
    assert log.busy_by_layer() == {"a": 10.0, "b": 3.0, "c": 5.0}
    assert log.calls_by_layer() == {"a": 1, "b": 1, "c": 2}


def test_generator_span_is_timed_resume_by_resume():
    clock = FakeClock()
    log = spans.SpanLog(clock=clock)
    outer = log.layer_index("outer")

    def worker():
        clock.now += 2.0
        got = yield "first"
        clock.now += 3.0
        return got * 2

    traced = spans.traced_gen(log, "inner", worker)
    log.enabled = True
    root = log.open(outer)
    log.resume(root)
    gen = traced()
    assert next(gen) == "first"
    log.pause()
    clock.now += 100.0  # time outside any span: nobody's self time
    log.resume(root)
    with pytest.raises(StopIteration) as stop:
        gen.send(21)
    log.pause()
    assert stop.value.value == 42
    assert list(log.self_times()) == [0.0, 5.0]
    assert log.calls_by_layer() == {"outer": 1, "inner": 1}


def test_same_layer_reentry_joins_the_running_span():
    log = spans.SpanLog()

    def fact(n):
        return 1 if n <= 1 else n * wrapped(n - 1)

    wrapped = spans.traced_call(log, "interp", fact)
    log.enabled = True
    assert wrapped(5) == 120
    assert log.calls_by_layer() == {"interp": 1}


def _counts(metrics):
    return {
        name: value
        for name, (value, unit) in metrics.items()
        if unit == "count"
    }


@pytest.mark.parametrize(
    "workload,keys",
    [
        ("timing", ("timing|PXOVER-96|16|vbus|fine",
                    "timing|XOVER-512|16|vbus|coarse")),
        ("tune", ("tune|XOVER-64|4|gige|joint",)),
    ],
)
def test_counts_repeat_across_traced_runs(monkeypatch, tmp_path, workload, keys):
    picked = tuple(c for c in jobs.CATALOGUES[workload] if c.key in keys)
    assert len(picked) == len(keys)
    monkeypatch.setitem(jobs.CATALOGUES, workload, picked)
    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path))
    first = run.traced_run(jobs, workload, seed=5)
    second = run.traced_run(jobs, workload, seed=5)
    assert not first[1] and not second[1]
    counts = _counts(first[2])
    assert counts == _counts(second[2])
    assert counts["sim.events"] > 0 and counts["vbus.messages"] > 0
    if workload == "tune":
        assert counts["tuneplan.profiles"] > 0
        assert counts["tuneplan.compiles"] > 0
    assert (tmp_path / f"spans-{workload}.npz").exists()

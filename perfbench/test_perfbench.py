"""Self-tests of the benchmark's own machinery.

    python3 -m pytest perfbench -q
"""

import asyncio
import json
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from perfbench import run
from perfbench.openloop import OpenLoopSource
from perfbench.tracer import Hook, Tracer
from perfbench.workloads import WORKLOADS, percentile, run_repeat

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _spin(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


class Toy:
    def outer(self):
        _spin(0.002)
        self.inner()
        self.inner()
        return self.recurse(2)

    def inner(self):
        _spin(0.003)

    def recurse(self, n):
        _spin(0.001)
        return n if n == 0 else self.recurse(n - 1)

    async def waits(self):
        _spin(0.002)
        await asyncio.sleep(0.03)
        self.inner()
        return "done"


def _toy_hooks():
    return tuple(
        Hook(f"toy.{name}", f"{__name__}:Toy.{name}")
        for name in ("outer", "inner", "recurse", "waits")
    )


def _assert_self_times_sum_to_root(tracer):
    total_self = sum(s.self_s for s in tracer.stats.values())
    assert total_self + tracer.root_self_s == pytest.approx(tracer.root_s, rel=1e-9)
    assert tracer.root_self_s >= 0
    for stat in tracer.stats.values():
        assert stat.self_s >= -1e-9
        assert stat.self_s <= stat.total_s + 1e-9


def test_span_self_times_sum_to_root_span():
    tracer = Tracer(_toy_hooks())
    with tracer:
        toy = Toy()
        toy.outer()
        _spin(0.004)  # root self time
        toy.inner()
    stats = tracer.stats
    assert stats["toy.outer"].calls == 1
    assert stats["toy.inner"].calls == 3
    assert stats["toy.recurse"].calls == 3
    # re-entrant spans count their outermost activation once in total_s
    assert stats["toy.recurse"].total_s == pytest.approx(
        stats["toy.recurse"].self_s, rel=0.2
    )
    assert stats["toy.outer"].self_s < stats["toy.outer"].total_s
    assert tracer.root_self_s >= 0.004
    _assert_self_times_sum_to_root(tracer)


def test_coroutine_spans_count_only_running_slices():
    tracer = Tracer(_toy_hooks())
    with tracer:
        assert asyncio.run(Toy().waits()) == "done"
    waits = tracer.stats["toy.waits"]
    assert waits.calls == 1
    assert waits.wait_s >= 0.025
    assert waits.total_s < 0.025
    assert tracer.stats["toy.inner"].calls == 1
    _assert_self_times_sum_to_root(tracer)


def test_missing_hooks_are_absent_not_fatal():
    hooks = _toy_hooks() + (
        Hook("gone.module", "perfbench.no_such_module:f"),
        Hook("gone.class", f"{__name__}:NoSuchClass.f"),
        Hook("gone.attr", f"{__name__}:Toy.no_such_method"),
    )
    original = Toy.__dict__["inner"]
    tracer = Tracer(hooks)
    with tracer:
        Toy().inner()
    assert len(tracer.absent) == 3
    assert tracer.stats["toy.inner"].calls == 1
    assert tracer.stats["gone.attr"].calls == 0
    assert Toy.__dict__["inner"] is original


def test_inherited_method_hook_is_removed_on_exit():
    class Child(Toy):
        pass

    hooks = (Hook("child.inner", f"{__name__}:Child.inner"),)
    globals()["Child"] = Child
    try:
        with Tracer(hooks) as tracer:
            Child().inner()
        assert tracer.stats["child.inner"].calls == 1
        assert "inner" not in Child.__dict__
    finally:
        del globals()["Child"]


def test_generator_stays_on_schedule_when_idle():
    jobs = [SimpleNamespace(name=f"j{i}", arrival_time=i * 0.5) for i in range(60)]
    # 60 arrivals over 29.5 simulated seconds at 100x: 0.3 host seconds
    source = OpenLoopSource(jobs, speedup=100.0)

    async def drain():
        return [arrival async for arrival in source.arrivals()]

    arrivals = asyncio.run(drain())
    assert [a.job.name for a in arrivals] == [j.name for j in jobs]
    late_ms = [s * 1e3 for s in source.late_s]
    assert percentile(late_ms, 95) < 20.0
    # absolute pacing: the last arrival is no later than a typical one
    assert late_ms[-1] < 20.0


def test_generator_lateness_does_not_carry_over():
    jobs = [SimpleNamespace(name=f"j{i}", arrival_time=i * 1.0) for i in range(10)]
    source = OpenLoopSource(jobs, speedup=100.0)  # one due every 10 ms

    async def slow_consumer():
        n = 0
        async for _ in source.arrivals():
            n += 1
            if n == 2:
                _spin(0.05)  # a stall: the next few arrivals come late
        return n

    assert asyncio.run(slow_consumer()) == 10
    assert max(source.late_s) >= 0.02
    assert source.late_s[-1] < 0.02  # back on schedule after the stall


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_small_repeats_pass_checks_and_repeat_exactly(name):
    workload = WORKLOADS[name]
    first = run_repeat(workload, seed=3, max_jobs=8)
    tracer = Tracer()
    second = run_repeat(workload, seed=3, max_jobs=8, tracer=tracer)
    assert first.problems == [] and second.problems == []
    assert first.unfinished == 0
    assert (first.digest, first.mean_jct_s, first.makespan_s) == (
        second.digest,
        second.mean_jct_s,
        second.makespan_s,
    )
    assert tracer.absent == []
    _assert_self_times_sum_to_root(tracer)
    calls = {label: s.calls for label, s in tracer.stats.items()}
    assert calls["schedulers.schedule"] > 0
    assert (calls["estimation.estimate"] > 0) == workload.learned
    assert (calls["serve.run_until"] > 0) == (workload.speedup is not None)


def test_benchmark_json_names_every_metric_run_prints():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    workload = WORKLOADS["learned-tracked"]
    tracer = Tracer()
    rep = run_repeat(workload, seed=3, max_jobs=6, tracer=tracer)
    layer = run.per_layer([rep], [(tracer, rep)])
    layer["host.ref_ms"] = (run.host_reference_ms(), "ms")
    e2e = run.end_to_end([rep], [rep.setup_s])
    for section, metrics in (("per_layer", layer), ("end_to_end", e2e)):
        declared = {m["name"]: m["unit"] for m in spec[section]}
        printed = {name: unit for name, (_, unit) in metrics.items()}
        assert declared == printed, section


def test_a_repeat_that_raises_counts_its_jobs_as_failed(monkeypatch):
    import perfbench.workloads as workloads

    real = workloads.run_repeat
    calls = []

    def flaky(workload, seed, max_jobs=None, tracer=None):
        calls.append(seed)
        if len(calls) == 3:  # warm-up, one good repeat, then a failure
            raise RuntimeError("simulated program failure")
        return real(workload, seed, max_jobs=6, tracer=tracer)

    monkeypatch.setattr(workloads, "run_repeat", flaky)
    workload = WORKLOADS["learned-tracked"]
    repeats, plain, traced, setups, raised, _ = run.measure(workload, 1, 0.0, False)
    assert len(plain) == 1 and traced == []
    assert raised == workload.population.num_jobs

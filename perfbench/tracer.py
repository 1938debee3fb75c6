"""Per-layer spans recorded from outside the program.

A :class:`Tracer` patches a table of public functions (:data:`HOOKS`),
looked up by dotted name, with thin wrappers that time every call.  Each
label keeps three aggregates:

- ``calls``: how many times the function was entered;
- ``total_s``: wall seconds inside the outermost activation;
- ``self_s``: ``total_s`` minus the time covered by hooked callees.

Spans nest through one stack.  Entering the tracer installs the hooks
and opens the root span; its frame collects every second no hooked
function covers, so the self times of all labels plus the root's self
time add up to the root's duration — the invariant ``test_perfbench.py``
checks.

Coroutine functions (the admission controller's ``offer`` and
``next_batch``) are timed slice by slice: only the stretches where the
coroutine actually runs count as busy, and the suspended stretches are
kept apart as ``wait_s``.  Between slices other tasks run on the same
stack, so the nesting stays exact on a single-threaded event loop.

A hook whose module, class or attribute no longer exists is reported as
*absent* instead of failing, so the benchmark survives refactors that
delete or rename a hooked function.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["HOOKS", "Hook", "SpanStats", "Tracer"]


@dataclass(frozen=True)
class Hook:
    """One public function to time: ``module:Owner.attr`` or ``module:attr``.

    ``count`` optionally maps the function's return value to a number
    summed into ``SpanStats.counted`` (for example, how many stages a
    task completion released).
    """

    label: str
    target: str
    count: Optional[Callable[[object], float]] = None


def _released(stages) -> float:
    return float(len(stages))


#: the layers, named after the modules they live in
HOOKS: Tuple[Hook, ...] = (
    # scheduler
    Hook("schedulers.schedule", "repro.schedulers.tetris:TetrisScheduler.schedule"),
    Hook("schedulers.candidate_jobs", "repro.schedulers.tetris:TetrisScheduler.candidate_jobs"),
    Hook("schedulers.runnable_jobs", "repro.schedulers.tetris:TetrisScheduler.runnable_jobs"),
    Hook("schedulers.on_job_arrival", "repro.schedulers.tetris:TetrisScheduler.on_job_arrival"),
    Hook("schedulers.on_task_finished", "repro.schedulers.tetris:TetrisScheduler.on_task_finished"),
    Hook("schedulers.on_stage_released", "repro.schedulers.tetris:TetrisScheduler.on_stage_released"),
    Hook("schedulers.prewarm_job", "repro.schedulers.tetris:TetrisScheduler.prewarm_job"),
    Hook("candidates.round_table", "repro.schedulers.candidates:CandidateIndex.round_table"),
    Hook("candidates.packs_for", "repro.schedulers.candidates:CandidateIndex.packs_for"),
    Hook("candidates.fill_packed", "repro.schedulers.candidates:MachineView.fill_packed"),
    # simulator
    Hook("sim.engine", "repro.sim.engine:Engine.run"),
    Hook("sim.fluid.advance", "repro.sim.fluid:FlowTable.advance"),
    Hook("sim.fluid.time_to_next_completion", "repro.sim.fluid:FlowTable.time_to_next_completion"),
    Hook("sim.fluid.add_flow", "repro.sim.fluid:FlowTable.add_flow"),
    Hook("sim.events.push", "repro.sim.events:ArrayEventQueue.push"),
    Hook("sim.events.pop_until", "repro.sim.events:ArrayEventQueue.pop_until"),
    # the engine binds build_flows by name at import: patch that binding
    Hook("sim.runtime.build_flows", "repro.sim.engine:build_flows"),
    # workload
    Hook("workload.note_task_finished", "repro.workload.job:Job.note_task_finished", _released),
    Hook("workload.remote_input_mb", "repro.workload.task:Task.remote_input_mb"),
    # one label for whichever generator a workload uses
    Hook("workload.generate", "repro.workload.tracegen:generate_facebook_trace"),
    Hook("workload.generate", "repro.workload.tracegen:generate_workload_suite"),
    Hook("workload.materialize", "repro.workload.trace:materialize_trace"),
    # cluster
    Hook("cluster.place", "repro.cluster.machine:Machine.place"),
    Hook("cluster.remove", "repro.cluster.machine:Machine.remove"),
    # learned estimation (the oracle estimator is deliberately not hooked)
    Hook("estimation.estimate", "repro.estimation.estimator:ProfilingEstimator.estimate"),
    Hook("estimation.record_completion", "repro.estimation.estimator:ProfilingEstimator.record_completion"),
    Hook("estimation.tracker_report", "repro.estimation.tracker:ResourceTracker.report"),
    Hook("estimation.tracker_available", "repro.estimation.tracker:ResourceTracker.available"),
    # metrics collector
    Hook("metrics.maybe_sample", "repro.metrics.collector:MetricsCollector.maybe_sample"),
    # streaming service
    Hook("serve.offer", "repro.serve.admission:AdmissionController.offer"),
    Hook("serve.next_batch", "repro.serve.admission:AdmissionController.next_batch"),
    Hook("serve.add_job", "repro.sim.engine:Engine.add_job"),
    Hook("serve.run_until", "repro.sim.engine:Engine.run_until"),
    # the service calls verify_free_vectors through its module globals
    Hook("serve.verify_free_vectors", "repro.serve.service:verify_free_vectors"),
)


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    #: suspended time of a coroutine span (0 for plain functions)
    wait_s: float = 0.0
    counted: float = 0.0
    #: activations currently open; total_s is only added at depth 0
    depth: int = 0


def _resolve(target: str):
    """(owner, attribute name) for ``module:Owner.attr``; raises
    ImportError/AttributeError when any part is gone."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    getattr(owner, attr)  # the function itself must exist
    return owner, attr


class Tracer:
    """Installs :data:`HOOKS` and times a root span while entered."""

    def __init__(self, hooks: Tuple[Hook, ...] = HOOKS):
        self.hooks = hooks
        #: hooks sharing a label share one aggregate
        self.stats: Dict[str, SpanStats] = {h.label: SpanStats() for h in hooks}
        self.absent: List[str] = []
        #: child-time accumulators; index 0 is the root frame
        self._stack: List[float] = [0.0]
        self._patched: List[Tuple[object, str, object]] = []
        self.root_s = 0.0
        self._root_start = 0.0

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        for hook in self.hooks:
            try:
                owner, attr = _resolve(hook.target)
            except (ImportError, AttributeError):
                self.absent.append(hook.target)
                continue
            # an inherited attribute is shadowed, then deleted on exit
            own = vars(owner).get(attr)
            func = getattr(owner, attr)
            stat = self.stats[hook.label]
            if inspect.iscoroutinefunction(func):
                wrapped = self._wrap_async(func, stat)
            else:
                wrapped = self._wrap_sync(func, stat, hook.count)
            setattr(owner, attr, wrapped)
            self._patched.append((owner, attr, own))

    def uninstall(self) -> None:
        for owner, attr, own in reversed(self._patched):
            if own is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        """Install the hooks and start the root span."""
        self.install()
        self._root_start = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.root_s += perf_counter() - self._root_start
        self.uninstall()

    @property
    def root_self_s(self) -> float:
        """Root time no hooked function covered: the root's duration
        minus the spans opened directly under it."""
        return self.root_s - self._stack[0]

    # -- wrappers -------------------------------------------------------------
    def _wrap_sync(self, func, stat: SpanStats, count):
        stack = self._stack

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            stat.depth += 1
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = stack.pop()
                stack[-1] += elapsed
                stat.depth -= 1
                stat.calls += 1
                stat.self_s += elapsed - children
                if stat.depth == 0:
                    stat.total_s += elapsed
            if count is not None:
                stat.counted += count(result)
            return result

        return wrapper

    def _wrap_async(self, func, stat: SpanStats):
        tracer = self

        @functools.wraps(func)
        async def wrapper(*args, **kwargs):
            stat.calls += 1
            start = perf_counter()
            busy = _Sliced(func(*args, **kwargs), tracer._stack, stat)
            try:
                return await busy
            finally:
                stat.wait_s += perf_counter() - start - busy.elapsed

        return wrapper


class _Sliced:
    """Drives a coroutine, timing each synchronous slice as one span."""

    def __init__(self, coro, stack: List[float], stat: SpanStats):
        self.coro = coro
        self.stack = stack
        self.stat = stat
        self.elapsed = 0.0

    def _slice(self, step, arg):
        stack, stat = self.stack, self.stat
        stack.append(0.0)
        start = perf_counter()
        try:
            return step(arg)
        finally:
            elapsed = perf_counter() - start
            children = stack.pop()
            stack[-1] += elapsed
            self.elapsed += elapsed
            stat.self_s += elapsed - children
            stat.total_s += elapsed

    def __await__(self):
        step, arg = self.coro.send, None
        while True:
            try:
                yielded = self._slice(step, arg)
            except StopIteration as stop:
                return stop.value
            try:
                arg = yield yielded
                step = self.coro.send
            except BaseException as exc:  # re-raised into the coroutine
                step, arg = self.coro.throw, exc

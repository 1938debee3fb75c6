"""The benchmark's workloads, and one repeat of each.

Every workload starts from a fixed *job population* made by the public
trace generators with a pinned generator seed.  The run's ``--seed``
then draws everything else: the order the jobs arrive in, their arrival
times (stratified uniform over the horizon), the within-stage demand
jitter and block-replica placement at materialization, and the engine's
shuffle-source choices.  Holding the population fixed keeps the job mix
the same across seeds — with freshly generated Facebook-style traces,
mean JCT and run time move by tens of percent from seed to seed, which
no run-to-run bound could absorb.

A repeat builds the workload (timed as set-up), runs it through the
public API (timed), and then checks the outcome outside any timing.
Two probes are installed on the scheduler *instance* in every repeat:
one stamps each job's first placement, the other (batch only) stamps
when the engine hands the scheduler a job's arrival.  Both are one
Python call per round or per job.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import gc
import hashlib
import math
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional

import numpy as np

import repro.workload.trace as trace_mod
import repro.workload.tracegen as tracegen
from repro.analysis.model import audit_engine
from repro.cluster.cluster import Cluster
from repro.estimation.estimator import ProfilingEstimator
from repro.estimation.tracker import ResourceTracker
from repro.schedulers.tetris import TetrisConfig, TetrisScheduler
from repro.serve.service import SchedulerService, verify_free_vectors
from repro.sim.engine import Engine, EngineConfig

from perfbench.openloop import OpenLoopSource

__all__ = ["WORKLOADS", "Workload", "Repeat", "run_repeat", "build", "percentile"]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: "facebook" or "suite": which public generator makes the population
    generator: str
    population: object
    machines: int
    #: simulated seconds the arrivals are spread over
    horizon: float
    #: ResourceTracker on and ProfilingEstimator (the deployed setup)
    learned: bool = False
    #: open-loop time compression; None runs the batch engine
    speedup: Optional[float] = None


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="backlog-xl",
            why="Facebook-style burst on 1000 machines, oracle estimates: "
            "every scheduler cache is live and schedule() dominates",
            generator="facebook",
            population=tracegen.FacebookTraceConfig(
                num_jobs=200, max_map_tasks=200, seed=17
            ),
            machines=1000,
            horizon=400.0,
        ),
        Workload(
            name="learned-tracked",
            why="tracker plus learned estimates: completions flush the "
            "candidate index and the prefilter is off; only estimation user",
            generator="facebook",
            population=tracegen.FacebookTraceConfig(
                num_jobs=80, max_map_tasks=200, seed=11
            ),
            machines=200,
            horizon=150.0,
            learned=True,
        ),
        Workload(
            name="suite-stream",
            why="Section 5.2 suite streamed open-loop through the service "
            "at half its sustainable rate: the only serve-layer workload",
            generator="suite",
            population=tracegen.WorkloadSuiteConfig(
                num_jobs=200, task_scale=0.02, seed=5
            ),
            machines=50,
            horizon=2500.0,
            speedup=600.0,
        ),
    )
}


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); copes with inf."""
    if not values:
        return math.nan
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def _population(workload: Workload):
    # looked up through the module so a traced run sees the call
    if workload.generator == "facebook":
        return tracegen.generate_facebook_trace(workload.population)
    return tracegen.generate_workload_suite(workload.population)


def _draw(population, horizon: float, rng: np.random.Generator):
    """Shuffle the population and give it stratified arrival times."""
    n = len(population)
    times = (np.arange(n) + rng.uniform(size=n)) * (horizon / n)
    order = rng.permutation(n)
    return [
        dataclasses.replace(population[j], arrival_time=float(t))
        for j, t in zip(order, times)
    ]


@dataclass
class Built:
    """A workload ready to run: the engine, plus the service if streamed."""

    jobs: list
    engine: Engine
    service: Optional[SchedulerService] = None
    source: Optional[OpenLoopSource] = None


def build(workload: Workload, seed: int, max_jobs: Optional[int] = None) -> Built:
    """Generate, draw and materialize the inputs; construct the engine
    (and the service).  ``max_jobs`` shrinks the workload for warm-up."""
    population = _population(workload)
    horizon = workload.horizon
    if max_jobs is not None and max_jobs < len(population):
        horizon *= max_jobs / len(population)
        population = population[:max_jobs]
    trace = _draw(population, horizon, np.random.default_rng(seed))
    cluster = Cluster(workload.machines, seed=seed)
    jobs = trace_mod.materialize_trace(trace, cluster, seed=seed)
    tracker = ResourceTracker(cluster) if workload.learned else None
    estimator = ProfilingEstimator() if workload.learned else None
    scheduler = TetrisScheduler(TetrisConfig())
    streamed = workload.speedup is not None
    engine = Engine(
        cluster,
        scheduler,
        [] if streamed else jobs,
        estimator=estimator,
        tracker=tracker,
        config=EngineConfig(seed=seed),
    )
    if not streamed:
        return Built(jobs, engine)
    source = OpenLoopSource(jobs, workload.speedup)
    return Built(jobs, engine, SchedulerService(engine, source), source)


@dataclass
class Repeat:
    """What one repeat measured, and what its checks found."""

    setup_s: float
    drive_s: float
    placements: int
    round_s: List[float]
    machines_visited: int
    first_placement_ms: List[float]
    mean_jct_s: float
    makespan_s: float
    digest: str
    jobs: int
    unfinished: int
    gen_late_ms: List[float] = field(default_factory=list)
    queue_depth_peak: int = 0
    fluid_stats: Dict[str, int] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)
    #: which of the run's workload draws this repeat ran
    draw: int = 0

    @property
    def placements_per_s(self) -> float:
        return self.placements / self.drive_s


def _probe_scheduler(scheduler, first: Dict[str, float], arrived: Dict[str, float]):
    """Stamp first placements (and, when ``arrived`` is given, arrivals)
    on the scheduler instance, in host seconds."""
    schedule = scheduler.schedule

    def probed_schedule(*args, **kwargs):
        placements = schedule(*args, **kwargs)
        if placements:
            now = perf_counter()
            for placement in placements:
                first.setdefault(placement.task.job.name, now)
        return placements

    scheduler.schedule = probed_schedule
    if arrived is None:
        return
    on_job_arrival = scheduler.on_job_arrival

    def probed_arrival(job, time):
        arrived[job.name] = perf_counter()
        return on_job_arrival(job, time)

    scheduler.on_job_arrival = probed_arrival


def _drive_timer(engine: Engine, total: List[float]) -> None:
    """Sum the host time spent inside ``engine.run_until`` calls."""
    run_until = engine.run_until

    def timed(*args, **kwargs):
        start = perf_counter()
        try:
            return run_until(*args, **kwargs)
        finally:
            total[0] += perf_counter() - start

    engine.run_until = timed


def digest(engine: Engine) -> str:
    """Hash of every placement: job/stage/task, machine, simulated time."""
    h = hashlib.sha256()
    for task, machine_id, time, _booked in engine.placement_log:
        h.update(
            f"{task.job.name}/{task.stage.name}/{task.index}"
            f"@{machine_id}:{time!r};".encode()
        )
    return h.hexdigest()


def run_repeat(
    workload: Workload, seed: int, max_jobs: Optional[int] = None, tracer=None
) -> Repeat:
    """Build, run and check one repeat.

    A ``tracer`` (:class:`perfbench.tracer.Tracer`) is entered around
    the timed part — set-up and run — so it is the traced run's root
    span.  The checks always run outside it, with the hooks removed.
    """
    # collect the previous repeat's garbage now rather than mid-run
    gc.collect()
    first: Dict[str, float] = {}
    streamed = workload.speedup is not None
    arrived: Optional[Dict[str, float]] = None if streamed else {}
    drive = [0.0]
    with tracer if tracer is not None else contextlib.nullcontext():
        start = perf_counter()
        built = build(workload, seed, max_jobs)
        setup_s = perf_counter() - start
        engine = built.engine
        _probe_scheduler(engine.scheduler, first, arrived)
        if streamed:
            _drive_timer(engine, drive)
            report = asyncio.run(built.service.serve())
        else:
            start = perf_counter()
            engine.run()
            drive[0] = perf_counter() - start
    due = built.source.due if streamed else arrived
    return Repeat(
        setup_s=setup_s,
        drive_s=drive[0],
        placements=engine.num_placements,
        round_s=[entry[3] for entry in engine.round_log],
        machines_visited=sum(entry[1] for entry in engine.round_log),
        first_placement_ms=[
            (first[job.name] - due[job.name]) * 1e3
            if job.name in first and job.name in due
            else math.inf
            for job in built.jobs
        ],
        mean_jct_s=engine.collector.mean_jct(),
        makespan_s=engine.collector.makespan(),
        digest=digest(engine),
        jobs=len(built.jobs),
        unfinished=sum(1 for job in built.jobs if not job.is_finished),
        gen_late_ms=[s * 1e3 for s in built.source.late_s] if streamed else [],
        queue_depth_peak=(
            built.service.admission.stats.peak_depth if streamed else 0
        ),
        fluid_stats=dict(getattr(engine.flows, "stats", {})),
        problems=_check(built, report if streamed else None),
    )


def _check(built: Built, report) -> List[str]:
    """Correctness of one finished repeat; empty means clean."""
    problems: List[str] = []
    engine = built.engine
    audit = audit_engine(engine)
    if not audit.ok:
        problems.append(f"audit: {len(audit)} Section 3.1 violations")
    issues = verify_free_vectors(engine.cluster)
    if issues:
        problems.append(f"free vectors: {len(issues)} machines drifted")
    unfinished = sum(1 for job in built.jobs if not job.is_finished)
    if unfinished:
        problems.append(f"{unfinished} jobs unfinished")
    if report is not None:
        n = len(built.jobs)
        counts = (report.jobs_offered, report.jobs_committed, report.jobs_finished)
        if counts != (n, n, n):
            problems.append(
                f"stream: offered/committed/finished {counts} != {n} each"
            )
        if report.invariant_violations:
            problems.append(
                f"stream: {report.invariant_violations} invariant violations"
            )
    return problems

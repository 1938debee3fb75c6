"""Job-arrival sources for the streaming scheduler service.

A source is an async iterator of :class:`Arrival` records in
nondecreasing *event time* (the simulated arrival instant).  Wall-clock
pacing is the source's business: a replay source sleeps between arrivals
to reproduce the trace's arrival process at a configurable time
compression, on an absolute schedule (arrival *i* is due at ``start +
(t_i - t_0) / speedup`` on the event-loop clock), while ``speedup=0``
(the default) yields arrivals as fast as the consumer can take them —
the mode used for throughput replays and for the bit-identity property
test against the batch engine.

Ordering contract: arrivals must be yielded stable-sorted by event time.
The service's watermark discipline (advance the engine strictly below
the latest committed arrival time) relies on it, and the stable order
among equal-time arrivals is what keeps the streamed event sequence
bit-identical to the batch engine's primed one.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import AsyncIterator, List, Optional, Sequence

from repro.resources import DEFAULT_MODEL
from repro.workload.job import Job
from repro.workload.stage import Stage
from repro.workload.task import Task, TaskWork

__all__ = ["Arrival", "JobSource", "TraceReplaySource", "SyntheticSource"]


@dataclass(frozen=True)
class Arrival:
    """One job arriving at simulated time ``time`` (== ``job.arrival_time``)."""

    job: Job
    time: float


class JobSource:
    """Base class: an ordered, optionally wall-paced stream of arrivals."""

    #: total jobs this source will yield, when known in advance (None for
    #: unbounded generators)
    total_jobs: Optional[int] = None

    def arrivals(self) -> AsyncIterator[Arrival]:
        raise NotImplementedError


async def _sleep_until(loop: asyncio.AbstractEventLoop, due: float) -> None:
    """Sleep until loop time ``due``; no-op when it has already passed.

    Paced sources aim every arrival at an absolute instant, ``start +
    (t_i - t_0) / speedup`` on the loop clock, so an oversleep or a slow
    consumer delays only the arrivals already due, never the schedule:
    lateness does not accumulate (a chain of relative sleeps would add
    each overshoot to every later arrival).
    """
    delay = due - loop.time()
    if delay > 0:
        await asyncio.sleep(delay)


class TraceReplaySource(JobSource):
    """Replay materialized jobs at their trace arrival times.

    ``speedup`` compresses time: ``speedup=60`` replays one simulated
    minute per wall second; ``speedup=0`` (or ``None``) disables pacing
    entirely and yields arrivals back-to-back.  Jobs are yielded
    stable-sorted by arrival time, so a trace whose records are not
    time-ordered still satisfies the source ordering contract while
    equal-time jobs keep their trace order (the batch engine's
    tie-break).
    """

    def __init__(self, jobs: Sequence[Job], speedup: float = 0.0):
        if speedup < 0:
            raise ValueError(f"speedup must be non-negative, got {speedup}")
        self._jobs: List[Job] = sorted(jobs, key=lambda j: j.arrival_time)
        self.speedup = speedup
        self.total_jobs = len(self._jobs)

    async def arrivals(self) -> AsyncIterator[Arrival]:
        loop = asyncio.get_running_loop()
        start = loop.time()
        t0 = self._jobs[0].arrival_time if self._jobs else 0.0
        for job in self._jobs:
            if self.speedup > 0:
                await _sleep_until(
                    loop, start + (job.arrival_time - t0) / self.speedup
                )
            yield Arrival(job, job.arrival_time)


class SyntheticSource(JobSource):
    """Generate a continuous stream of single-stage compute jobs.

    The generator drip-feeds ``num_jobs`` jobs, one every
    ``interarrival`` simulated seconds, each with ``tasks_per_job``
    identical pure-compute tasks (no inputs, so building a job touches
    no cluster state — generation stays strictly tentative until the
    service commits it).  ``speedup`` paces wall-clock delivery exactly
    as in :class:`TraceReplaySource`.
    """

    def __init__(
        self,
        num_jobs: int,
        tasks_per_job: int = 10,
        interarrival: float = 1.0,
        cpu: float = 2.0,
        mem: float = 4.0,
        cpu_work: float = 6.0,
        start_time: float = 0.0,
        name_prefix: str = "gen",
        speedup: float = 0.0,
    ):
        if num_jobs < 0:
            raise ValueError("num_jobs must be non-negative")
        if interarrival < 0:
            raise ValueError("interarrival must be non-negative")
        if speedup < 0:
            raise ValueError(f"speedup must be non-negative, got {speedup}")
        self.num_jobs = num_jobs
        self.tasks_per_job = tasks_per_job
        self.interarrival = interarrival
        self.cpu = cpu
        self.mem = mem
        self.cpu_work = cpu_work
        self.start_time = start_time
        self.name_prefix = name_prefix
        self.speedup = speedup
        self.total_jobs = num_jobs

    def _make_job(self, index: int) -> Job:
        tasks = [
            Task(
                DEFAULT_MODEL.vector(cpu=self.cpu, mem=self.mem),
                TaskWork(cpu_core_seconds=self.cpu_work),
            )
            for _ in range(self.tasks_per_job)
        ]
        return Job(
            [Stage("work", tasks)],
            arrival_time=self.start_time + index * self.interarrival,
            name=f"{self.name_prefix}-{index}",
        )

    async def arrivals(self) -> AsyncIterator[Arrival]:
        loop = asyncio.get_running_loop()
        start = loop.time()
        for index in range(self.num_jobs):
            if self.speedup > 0:
                await _sleep_until(
                    loop, start + index * self.interarrival / self.speedup
                )
            job = self._make_job(index)
            yield Arrival(job, job.arrival_time)

"""An open-loop arrival generator paced on an absolute schedule.

Arrival ``i`` is due at ``start + (t_i - t_0) / speedup`` host seconds,
where ``t_i`` is its simulated arrival time and ``start`` is the moment
the service first pulls from the source.  The generator sleeps until
each due time and never waits for the system: a stalled consumer only
makes later arrivals late, it does not push the schedule back.  Because
every sleep targets an absolute instant, lateness does not accumulate
across arrivals (a chain of relative sleeps would add each oversleep to
every later arrival).

The generator records, per job, when it was due (``due``) and how late
it was actually offered (``late_s``), so latencies can be measured from
the due time and the generator's own lateness reported.
"""

from __future__ import annotations

import asyncio
from time import perf_counter
from typing import AsyncIterator, Callable, Dict, List, Sequence

from repro.serve.sources import Arrival, JobSource

__all__ = ["OpenLoopSource"]


class OpenLoopSource(JobSource):
    def __init__(
        self,
        jobs: Sequence,
        speedup: float,
        clock: Callable[[], float] = perf_counter,
    ):
        if speedup <= 0:
            raise ValueError(f"speedup must be positive, got {speedup}")
        self._jobs = sorted(jobs, key=lambda job: job.arrival_time)
        self.speedup = speedup
        self.total_jobs = len(self._jobs)
        self._clock = clock
        #: job name -> host time the arrival was due
        self.due: Dict[str, float] = {}
        #: host seconds each arrival was offered after its due time
        self.late_s: List[float] = []

    async def arrivals(self) -> AsyncIterator[Arrival]:
        if not self._jobs:
            return
        clock = self._clock
        start = clock()
        t0 = self._jobs[0].arrival_time
        for job in self._jobs:
            due = start + (job.arrival_time - t0) / self.speedup
            self.due[job.name] = due
            delay = due - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            self.late_s.append(max(clock() - due, 0.0))
            yield Arrival(job, job.arrival_time)

"""The resource tracker (Sections 4.1 and 4.3).

A tracker process on every node observes aggregate usage from OS counters
and reports periodically to the cluster-wide resource manager.  This lets
the scheduler:

- reclaim resources idled by over-estimates,
- steer around unforeseen hotspots and *non-job* activity (ingestion,
  evacuation) that never appears in its own allocation ledger.

To avoid reclaiming resources that a freshly-placed task has not ramped up
to yet, the report inflates observed usage with a per-task allowance that
decays linearly over ``ramp_seconds`` (the paper uses 10 s).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, TYPE_CHECKING

import numpy as np

from repro.resources import ResourceVector

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import Cluster
    from repro.cluster.machine import Machine
    from repro.obs.registry import Registry
    from repro.sim.fluid import FlowTable
    from repro.workload.task import Task

__all__ = ["ResourceTracker", "TrackerConfig"]


@dataclass(frozen=True)
class TrackerConfig:
    """Tracker parameters."""

    report_period: float = 2.0
    ramp_seconds: float = 10.0


def _grown(array: np.ndarray, size: int) -> np.ndarray:
    """``array`` zero-padded along its first axis to ``size`` rows."""
    out = np.zeros((size,) + array.shape[1:], dtype=array.dtype)
    out[: array.shape[0]] = array
    return out


class ResourceTracker:
    """Cluster-wide aggregation of per-node usage reports.

    The scheduler-facing view is a row-cached ``(machines, dims)``
    availability matrix, kept on the pattern of the cluster state's
    clamped free matrix: ``note_placement``/``note_completion`` mark one
    machine's row stale, ``report`` marks every row stale, and
    :meth:`available_matrix` recomputes only the stale rows.  Between
    those calls nothing the view depends on moves (a scheduling round
    only proposes placements; the engine commits them afterwards), so
    the matrix is constant for a whole round.
    """

    def __init__(self, cluster: "Cluster", config: Optional[TrackerConfig] = None):
        self.cluster = cluster
        self.config = config if config is not None else TrackerConfig()
        self.last_report_time: float = 0.0
        num = cluster.state.num_machines
        dims = cluster.model.dims
        #: task_id -> slot in the live-placement arrays below; a slot's
        #: ``_seq`` is the task's position in insertion order, kept when
        #: a live task is noted again (dict semantics)
        self._placements: Dict[int, int] = {}
        self._time = np.zeros(0)
        self._machine = np.zeros(0, dtype=np.intp)
        self._seq = np.zeros(0, dtype=np.int64)
        self._booked = np.zeros((0, dims))
        self._live = np.zeros(0, dtype=bool)
        self._free_slots: List[int] = []
        self._num_slots = 0
        self._next_seq = 0
        #: cached availability rows (valid where ``_stale`` is False)
        self._avail = np.zeros((num, dims))
        self._stale = np.ones(num, dtype=bool)
        self._any_stale = True
        #: optional metrics (set by use_metrics); None costs nothing
        self._m_reports = None
        self._m_tracked = None

    def use_metrics(self, registry: "Registry") -> None:
        """Register this tracker's metrics in ``registry``."""
        self._m_reports = registry.counter(
            "repro_tracker_reports_total",
            "Cluster-wide tracker report rounds",
        )
        self._m_tracked = registry.gauge(
            "repro_tracker_tracked_placements",
            "Live placements the tracker holds ramp-up state for",
        )

    def _mark_stale(self, row: int) -> None:
        self._stale[row] = True
        self._any_stale = True

    def _new_slot(self) -> int:
        if self._free_slots:
            return self._free_slots.pop()
        slot = self._num_slots
        if slot == self._time.size:
            size = max(16, 2 * slot)
            self._time = _grown(self._time, size)
            self._machine = _grown(self._machine, size)
            self._seq = _grown(self._seq, size)
            self._booked = _grown(self._booked, size)
            self._live = _grown(self._live, size)
        self._num_slots += 1
        return slot

    # -- engine callbacks -----------------------------------------------------
    def note_placement(
        self, task: "Task", machine_id: int, booked: ResourceVector, time: float
    ) -> None:
        slot = self._placements.get(task.task_id)
        if slot is None:
            slot = self._new_slot()
            self._placements[task.task_id] = slot
            self._seq[slot] = self._next_seq
            self._next_seq += 1
            self._live[slot] = True
        else:
            self._mark_stale(int(self._machine[slot]))
        self._time[slot] = time
        self._machine[slot] = machine_id
        self._booked[slot] = booked.data
        self._mark_stale(machine_id)

    def note_completion(self, task: "Task") -> None:
        slot = self._placements.pop(task.task_id, None)
        if slot is None:
            return
        self._live[slot] = False
        self._free_slots.append(slot)
        self._mark_stale(int(self._machine[slot]))

    def report(self, time: float, flows: "FlowTable") -> None:
        """Refresh every machine's ``observed_usage`` from ground truth.

        Rigid dimensions come from the machines' true allocations; fluid
        dimensions from the flow table's achieved throughput — which is
        what OS counters would show.  The whole refresh is three matrix
        assignments into the cluster state plane's ``observed`` matrix;
        each machine's ``observed_usage`` vector is a view over its row,
        so the per-machine objects see the report with no rebinding.
        Every availability row goes stale (observed usage and the ramp
        clock both moved).
        """
        self.last_report_time = time
        if self._m_reports is not None:
            self._m_reports.inc()
            self._m_tracked.set(len(self._placements))
        throughput = flows.slot_throughput()
        fluid_names = flows.fluid_dim_names()
        model = self.cluster.model
        state = self.cluster.state
        observed = state.observed
        observed[:] = 0.0
        rigid = model.rigid_mask
        observed[:, rigid] = state.allocated[:, rigid]
        for k, name in enumerate(fluid_names):
            observed[:, model.index[name]] = throughput[:, k]
        self._stale[:] = True
        self._any_stale = True

    # -- the availability rows ------------------------------------------------
    def _allowance_rows(self, rows: np.ndarray, time: float) -> np.ndarray:
        """Ramp allowances of machines ``rows`` at ``time``, one row each.

        Each machine's allowance is the running sum, in insertion order,
        of ``booked * (1 - age / ramp)`` over its placements younger than
        the ramp.  The sum runs rank by rank (every machine's first term,
        then every machine's second, ...), so each row sees exactly the
        float additions of a per-placement loop.
        """
        allow = np.zeros((rows.size, self._booked.shape[1]))
        ramp = self.config.ramp_seconds
        if ramp <= 0 or not self._placements:
            return allow
        owner_of = np.full(self._stale.size, -1, dtype=np.intp)
        owner_of[rows] = np.arange(rows.size)
        machine = self._machine
        age = time - self._time
        sel = np.flatnonzero(
            self._live & (owner_of[machine] >= 0) & (age < ramp)
        )
        if sel.size == 0:
            return allow
        sel = sel[np.lexsort((self._seq[sel], machine[sel]))]
        owner = owner_of[machine[sel]]
        terms = self._booked[sel] * (1.0 - age[sel] / ramp)[:, None]
        starts = np.flatnonzero(np.r_[True, owner[1:] != owner[:-1]])
        rank = np.arange(sel.size) - np.repeat(
            starts, np.diff(np.r_[starts, sel.size])
        )
        by_rank = np.argsort(rank, kind="stable")
        lo = 0
        for count in np.bincount(rank).tolist():
            k = by_rank[lo:lo + count]
            allow[owner[k]] += terms[k]
            lo += count
        return allow

    def _available_rows(self, rows: np.ndarray, time: float) -> np.ndarray:
        """Uncached availability of machines ``rows`` at ``time``:
        observed + allowance, at least the booked allocation on rigid
        dimensions, subtracted from capacity and clamped at zero."""
        state = self.cluster.state
        rigid = self.cluster.model.rigid_mask
        used = state.observed[rows] + self._allowance_rows(rows, time)
        used[:, rigid] = np.maximum(
            used[:, rigid], state.allocated[rows][:, rigid]
        )
        avail = state.capacity[rows] - used
        np.maximum(avail, 0.0, out=avail)
        return avail

    def available_matrix(self) -> np.ndarray:
        """The ``(machines, dims)`` availability matrix at the last
        report time, stale rows recomputed.  Shared storage — callers
        must not mutate it."""
        if self._any_stale:
            rows = np.flatnonzero(self._stale)
            self._avail[rows] = self._available_rows(
                rows, self.last_report_time
            )
            self._stale[rows] = False
            self._any_stale = False
        return self._avail

    def check_available(self) -> None:
        """Invariant: every cached availability row equals a fresh
        recomputation (a missed stale mark shows up here)."""
        cached = self.available_matrix()
        fresh = self._available_rows(
            np.arange(self._stale.size), self.last_report_time
        )
        bad = np.flatnonzero((cached != fresh).any(axis=1))
        if bad.size:
            raise AssertionError(
                f"tracker availability rows {bad.tolist()} are stale: "
                "the cached view differs from a recomputation"
            )

    # -- scheduler-facing view ---------------------------------------------------
    def ramp_allowance(self, machine: "Machine", time: float) -> ResourceVector:
        """Usage headroom still owed to freshly-placed tasks."""
        rows = np.array([machine.row])
        return ResourceVector(
            machine.capacity.model, self._allowance_rows(rows, time)[0]
        )

    def available(
        self, machine: "Machine", time: Optional[float] = None
    ) -> ResourceVector:
        """Free resources as the scheduler should see them.

        Rigid dimensions (memory) always count the full booked peak — a
        task's memory cannot be reclaimed without risking thrashing.  For
        fluid dimensions (CPU, disk, network rates) the tracker reports
        *observed* usage plus a ramp-up allowance for freshly-placed
        tasks.  This both reclaims head-room idled by over-estimates
        (booked > observed: Section 4.1, "the tracker reports unused
        resources and allocates them to new tasks") and charges for load
        the scheduler never booked (ingestion, misbehaving tasks:
        observed > booked — the Figure 6 mechanism).

        Without ``time`` this is a copy of the machine's cached row; an
        explicit ``time`` recomputes the row uncached.
        """
        if time is None:
            row = self.available_matrix()[machine.row].copy()
        else:
            row = self._available_rows(np.array([machine.row]), time)[0]
        return ResourceVector(machine.capacity.model, row)

"""Resource tracker tests (Sections 4.1 and 4.3)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.cluster import Cluster
from repro.estimation.estimator import ProfilingEstimator
from repro.estimation.tracker import ResourceTracker, TrackerConfig
from repro.federation import FederatedScheduler, FederationConfig
from repro.obs.trace import DecisionTrace
from repro.resources import DEFAULT_MODEL, ResourceVector
from repro.schedulers.tetris import TetrisConfig, TetrisScheduler
from repro.sim.engine import Engine, EngineConfig
from repro.sim.fluid import FlowSpec, FlowTable
from repro.workload.trace import materialize_trace
from repro.workload.tracegen import WorkloadSuiteConfig, generate_workload_suite

from conftest import make_task


@pytest.fixture
def cluster():
    return Cluster(2, machines_per_rack=2)


@pytest.fixture
def flows(cluster):
    return FlowTable(
        cluster.model, [m.capacity.data for m in cluster.machines]
    )


class TestReports:
    def test_observed_usage_reflects_flows(self, cluster, flows):
        flows.add_flow(
            FlowSpec(work=1000, nominal_rate=80, slots=((0, "diskw"),))
        )
        tracker = ResourceTracker(cluster)
        tracker.report(10.0, flows)
        assert cluster.machine(0).observed_usage.get("diskw") == pytest.approx(80)
        assert cluster.machine(1).observed_usage.get("diskw") == 0.0

    def test_rigid_usage_from_allocation(self, cluster, flows):
        cluster.machine(0).place(make_task(mem=10))
        tracker = ResourceTracker(cluster)
        tracker.report(0.0, flows)
        assert cluster.machine(0).observed_usage.get("mem") == 10


class TestRampAllowance:
    def test_allowance_decays_linearly(self, cluster):
        tracker = ResourceTracker(
            cluster, TrackerConfig(ramp_seconds=10.0)
        )
        task = make_task(cpu=4)
        booked = DEFAULT_MODEL.vector(cpu=4)
        tracker.note_placement(task, 0, booked, time=0.0)
        machine = cluster.machine(0)
        assert tracker.ramp_allowance(machine, 0.0).get("cpu") == pytest.approx(4)
        assert tracker.ramp_allowance(machine, 5.0).get("cpu") == pytest.approx(2)
        assert tracker.ramp_allowance(machine, 10.0).get("cpu") == 0.0

    def test_completion_clears_allowance(self, cluster):
        tracker = ResourceTracker(cluster)
        task = make_task(cpu=4)
        tracker.note_placement(task, 0, DEFAULT_MODEL.vector(cpu=4), 0.0)
        tracker.note_completion(task)
        assert tracker.ramp_allowance(cluster.machine(0), 0.0).is_zero()

    def test_allowance_scoped_to_machine(self, cluster):
        tracker = ResourceTracker(cluster)
        tracker.note_placement(make_task(), 1, DEFAULT_MODEL.vector(cpu=4), 0.0)
        assert tracker.ramp_allowance(cluster.machine(0), 0.0).is_zero()


class TestAvailability:
    def test_overestimate_reclaimed(self, cluster, flows):
        """Booked 8 cores but the task only burns 2: after the ramp
        window the tracker reclaims the idle 6 (Section 4.1 — unused
        resources are reported and re-allocated to new tasks)."""
        machine = cluster.machine(0)
        task = make_task(cpu=8)
        machine.place(task, DEFAULT_MODEL.vector(cpu=8))
        flows.add_flow(
            FlowSpec(work=1000, nominal_rate=2, slots=((0, "cpu"),))
        )
        tracker = ResourceTracker(cluster, TrackerConfig(ramp_seconds=0.0))
        tracker.report(100.0, flows)
        avail = tracker.available(machine, time=100.0)
        assert avail.get("cpu") == pytest.approx(16 - 2)

    def test_booked_memory_never_reclaimed(self, cluster, flows):
        """Peak memory stays reserved for the task's lifetime — giving a
        task less than its peak risks thrashing (Section 3.1)."""
        machine = cluster.machine(0)
        task = make_task(mem=10)
        machine.place(task, DEFAULT_MODEL.vector(mem=10))
        tracker = ResourceTracker(cluster, TrackerConfig(ramp_seconds=0.0))
        tracker.report(100.0, flows)
        # observed memory is the allocation itself; available excludes it
        avail = tracker.available(machine, time=100.0)
        assert avail.get("mem") == pytest.approx(48 - 10)

    def test_unbooked_activity_shrinks_availability(self, cluster, flows):
        """Ingestion consumes disk the scheduler never booked; the
        tracker makes the scheduler see it (Figure 6 mechanism)."""
        flows.add_flow(
            FlowSpec(work=100000, nominal_rate=150, slots=((0, "diskw"),))
        )
        tracker = ResourceTracker(cluster, TrackerConfig(ramp_seconds=0.0))
        tracker.report(5.0, flows)
        avail = tracker.available(cluster.machine(0), time=5.0)
        assert avail.get("diskw") == pytest.approx(200 - 150)

    def test_availability_never_negative(self, cluster, flows):
        flows.add_flow(
            FlowSpec(work=1e6, nominal_rate=500, slots=((0, "diskw"),))
        )
        flows.add_flow(
            FlowSpec(work=1e6, nominal_rate=500, slots=((0, "diskw"),))
        )
        tracker = ResourceTracker(cluster, TrackerConfig(ramp_seconds=0.0))
        tracker.report(1.0, flows)
        avail = tracker.available(cluster.machine(0), time=1.0)
        assert avail.is_nonnegative()

    def test_ramp_blocks_premature_reclaim(self, cluster, flows):
        machine = cluster.machine(0)
        task = make_task(diskw=100)
        machine.place(task, DEFAULT_MODEL.vector(diskw=100))
        tracker = ResourceTracker(cluster, TrackerConfig(ramp_seconds=10.0))
        tracker.note_placement(task, 0, DEFAULT_MODEL.vector(diskw=100), 0.0)
        tracker.report(1.0, flows)  # task has no flows yet: observed 0
        avail = tracker.available(machine, time=1.0)
        # the decayed allowance (90% of the booking at age 1s of 10s)
        # still protects the fresh task's booking from being reclaimed
        assert avail.get("diskw") == pytest.approx(200 - 90)


# -- the cached availability plane vs the per-placement loop -----------------

class _LoopTracker:
    """The tracker's original availability computation: one Python loop
    over every live placement per machine query, kept here as the
    oracle for the row-cached matrix."""

    def __init__(self, ramp):
        self.ramp = ramp
        self.placements = {}

    def note_placement(self, task, machine_id, booked, time):
        self.placements[task.task_id] = (time, machine_id, booked)

    def note_completion(self, task):
        self.placements.pop(task.task_id, None)

    def ramp_allowance(self, machine, time):
        allowance = ResourceVector.zeros_like(machine.capacity)
        if self.ramp <= 0:
            return allowance
        for placed_time, machine_id, booked in self.placements.values():
            if machine_id != machine.machine_id:
                continue
            age = time - placed_time
            if age < self.ramp:
                allowance.add_inplace(booked * (1.0 - age / self.ramp))
        return allowance

    def available(self, machine, time):
        model = machine.capacity.model
        used = machine.observed_usage + self.ramp_allowance(machine, time)
        for name, fluid in zip(model.names, model.fluid_mask):
            if not fluid:
                used.set(
                    name,
                    max(used.get(name), machine.allocated.get(name)),
                )
        return (machine.capacity - used).clamp_nonnegative()


# inexact fractions, so a summation order other than the loop's shows up
# as a rounding difference
_demand = st.integers(0, 400_000).map(lambda k: k / 7919.0)
_time = st.integers(0, 3000).map(lambda k: k / 97.0)
_op = st.one_of(
    st.tuples(
        st.just("place"),
        st.integers(0, 11),  # task (re-noting a live task moves it)
        st.integers(0, 2),  # machine
        st.lists(_demand, min_size=6, max_size=6),
        _time,
    ),
    st.tuples(st.just("finish"), st.integers(0, 11)),
    st.tuples(
        st.just("report"),
        _time,
        st.lists(
            st.tuples(
                st.integers(0, 2),
                st.sampled_from(("cpu", "diskr", "diskw", "netin")),
                st.floats(min_value=0.1, max_value=300.0),
            ),
            max_size=4,
        ),
    ),
)


class TestAvailabilityPlane:
    @given(
        st.sampled_from((0.0, 0.7, 10.0, 1e-3)),
        st.lists(_op, max_size=40),
        _time,
    )
    @settings(deadline=None, max_examples=60)
    def test_rows_equal_per_placement_loop(self, ramp, ops, probe_time):
        cluster = Cluster(3, machines_per_rack=3)
        tracker = ResourceTracker(cluster, TrackerConfig(ramp_seconds=ramp))
        oracle = _LoopTracker(ramp)
        tasks = [make_task() for _ in range(12)]
        where = {}
        for op in ops:
            if op[0] == "place":
                _, t, machine_id, values, time = op
                task = tasks[t]
                booked = DEFAULT_MODEL.vector(
                    **dict(zip(DEFAULT_MODEL.names, values))
                )
                if t not in where:
                    cluster.machine(machine_id).place(task, booked)
                    where[t] = machine_id
                for sink in (tracker, oracle):
                    sink.note_placement(task, machine_id, booked, time)
            elif op[0] == "finish":
                t = op[1]
                if t in where:
                    cluster.machine(where.pop(t)).remove(tasks[t])
                for sink in (tracker, oracle):
                    sink.note_completion(tasks[t])
            else:
                _, time, specs = op
                flows = FlowTable(
                    cluster.model, [m.capacity.data for m in cluster.machines]
                )
                for machine_id, dim, rate in specs:
                    flows.add_flow(
                        FlowSpec(
                            work=1e6, nominal_rate=rate,
                            slots=((machine_id, dim),),
                        )
                    )
                tracker.report(time, flows)
            # the cached view is read between operations, as the
            # scheduler does between engine callbacks
            matrix = tracker.available_matrix()
            for machine in cluster.machines:
                want = oracle.available(machine, tracker.last_report_time)
                assert np.array_equal(matrix[machine.row], want.data)
        tracker.check_available()
        for machine in cluster.machines:
            want = oracle.available(machine, tracker.last_report_time)
            assert np.array_equal(tracker.available(machine).data, want.data)
            assert np.array_equal(
                tracker.available(machine, time=probe_time).data,
                oracle.available(machine, probe_time).data,
            )
            assert np.array_equal(
                tracker.ramp_allowance(machine, probe_time).data,
                oracle.ramp_allowance(machine, probe_time).data,
            )

    def test_missed_stale_mark_is_caught(self, cluster):
        tracker = ResourceTracker(cluster)
        tracker.available_matrix()
        task = make_task(cpu=4)
        # a placement whose stale mark never happens
        tracker._mark_stale = lambda row: None
        tracker.note_placement(task, 0, DEFAULT_MODEL.vector(cpu=4), 0.0)
        with pytest.raises(AssertionError, match=r"rows \[0\] are stale"):
            tracker.check_available()


# -- the placeability skip and prefilter read the tracker's view -------------

def _run_tracked(
    seed,
    config,
    learned=False,
    prefilter=True,
    traced=False,
    shards=None,
    tracker_cls=ResourceTracker,
    num_machines=12,
):
    """One tracked end-to-end run; returns (placement keys, fill visits)."""
    trace = generate_workload_suite(
        WorkloadSuiteConfig(
            num_jobs=8, task_scale=0.05, arrival_horizon=150.0, seed=seed
        )
    )
    cluster = Cluster(num_machines, machines_per_rack=4, seed=seed)
    jobs = materialize_trace(trace, cluster, seed=seed)
    scheduler = TetrisScheduler(config)
    visits = [0]
    fill = scheduler._fill_machine

    def counted(*args):
        visits[0] += 1
        return fill(*args)

    scheduler._fill_machine = counted
    if shards is not None:
        scheduler = FederatedScheduler(
            scheduler, FederationConfig(num_shards=shards, backend="inline")
        )
    scheduler.prefilter_machines = prefilter
    engine = Engine(
        cluster,
        scheduler,
        jobs,
        estimator=ProfilingEstimator() if learned else None,
        tracker=tracker_cls(cluster),
        config=EngineConfig(seed=seed),
        decision_trace=DecisionTrace() if traced else None,
    )
    engine.run()
    assert all(job.is_finished for job in jobs)
    keys = [
        (task.job.name, task.stage.name, task.index, machine_id, time)
        for (task, machine_id, time, _booked) in engine.placement_log
    ]
    return keys, visits[0]


class TestSkipUnderTracker:
    """With a tracker bound, the prefilter and the exact placeability
    skip test fits against the tracker's availability rows: placements
    equal a run that visits every machine (``prefilter_machines=False``)
    and a traced run (where both are off)."""

    @given(
        st.integers(0, 10_000),
        st.booleans(),
        st.booleans(),
    )
    @settings(deadline=None, max_examples=6)
    def test_skip_is_exact(self, seed, learned, starvation):
        config = TetrisConfig(
            starvation_timeout=20.0 if starvation else None,
            debug_invariants=True,
        )
        fast, _ = _run_tracked(seed, config, learned=learned)
        assert len(fast) > 0
        assert fast == _run_tracked(
            seed, config, learned=learned, prefilter=False
        )[0]
        assert fast == _run_tracked(
            seed, config, learned=learned, traced=True
        )[0]

    @pytest.mark.parametrize("learned", [False, True])
    def test_skip_fires(self, learned):
        config = TetrisConfig(debug_invariants=True)
        fast, fast_visits = _run_tracked(3, config, learned=learned)
        full, full_visits = _run_tracked(
            3, config, learned=learned, prefilter=False
        )
        assert fast == full
        assert fast_visits < full_visits

    def test_inline_shards_with_tracker(self):
        # no debug_invariants: the remote-ledger check is per shard while
        # inline shards share one ledger, so it misfires under sharding
        config = TetrisConfig()
        fast, _ = _run_tracked(5, config, shards=2)
        assert len(fast) > 0
        assert fast == _run_tracked(5, config, shards=2, prefilter=False)[0]
        assert fast == _run_tracked(5, config, shards=2, traced=True)[0]

    def test_debug_check_catches_missed_stale_mark(self):
        class ForgetfulTracker(ResourceTracker):
            def note_placement(self, task, machine_id, booked, time):
                stale = self._stale.copy()
                super().note_placement(task, machine_id, booked, time)
                self._stale[:] = stale  # the mark is lost

        with pytest.raises(AssertionError, match="are stale"):
            _run_tracked(
                3,
                TetrisConfig(debug_invariants=True),
                tracker_cls=ForgetfulTracker,
            )


class TestReservationUnderTracker:
    def _scheduler(self, cluster, tracker):
        scheduler = TetrisScheduler(TetrisConfig(starvation_timeout=1.0))
        scheduler.bind(cluster, tracker=tracker)
        return scheduler

    def test_hot_machine_not_reserved(self, cluster, flows):
        """Machine 0 books nothing but runs an unbooked ingestion at
        150 MB/s of disk writes (observed > booked): on booked free
        space it ties machine 1 and the first-max argmax picks it; the
        tracker's view the fill loop uses says it is the busier one."""
        flows.add_flow(
            FlowSpec(work=1e6, nominal_rate=150, slots=((0, "diskw"),))
        )
        tracker = ResourceTracker(cluster, TrackerConfig(ramp_seconds=0.0))
        tracker.report(1.0, flows)
        assert self._scheduler(cluster, None)._pick_reservation_machine() == 0
        assert self._scheduler(cluster, tracker)._pick_reservation_machine() == 1

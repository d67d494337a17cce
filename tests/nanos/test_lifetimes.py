"""Per-task object lifetimes: what a task holds, and for how long.

A finished task stays referenced from the dependency frontier until the
run ends, so anything it keeps is traversed by every full collection of
the cyclic GC. These tests pin the small-object rules that let
refcounting free per-task state as soon as it is dead (DESIGN.md §11):
the placement cache lives only while a task can still be placed, an
all-reading task's ``inputs`` is its ``accesses`` tuple, and empty
frontier lists are the shared ``()``. Crash recovery re-places a task
whose cache was already dropped, so the fault paths are checked too.
"""

from repro.apps.synthetic import SyntheticSpec, make_synthetic_app
from repro.cluster import MARENOSTRUM4, ClusterSpec
from repro.faults import FaultPlan, MessageFaultSpec, WorkerCrash
from repro.nanos import (AccessType, ClusterRuntime, DataAccess,
                         RuntimeConfig, Task, TaskState)
from repro.nanos.dependencies import DependencyTracker
from repro.nanos.scheduler import AppRankScheduler

from tests.conftest import build_runtime
from tests.nanos.test_runtime_core import drive


def make_task(*accesses):
    return Task(work=1.0, accesses=tuple(
        DataAccess(AccessType(mode), start, end)
        for mode, start, end in accesses))


def finish(tracker, task):
    task.state = TaskState.FINISHED
    return tracker.notify_finished(task)


class TestPlacementCache:
    def test_queued_task_keeps_its_cache_until_assigned(self):
        runtime = build_runtime(num_nodes=2, num_appranks=2,
                                config=RuntimeConfig.offloading(2, "global"))
        rt = runtime.apprank(0)
        submitted = []
        queued_caches = []

        def main():
            for i in range(200):
                submitted.append(rt.submit(
                    work=0.01,
                    accesses=[DataAccess(AccessType.INOUT, 64 * i,
                                         64 * (i + 1))]))
            queued_caches.extend(t._place_cache for t in rt.scheduler.queue)
            yield from rt.taskwait()

        drive(runtime, main())
        assert queued_caches, "the workload must spill tasks to the queue"
        assert all(cache is not None for cache in queued_caches)
        assert all(t.state is TaskState.FINISHED for t in submitted)
        assert all(t._place_cache is None for t in submitted)


class TestSharedTuples:
    def test_all_reading_task_inputs_is_its_accesses(self):
        task = make_task(("in", 0, 10), ("inout", 20, 30))
        assert task.inputs is task.accesses

    def test_all_writing_task_outputs_is_its_accesses(self):
        task = make_task(("out", 0, 10), ("inout", 20, 30))
        assert task.outputs is task.accesses
        assert task.inputs == (task.accesses[1],)

    def test_mixed_task_filters_both_ways(self):
        task = make_task(("in", 0, 10), ("out", 20, 30))
        assert task.inputs == (task.accesses[0],)
        assert task.outputs == (task.accesses[1],)

    def test_successors_start_and_end_as_the_empty_tuple(self):
        tracker = DependencyTracker(lambda task: None)
        writer = make_task(("out", 0, 10))
        assert writer.successors == () and type(writer.successors) is tuple
        tracker.register(writer)
        assert writer.successors == ()
        reader = make_task(("in", 0, 10))
        tracker.register(reader)
        assert writer.successors == [reader]
        assert finish(tracker, writer) == [reader]
        assert writer.successors == () and type(writer.successors) is tuple

    def test_readers_reset_to_the_empty_tuple_by_a_writer(self):
        tracker = DependencyTracker(lambda task: None)

        def state():
            return tracker._map.value_at(0)

        tracker.register(make_task(("out", 0, 10)))
        assert state().readers == () and type(state().readers) is tuple
        first, second = make_task(("in", 0, 10)), make_task(("in", 0, 10))
        tracker.register(first)
        tracker.register(second)
        assert state().readers == [first, second]
        # a split keeps each half's readers in a list of its own
        tracker.register(make_task(("in", 0, 5)))
        left, right = tracker._map.value_at(0), tracker._map.value_at(5)
        assert left.readers is not right.readers
        assert len(left.readers) == 3 and right.readers == [first, second]
        tracker.register(make_task(("inout", 0, 10)))
        for point in (0, 5):
            readers = tracker._map.value_at(point).readers
            assert readers == () and type(readers) is tuple

    def test_clone_keeps_the_empty_tuple(self):
        tracker = DependencyTracker(lambda task: None)
        tracker.register(make_task(("out", 0, 10)))
        tracker.register(make_task(("out", 0, 5)))      # splits the segment
        for point in (0, 5):
            readers = tracker._map.value_at(point).readers
            assert readers == () and type(readers) is tuple


MACHINE = MARENOSTRUM4.scaled(8)


def run_synthetic(faults, validate=False):
    spec = SyntheticSpec(num_appranks=4, imbalance=2.0, cores_per_apprank=8,
                         tasks_per_core=8, iterations=3, seed=3)
    config = RuntimeConfig.offloading(2, "global", global_period=0.2,
                                      validate=validate)
    runtime = ClusterRuntime(ClusterSpec.homogeneous(MACHINE, 4), 4, config,
                             faults=faults)
    runtime.run_app(make_synthetic_app(spec))
    stats = runtime.stats()
    assert stats["executed"] == stats["tasks"]
    return runtime


CRASH = FaultPlan(crashes=(WorkerCrash(apprank=0, node=1, time=0.3),))


class TestRecoveredTasks:
    def test_crash_run_passes_the_sanitizer(self):
        runtime = run_synthetic(CRASH, validate=True)
        assert runtime.validator is not None
        assert runtime.tasks_recovered > 0

    def test_recovered_task_is_placed_from_a_fresh_cache(self, monkeypatch):
        first_placements = {}
        place = AppRankScheduler._place

        def spy(self, task, drained=False):
            if task.retries and task not in first_placements:
                first_placements[task] = task._place_cache
            return place(self, task, drained)

        monkeypatch.setattr(AppRankScheduler, "_place", spy)
        runtime = run_synthetic(CRASH)
        assert runtime.tasks_recovered == 25
        assert first_placements
        assert all(cache is None for cache in first_placements.values())
        # Golden outcome of this plan: dropping the cache must not move it.
        assert (runtime.elapsed, runtime.sim.events_fired) == (
            2.6009006659600002, 1216)

    def test_offload_loss_resends_are_unchanged(self):
        plan = FaultPlan(messages=MessageFaultSpec(p_loss=0.05), seed=11)
        runtime = run_synthetic(plan)
        resends = sum(rt.scheduler.offload_resends
                      for rt in runtime.appranks)
        # Golden outcome of this plan. The resend path keeps its
        # closures: each one's Event is unlinked from the dispatch when
        # it fires or is cancelled, so it forms no lasting cycle.
        assert (runtime.elapsed, runtime.sim.events_fired,
                runtime.stats()["offloaded"], resends) == (
            1.6641366498463812, 1687, 251, 11)

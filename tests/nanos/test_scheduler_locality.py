"""Scheduler locality ordering: data-holding nodes win the tentative pick."""

import pytest

from repro.nanos import ClusterRuntime, RuntimeConfig

from tests.conftest import build_runtime
from tests.nanos.test_runtime_core import drive


class TestLocalityOrdering:
    def test_data_follows_to_remote_node_then_attracts_successors(self):
        """A task whose inputs were produced remotely prefers that node
        once the home node is saturated — and can run there with no
        transfer at all."""
        config = RuntimeConfig.offloading(2, "global", global_period=10.0,
                                          taskwait_writeback=False)
        runtime = build_runtime(num_nodes=2, num_appranks=2, cores_per_node=4,
                                config=config)
        rt = runtime.apprank(0)
        produced = []
        consumed = []
        block = 1 << 20      # 1 MiB regions

        def main():
            # Saturate home so some producers offload.
            for i in range(24):
                produced.append(rt.submit(
                    work=0.05,
                    accesses=[rt.access("out", i * block, (i + 1) * block)]))
            yield from rt.taskwait()
            # Consumers: each reads one producer's output.
            for i in range(24):
                consumed.append(rt.submit(
                    work=0.05,
                    accesses=[rt.access("in", i * block, (i + 1) * block)]))
            yield from rt.taskwait()

        drive(runtime, main())
        remote_producers = [t for t in produced if t.assigned_node != 0]
        assert remote_producers, "home saturation must offload something"
        followed = sum(
            1 for p, c in zip(produced, consumed)
            if p.assigned_node != 0 and c.assigned_node == p.assigned_node)
        # at least some consumers follow their data to the remote node
        assert followed > 0

    def test_locality_scoring_uses_directory(self):
        config = RuntimeConfig.offloading(2, "global")
        runtime = build_runtime(num_nodes=2, num_appranks=2, cores_per_node=4,
                                config=config)
        rt = runtime.apprank(0)
        scheduler = rt.scheduler
        # simulate a region produced on the helper node
        helper = next(n for n in scheduler.workers if n != rt.home_node)
        rt.directory.record_write(
            [rt.access("out", 0, 1000)], helper)
        from repro.nanos.task import Task
        task = Task(work=0.1, accesses=(rt.access("in", 0, 1000),))
        order = scheduler.locality_order(task)
        assert order[0] == helper    # data beats the home tie-break

    def test_home_wins_when_no_data(self):
        config = RuntimeConfig.offloading(2, "global")
        runtime = build_runtime(num_nodes=2, num_appranks=2, cores_per_node=4,
                                config=config)
        scheduler = runtime.apprank(0).scheduler
        from repro.nanos.task import Task
        order = scheduler.locality_order(Task(work=0.1))
        assert order[0] == runtime.apprank(0).home_node

"""Offload policies as pure functions of views + mechanism validation."""

import pytest

from repro.errors import PolicyError
from repro.nanos import RuntimeConfig
from repro.nanos.task import Task
from repro.policies import KEEP, OFFLOAD_POLICIES, QUEUE, OffloadPolicy
from repro.policies.offload import (BoundedWorkSharingOffload,
                                    LocalityWeightedOffload,
                                    TentativeImmediateOffload)

from tests.conftest import build_runtime
from tests.policies.views import FakeSchedulerView, FakeTask, node


def view(*nodes, home=0, tasks_per_core=2):
    return FakeSchedulerView(*nodes, home=home, tasks_per_core=tasks_per_core)


def decide(policy, v):
    return policy.choose_worker(v.task(), v)


class TestViews:
    def test_load_ratio_guards_zero_owned(self):
        assert node(0, owned=0, active=3).load_ratio == 3.0

    def test_node_lookup_raises_on_absent(self):
        runtime = build_runtime(num_nodes=2, num_appranks=2, cores_per_node=4,
                                config=RuntimeConfig.offloading(2, "global"))
        live = runtime.apprank(0).scheduler.view
        assert live.node(0).node_id == 0
        with pytest.raises(KeyError):
            live.node(9)

    def test_by_locality_data_then_home_then_id(self):
        v = view(node(0), node(1, data=100), node(2), home=0)
        assert v.task().by_locality() == (1, 0, 2)


class TestTentative:
    def test_keeps_home_when_under_threshold(self):
        policy = TentativeImmediateOffload()
        assert decide(policy, view(node(0), node(1))) is KEEP

    def test_follows_data_over_home_tiebreak(self):
        policy = TentativeImmediateOffload()
        v = view(node(0), node(1, data=1000))
        assert decide(policy, v) == 1

    def test_skips_dead_nodes(self):
        policy = TentativeImmediateOffload()
        v = view(node(0, active=8), node(1, data=1000, alive=False), node(2))
        assert decide(policy, v) == 2

    def test_queues_when_everything_saturated(self):
        policy = TentativeImmediateOffload()
        v = view(node(0, active=8), node(1, active=8))
        assert decide(policy, v) is QUEUE

    def test_default_drain_order_is_fifo(self):
        policy = TentativeImmediateOffload()
        queue = [FakeTask(i, 0) for i in range(3)]
        assert list(policy.drain_order(queue, view(node(0)))) == [0, 1, 2]


class TestLocalityWeighted:
    def test_discounts_data_by_pending_work(self):
        # tentative takes node 1 (most raw bytes); locality divides by the
        # work already bound there and takes node 2 instead
        v = view(node(0), node(1, data=1000, active=3), node(2, data=800))
        assert decide(TentativeImmediateOffload(), v) == 1
        assert decide(LocalityWeightedOffload(), v) == 2

    def test_home_wins_ties(self):
        v = view(node(0), node(1))
        assert decide(LocalityWeightedOffload(), v) is KEEP

    def test_queue_when_saturated(self):
        v = view(node(0, active=8), node(1, active=8))
        assert decide(LocalityWeightedOffload(), v) is QUEUE

    def test_drain_order_biggest_inputs_first_stable(self):
        policy = LocalityWeightedOffload()
        queue = [FakeTask(0, 10), FakeTask(1, 500), FakeTask(2, 500),
                 FakeTask(3, 0)]
        assert list(policy.drain_order(queue, view(node(0)))) == [1, 2, 0, 3]


class TestBoundedWorkSharing:
    def test_home_first_even_when_remote_holds_data(self):
        v = view(node(0), node(1, data=10_000))
        assert decide(BoundedWorkSharingOffload(), v) is KEEP

    def test_spills_to_least_loaded_once_home_saturates(self):
        v = view(node(0, active=8), node(1, active=3), node(2, active=1))
        assert decide(BoundedWorkSharingOffload(), v) == 2

    def test_queue_when_no_helper_under_threshold(self):
        v = view(node(0, active=8), node(1, active=8))
        assert decide(BoundedWorkSharingOffload(), v) is QUEUE


class _WrongNode(OffloadPolicy):
    name = "test-wrong-node"

    def choose_worker(self, task, v):
        """Name a node outside the view (contract violation)."""
        return 999


class _WrongDrain(OffloadPolicy):
    name = "test-wrong-drain"

    def choose_worker(self, task, v):
        """Irrelevant; the drain order is the violation under test."""
        return QUEUE

    def drain_order(self, queue, v):
        """Not a permutation (contract violation)."""
        return [0] * len(queue)


class TestMechanismValidation:
    """The scheduler rejects decisions outside the policy contract."""

    @staticmethod
    def _scheduler():
        config = RuntimeConfig.offloading(2, "global")
        runtime = build_runtime(num_nodes=2, num_appranks=2,
                                cores_per_node=4, config=config)
        return runtime.apprank(0).scheduler

    def test_unknown_node_decision_raises(self):
        scheduler = self._scheduler()
        scheduler.policy = _WrongNode()
        with pytest.raises(PolicyError, match="not an adjacent"):
            scheduler._place(Task(work=0.1))

    def test_non_permutation_drain_order_raises(self):
        scheduler = self._scheduler()
        scheduler.policy = _WrongDrain()
        scheduler.queue.append(Task(work=0.1))
        scheduler.queue.append(Task(work=0.1))
        with pytest.raises(PolicyError, match="permutation"):
            scheduler.drain()

    def test_config_rejects_unknown_offload_policy(self):
        from repro.errors import RuntimeModelError
        with pytest.raises(RuntimeModelError, match="registered"):
            RuntimeConfig(offload_policy="nope")

    def test_all_registered_policies_instantiable(self):
        for name in OFFLOAD_POLICIES.names():
            assert OFFLOAD_POLICIES.create(name).name == name

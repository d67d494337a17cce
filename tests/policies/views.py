"""Data-backed fakes of the policy views, for testing strategies alone.

The mechanism hands policies live read-only views over its own state;
these fakes answer the same protocol from plain values, so a policy's
decision can be pinned down for hand-built inputs.
"""

from __future__ import annotations

from repro.policies import NodeView, locality_order


def node(node_id, owned=4, active=0, data=0, alive=True):
    return NodeView(node_id=node_id, alive=alive, owned_cores=owned,
                    active_tasks=active, bytes_present=data)


class FakeSchedulerView:
    """A :class:`~repro.policies.SchedulerView` over fixed node views."""

    def __init__(self, *nodes, home=0, tasks_per_core=2):
        self.apprank = 0
        self.home_node = home
        self.tasks_per_core = tasks_per_core
        self.nodes = tuple(nodes)

    def node(self, node_id):
        for view in self.nodes:
            if view.node_id == node_id:
                return view
        raise KeyError(node_id)

    def alive(self, node_id):
        return self.node(node_id).alive

    def load_ratio(self, node_id):
        return self.node(node_id).load_ratio

    def task(self, task_id=0, input_bytes=0):
        """A task whose inputs are resident as the node views say."""
        return FakeTask(task_id, input_bytes, self)


class FakeTask:
    """A :class:`~repro.policies.TaskView`; its locality order comes from
    the ``bytes_present`` of its view's nodes."""

    def __init__(self, task_id, input_bytes, view=None):
        self.task_id = task_id
        self.input_bytes = input_bytes
        self._view = view

    def by_locality(self):
        view = self._view
        return locality_order({n.node_id: n.bytes_present for n in view.nodes},
                              view.home_node)


class FakeLendView:
    """A :class:`~repro.policies.LendView`."""

    def __init__(self, idle=3, backlog=0):
        self.node_id = 0
        self.worker_key = ("a", 0)
        self.idle_owned_cores = idle
        self.backlog = backlog


class FakeGrantView:
    """A :class:`~repro.policies.CoreGrantView` over fixed backlogs
    (``backlogs``: worker key → ready backlog, in registration order).

    ``backlog_reads`` records every key whose backlog was asked for.
    """

    def __init__(self, owner=("a", 0), releaser=("b", 0), backlogs=None):
        self.node_id = 0
        self.core_index = 0
        self.owner = owner
        self.releaser = releaser
        self._backlogs = dict(backlogs or {})
        self.backlog_reads = []

    @property
    def keys(self):
        return self._backlogs.keys()

    def has_ready(self, key):
        return self._backlogs.get(key, 0) > 0

    def backlog(self, key):
        self.backlog_reads.append(key)
        return self._backlogs.get(key, 0)

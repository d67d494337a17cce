"""Pure decision interfaces for the §5.5 offload scheduler.

The scheduler in :mod:`repro.nanos.scheduler` is mechanism: it owns the
spill queue, dispatch/ack/resend machinery and data movement. *Where* a
ready task runs is decided by an :class:`OffloadPolicy` — a pure strategy
consulted through read-only views. The purity contract:

* policies never see the :class:`~repro.sim.engine.Simulator`, workers,
  or the data directory — only a :class:`TaskView` and a
  :class:`SchedulerView`, protocols the mechanism implements over its
  live state;
* a view is valid for one call and must never be retained: it reads
  live state, so a view kept past the call would see later decisions;
* policies must not keep mutable state across calls that affects
  decisions (two identical views must yield identical decisions), which
  is what makes same-seed runs reproducible under every policy;
* a decision is a node id from the view, :data:`KEEP` (run on the home
  node) or :data:`QUEUE` (no node can take it now; spill it).

The default policy (``"tentative"`` in
:data:`repro.policies.OFFLOAD_POLICIES`) reproduces the paper's §5.5
rule bit-identically; see ``tests/policies/test_golden_parity.py``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from operator import itemgetter
from typing import ClassVar, Mapping, Protocol, Sequence, Union

__all__ = ["KEEP", "QUEUE", "Decision", "TaskView", "NodeView",
           "SchedulerView", "OffloadPolicy", "locality_order"]


class _Sentinel:
    """A named singleton decision marker (:data:`KEEP` / :data:`QUEUE`)."""

    __slots__ = ("_name",)

    def __init__(self, name: str) -> None:
        self._name = name

    def __repr__(self) -> str:
        return self._name


#: Decision: run the task on the apprank's home node.
KEEP = _Sentinel("KEEP")
#: Decision: no node may take the task now; spill it to the queue.
QUEUE = _Sentinel("QUEUE")

#: What :meth:`OffloadPolicy.choose_worker` returns: an adjacent node id,
#: :data:`KEEP`, or :data:`QUEUE`.
Decision = Union[int, _Sentinel]


_NODE_ID = itemgetter(2)


def locality_order(present: Mapping[int, int], home_node: int) -> tuple[int, ...]:
    """Node ids of *present* (node id → resident input bytes) in §5.5
    order: most bytes first, the home node winning ties, then node id."""
    return tuple(map(_NODE_ID, sorted([(-present[n], n != home_node, n)
                                       for n in present])))


class TaskView(Protocol):
    """What a policy may know about one schedulable task."""

    @property
    def task_id(self) -> int:
        """Submission-order id (unique within the apprank)."""

    @property
    def input_bytes(self) -> int:
        """Total bytes of the task's read accesses (0 if it reads nothing)."""

    def by_locality(self) -> Sequence[int]:
        """Adjacent node ids in §5.5 order (see :func:`locality_order`)."""


@dataclass(frozen=True)
class NodeView:
    """One graph-adjacent node as the deciding apprank sees it."""

    node_id: int
    #: False once the worker there crashed (never place work on it)
    alive: bool
    #: cores the apprank's worker *owns* there — LeWI-borrowed cores are
    #: deliberately excluded (§5.5: they can be reclaimed at any moment)
    owned_cores: int
    #: unfinished tasks bound there, excluding taskwait-blocked bodies
    active_tasks: int
    #: bytes of the current task's inputs already resident on this node
    #: (0 in a task-agnostic view, e.g. for :meth:`OffloadPolicy.drain_order`)
    bytes_present: int

    @property
    def load_ratio(self) -> float:
        """Unfinished tasks per owned core — the §5.5 threshold metric."""
        return self.active_tasks / max(self.owned_cores, 1)


class SchedulerView(Protocol):
    """Read-only view of one apprank's placement state.

    :meth:`alive` and :meth:`load_ratio` are O(1) reads of live state;
    :meth:`node` and :attr:`nodes` build :class:`NodeView` values on
    demand. Valid for one call; policies must not hold on to it.
    """

    @property
    def apprank(self) -> int:
        """The deciding apprank."""

    @property
    def home_node(self) -> int:
        """The apprank's home node (what :data:`KEEP` means)."""

    @property
    def tasks_per_core(self) -> int:
        """The §5.5 spill threshold (``RuntimeConfig.tasks_per_core``)."""

    @property
    def nodes(self) -> Sequence[NodeView]:
        """Every graph-adjacent node, in worker-registration order."""

    def node(self, node_id: int) -> NodeView:
        """The view of one adjacent node (:class:`KeyError` if absent)."""

    def alive(self, node_id: int) -> bool:
        """``node(node_id).alive`` without building the view."""

    def load_ratio(self, node_id: int) -> float:
        """``node(node_id).load_ratio`` without building the view."""


class OffloadPolicy(ABC):
    """Pure placement strategy for the tentative-immediate scheduler.

    Subclasses set :attr:`name` (the registry key) and implement
    :meth:`choose_worker`; :meth:`drain_order` may be overridden to
    reorder the spill queue. Register with
    ``repro.policies.OFFLOAD_POLICIES.register(MyPolicy)``.
    """

    #: registry key; also the value accepted by ``--policy`` and
    #: ``RuntimeConfig.offload_policy``
    name: ClassVar[str] = ""

    @abstractmethod
    def choose_worker(self, task: TaskView, view: SchedulerView) -> Decision:
        """Place one ready task: a node id, :data:`KEEP` or :data:`QUEUE`."""

    def drain_order(self, queue: Sequence[TaskView],
                    view: SchedulerView) -> Sequence[int]:
        """Order (queue positions) in which to retry spilled tasks.

        Must return a permutation of ``range(len(queue))``. The mechanism
        attempts tasks in this order and stops at the first
        :data:`QUEUE` decision. The default is FIFO — together with
        :meth:`choose_worker` stopping the drain, this reproduces the
        seed scheduler's head-of-queue drain exactly.
        """
        return range(len(queue))

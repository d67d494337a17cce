"""Tasks and their data accesses (paper §3.1, §4).

A task is a unit of work with *accesses* — typed memory regions that drive
all three uses the paper highlights: dependency computation, node-level
locality, and inter-node data transfers. Task bodies are modelled as a
nominal duration (seconds at node speed 1.0); the real mini-apps in
:mod:`repro.apps` provide measured durations for their kernels.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ..errors import TaskError

__all__ = ["AccessType", "DataAccess", "Task", "TaskState"]


class AccessType(enum.Enum):
    """OmpSs-2 dependency access types.

    Beyond the basic ``in``/``out``/``inout``:

    * ``concurrent`` — a relaxed inout: tasks in a concurrent group may run
      simultaneously with each other while staying ordered against every
      ordinary reader/writer on the region;
    * ``commutative`` — inout tasks that may execute in any order but not
      simultaneously. Implemented by serialising them in submission order
      (one valid order), the standard conservative realisation.
    """

    IN = "in"
    OUT = "out"
    INOUT = "inout"
    CONCURRENT = "concurrent"
    COMMUTATIVE = "commutative"

    # ``reads``/``writes`` are plain member attributes (filled in below,
    # once, at import): mode checks run per region piece in the locality
    # directory's scans, where a property call would dominate.
    reads: bool
    writes: bool


for _mode in AccessType:
    _mode.reads = _mode in (AccessType.IN, AccessType.INOUT,
                            AccessType.CONCURRENT, AccessType.COMMUTATIVE)
    _mode.writes = _mode in (AccessType.OUT, AccessType.INOUT,
                             AccessType.CONCURRENT, AccessType.COMMUTATIVE)
del _mode


@dataclass(frozen=True)
class DataAccess:
    """One typed access to the half-open byte region ``[start, end)``.

    Regions live in the apprank's virtual address space; the common layout
    across workers (§4) means no translation is ever needed.
    """

    mode: AccessType
    start: int
    end: int

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise TaskError(f"empty/inverted access region [{self.start}, {self.end})")
        if self.start < 0:
            raise TaskError(f"negative region start {self.start}")

    @property
    def nbytes(self) -> int:
        return self.end - self.start


class TaskState(enum.Enum):
    """Lifecycle of a task from creation to completion."""

    CREATED = "created"       # dependencies not yet satisfied
    READY = "ready"           # satisfiable, at the scheduler
    ASSIGNED = "assigned"     # bound to a worker (offload is final, §5.5)
    TRANSFERRING = "transfer" # waiting for eager input copies
    RUNNABLE = "runnable"     # at the worker, waiting for a core
    RUNNING = "running"
    FINISHED = "finished"


_task_counter = 0


def _next_task_id() -> int:
    global _task_counter
    _task_counter += 1
    return _task_counter


@dataclass(eq=False)
class Task:
    """One task instance. Identity-based equality (tasks are unique events)."""

    work: float                      # nominal seconds at speed 1.0
    accesses: tuple[DataAccess, ...] = ()
    offloadable: bool = True
    label: str = ""
    apprank: int = -1                # filled in at submission
    task_id: int = field(default_factory=_next_task_id)
    state: TaskState = TaskState.CREATED

    #: nested-task body: a callable taking a
    #: :class:`repro.nanos.nesting.TaskContext` and returning a generator
    #: that yields ``ctx.compute(dt)`` / ``ctx.taskwait()``. When set,
    #: ``work`` is only an estimate; the realised cost comes from the body.
    body: Optional[Callable[..., Any]] = None
    #: the task this one was submitted from (None for top-level tasks)
    parent: Optional["Task"] = None
    #: §4/§5.1: non-offloadable tasks are "fixed on the same node as the
    #: task's parent" — for children this pins to the parent's execution
    #: node; None means the scheduler's default (the apprank home)
    pinned_node: Optional[int] = None

    # Dependency bookkeeping (owned by the dependency system):
    pending_predecessors: int = 0
    #: tasks waiting on this one: the shared empty ``()`` until the first
    #: successor registers (then a list), and ``()`` again once
    #: ``notify_finished`` has released them — a finished task stays
    #: referenced from the dependency frontier, so it must not keep lists
    successors: list[Task] | tuple[()] = ()

    # Placement (owned by the scheduler/worker):
    assigned_node: Optional[int] = None
    start_time: Optional[float] = None
    finish_time: Optional[float] = None
    #: when the dependency system last released the task (set by the
    #: scheduler; re-set when a recovered task becomes ready again)
    ready_time: Optional[float] = None
    #: predecessor task ids at registration — recorded only on observed
    #: runs (``config.obs``), feeding the critical-path reconstruction
    pred_ids: tuple[int, ...] = ()
    #: times this task was lost (crashed worker, dropped offload) and
    #: re-submitted; bounded by :attr:`RuntimeConfig.max_retries`
    retries: int = 0

    # Lazily-filled caches over the immutable ``accesses`` tuple: the
    # scheduler and directory read ``inputs``/``input_bytes`` on every
    # placement decision and dispatch. A filter that keeps every access
    # caches ``accesses`` itself rather than an equal copy.
    _inputs: Optional[tuple[DataAccess, ...]] = field(
        default=None, init=False, repr=False, compare=False)
    _outputs: Optional[tuple[DataAccess, ...]] = field(
        default=None, init=False, repr=False, compare=False)
    _input_bytes: Optional[int] = field(
        default=None, init=False, repr=False, compare=False)
    #: scheduler placement cache: (directory version, worker-key tuple,
    #: node ids in locality order) — see
    #: ``AppRankScheduler.locality_order``. Only a
    #: task waiting in the spill queue needs it: ``_assign`` drops it, and
    #: a recovered task that is placed again builds a fresh one
    _place_cache: Optional[tuple] = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def depth(self) -> int:
        """Nesting depth (0 for top-level tasks)."""
        depth = 0
        node = self.parent
        while node is not None:
            depth += 1
            node = node.parent
        return depth

    @property
    def all_ancestors_non_offloadable(self) -> bool:
        """The §4 MPI-safety condition: the task and every ancestor are
        non-offloadable (so the task provably runs on the home node)."""
        node: Optional[Task] = self
        while node is not None:
            if node.offloadable:
                return False
            node = node.parent
        return True

    def __post_init__(self) -> None:
        if self.work < 0:
            raise TaskError(f"negative task work {self.work}")

    @property
    def inputs(self) -> tuple[DataAccess, ...]:
        inputs = self._inputs
        if inputs is None:
            accesses = self.accesses
            inputs = tuple(a for a in accesses if a.mode.reads)
            if len(inputs) == len(accesses):
                inputs = accesses
            self._inputs = inputs
        return inputs

    @property
    def outputs(self) -> tuple[DataAccess, ...]:
        outputs = self._outputs
        if outputs is None:
            accesses = self.accesses
            outputs = tuple(a for a in accesses if a.mode.writes)
            if len(outputs) == len(accesses):
                outputs = accesses
            self._outputs = outputs
        return outputs

    @property
    def input_bytes(self) -> int:
        nbytes = self._input_bytes
        if nbytes is None:
            nbytes = self._input_bytes = sum(a.nbytes for a in self.inputs)
        return nbytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        name = self.label or f"task{self.task_id}"
        return (f"Task({name}, apprank={self.apprank}, "
                f"{self.state.value}, work={self.work:.4f})")

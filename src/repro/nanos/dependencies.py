"""Region-based task dependency tracking (paper §3.1/§3.2).

The registry replays OmpSs-2 semantics: accesses are registered in task
*creation order* (inherited from the sequential program), readers-after-
writer form ``in`` edges, writers-after-anything form ``out``/``inout``
edges, and a task becomes ready when its last unfinished predecessor
finishes.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..errors import DependencyError
from .regions import IntervalMap
from .task import AccessType, Task, TaskState

__all__ = ["DependencyTracker"]


class _RegionState:
    """Per-segment dependency frontier.

    ``writers`` is the current write frontier: a single ordinary writer, or
    an open *concurrent group* (several tasks that may run simultaneously);
    ``readers`` are the in-accesses since that frontier — the shared empty
    ``()`` until the first reader, since most segments never get one. A
    ``__slots__`` class: one is allocated per gap-fill and per segment
    split in the hottest registration path.
    """

    __slots__ = ("writers", "concurrent_group", "readers")

    def __init__(self, writers: Optional[list[Task]] = None,
                 concurrent_group: bool = False,
                 readers: list[Task] | tuple[()] = ()) -> None:
        self.writers = writers if writers is not None else []
        #: True while ``writers`` is an open concurrent group
        self.concurrent_group = concurrent_group
        self.readers = readers

    def clone(self) -> "_RegionState":
        """Segment-split hook for :class:`IntervalMap`."""
        readers = self.readers
        return _RegionState(list(self.writers), self.concurrent_group,
                            list(readers) if readers else ())


class DependencyTracker:
    """One apprank's dependency registry.

    ``on_ready`` is called (synchronously) for every task whose predecessor
    count reaches zero — at registration time for dependence-free tasks.
    """

    def __init__(self, on_ready: Callable[[Task], None],
                 record_preds: bool = False) -> None:
        self._map: IntervalMap[_RegionState] = IntervalMap()
        self._on_ready = on_ready
        self.tasks_registered = 0
        self.edges_created = 0
        #: observed runs stamp ``task.pred_ids`` for critical-path analysis
        self.record_preds = record_preds

    def register(self, task: Task) -> None:
        """Register *task*'s accesses; may immediately mark it ready."""
        if task.state != TaskState.CREATED:
            raise DependencyError(f"{task!r} registered twice")
        predecessors: set[Task] = set()
        for access in task.accesses:
            def update(state: Optional[_RegionState],
                       mode: AccessType = access.mode) -> _RegionState:
                if state is None:
                    state = _RegionState()
                if mode == AccessType.IN:
                    predecessors.update(state.writers)
                    if state.readers:
                        state.readers.append(task)
                    else:
                        state.readers = [task]
                elif mode == AccessType.CONCURRENT:
                    # Ordered against readers and any ordinary writer, but
                    # joins (not replaces) an open concurrent group.
                    predecessors.update(state.readers)
                    if state.concurrent_group:
                        state.writers.append(task)
                    else:
                        predecessors.update(state.writers)
                        state.writers = [task]
                        state.concurrent_group = True
                    state.readers = ()
                else:
                    # OUT / INOUT / COMMUTATIVE close any open group and
                    # become the sole write frontier. COMMUTATIVE thereby
                    # serialises with its peers in submission order — one
                    # of the orders its semantics allow.
                    predecessors.update(state.writers)
                    predecessors.update(state.readers)
                    state.writers = [task]
                    state.concurrent_group = False
                    state.readers = ()
                return state

            self._map.apply(access.start, access.end, update)

        predecessors.discard(task)  # overlapping accesses within one task
        live = [p for p in predecessors if p.state != TaskState.FINISHED]
        if self.record_preds:
            task.pred_ids = tuple(sorted(p.task_id for p in live))
        task.pending_predecessors = len(live)
        for pred in live:
            if pred.successors:
                pred.successors.append(task)
            else:
                pred.successors = [task]
        self.tasks_registered += 1
        self.edges_created += len(live)
        if task.pending_predecessors == 0:
            self._make_ready(task)

    def notify_finished(self, task: Task) -> list[Task]:
        """Record *task* finished; release successors. Returns newly ready tasks."""
        if task.state != TaskState.FINISHED:
            raise DependencyError(f"notify_finished on {task!r} (not finished)")
        released = []
        for succ in task.successors:
            succ.pending_predecessors -= 1
            if succ.pending_predecessors < 0:
                raise DependencyError(f"{succ!r} predecessor count underflow")
            if succ.pending_predecessors == 0:
                released.append(succ)
        task.successors = ()
        for succ in released:
            self._make_ready(succ)
        return released

    def _make_ready(self, task: Task) -> None:
        if task.state != TaskState.CREATED:
            raise DependencyError(f"{task!r} became ready twice")
        task.state = TaskState.READY
        self._on_ready(task)

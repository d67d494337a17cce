"""Worker processes: task execution on the cores of one node (paper §5.1).

A worker is one (apprank, node) edge of the expander graph — the apprank's
main worker on its home node or a helper rank elsewhere. It keeps a queue
of runnable tasks, starts them on cores granted by the node's DLB arbiter,
and reports busy-core levels to its :class:`~repro.balance.load.LoadMeter`
(feeding both policies) and, on instrumented runs, to ``obs.trace``.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import TYPE_CHECKING, Callable, Optional

from ..balance.load import LoadMeter
from ..cluster.node import Core, Node, WorkerKey
from ..dlb.shmem import NodeArbiter
from ..errors import NodeFailedError, SchedulerError
from ..sim.engine import Simulator
from ..sim.events import Event
from .nesting import BodyExecution
from .task import Task, TaskState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..dlb.talp import TalpModule
    from ..obs import Observability
    from ..validate import Sanitizer

__all__ = ["Worker"]


class Worker:
    """Execution agent for one apprank on one node."""

    def __init__(self, sim: Simulator, key: WorkerKey, node: Node,
                 arbiter: NodeArbiter,
                 on_task_finished: Callable[[Task, "Worker"], None],
                 talp: Optional["TalpModule"] = None,
                 obs: Optional["Observability"] = None,
                 validator: Optional["Sanitizer"] = None) -> None:
        self.sim = sim
        self.key = key
        self.node = node
        self.arbiter = arbiter
        self._on_task_finished = on_task_finished
        self.talp = talp
        self.obs = obs
        self.validator = validator
        self.ready: deque[Task] = deque()
        self.running: dict[Task, Core] = {}
        #: nested-task bodies parked at a scheduling point, awaiting a core
        #: (resumption takes priority over fresh tasks)
        self.resume: deque[BodyExecution] = deque()
        self._body_cores: dict[BodyExecution, Core] = {}
        #: set by ClusterRuntime; nesting needs the apprank runtime to
        #: route child submissions and completions
        self.apprank_runtime = None
        #: tasks bound to this worker that have not finished (in transfer,
        #: ready, or running) — the scheduler's tasks-per-core numerator
        self.assigned = 0
        #: bodies blocked in taskwait: they hold no core, so the scheduler
        #: must not count them (or their own children deadlock in the
        #: spill queue behind their parents)
        self.blocked_bodies = 0
        self.meter = LoadMeter(start_time=sim.now)
        self.tasks_executed = 0
        self.work_executed = 0.0
        #: False once :meth:`kill` ran (the process crashed); a dead worker
        #: never accepts or starts work again
        self.alive = True
        #: completion events for running tasks, so :meth:`kill` can cancel
        #: the in-flight completions of a crashed process
        self._completion_events: dict[Task, Event] = {}

    @property
    def apprank(self) -> int:
        return self.key[0]

    @property
    def node_id(self) -> int:
        return self.key[1]

    # -- arbiter port -----------------------------------------------------

    def has_ready(self) -> bool:
        """Arbiter port: runnable task or parked body awaiting a core?"""
        return self.alive and (bool(self.ready) or bool(self.resume))

    def ready_count(self) -> int:
        """Arbiter port: backlog size used for borrow prioritisation."""
        return len(self.ready) + len(self.resume)

    def start_next_on(self, core: Core) -> bool:
        """Arbiter grant: resume a parked body or start a ready task."""
        if not self.alive:
            return False
        if self.resume:
            self._grant_body(self.resume.popleft(), core)
            return True
        if not self.ready:
            return False
        self._start(self.ready.popleft(), core)
        return True

    # -- scheduler-facing -------------------------------------------------

    def notify_assigned(self) -> None:
        """The scheduler bound a task to us (it may still be in transfer)."""
        self.assigned += 1

    def enqueue(self, task: Task) -> None:
        """A task (inputs present) becomes runnable here."""
        if not self.alive:
            raise SchedulerError(
                f"{task!r} delivered to dead worker {self.key!r}")
        if task.assigned_node != self.node_id:
            raise SchedulerError(
                f"{task!r} delivered to node {self.node_id}, assigned to "
                f"{task.assigned_node}")
        task.state = TaskState.RUNNABLE
        self.ready.append(task)
        self.try_start()

    def try_start(self) -> None:
        """Start as many ready tasks as the arbiter will give cores for.

        When the queue drains with cores still idle, those cores are lent
        to the node pool (LeWI's lend-when-idle, §5.3).
        """
        while self.ready or self.resume:
            core = self.arbiter.acquire_core(self)
            if core is None:
                break
            if self.resume:
                self._grant_body(self.resume.popleft(), core)
            else:
                self._start(self.ready.popleft(), core)
        if not self.has_ready():
            self.arbiter.lend_idle_cores(self.key)

    # -- execution ---------------------------------------------------------

    def _start(self, task: Task, core: Core) -> None:
        if self.validator is not None:
            self.validator.task_started(task, self)
        if task.body is not None:
            self._start_body(task, core)
            return
        core.start(self.key)
        task.state = TaskState.RUNNING
        task.start_time = self.sim.now
        self.running[task] = core
        self.meter.increment(self.sim.now)
        if self.obs is not None:
            self.obs.trace.busy_delta(self.sim.now, self.node_id, self.apprank,
                                      +1)
        duration = self.node.task_duration(task.work)
        sim = self.sim
        self._completion_events[task] = sim.schedule(
            duration, partial(self._complete, task),
            label=(f"task-complete:{task.task_id}" if sim.labels else ""))

    # -- nested-task bodies (see nanos.nesting) ----------------------------

    def _apprank_runtime(self):
        if self.apprank_runtime is None:
            raise SchedulerError(
                f"worker {self.key!r} has no apprank runtime bound; nested "
                "tasks need the full ClusterRuntime wiring")
        return self.apprank_runtime

    def _start_body(self, task: Task, core: Core) -> None:
        task.state = TaskState.RUNNING
        task.start_time = self.sim.now
        execution = BodyExecution(self, task)
        self._grant_body(execution, core)

    def _grant_body(self, execution: BodyExecution, core: Core) -> None:
        core.start(self.key)
        self._body_cores[execution] = core
        self.meter.increment(self.sim.now)
        if self.obs is not None:
            self.obs.trace.busy_delta(self.sim.now, self.node_id, self.apprank,
                                      +1)
        execution.start_on(core)

    def _release_body_core(self, execution: BodyExecution) -> None:
        core = self._body_cores.pop(execution)
        core.stop(self.key)
        self.meter.decrement(self.sim.now)
        if self.obs is not None:
            self.obs.trace.busy_delta(self.sim.now, self.node_id, self.apprank,
                                      -1)
        self.arbiter.release_core(core, self.key)

    def _park_for_resume(self, execution: BodyExecution) -> None:
        self.resume.append(execution)
        self.try_start()

    def _note_body_blocked(self) -> None:
        """A body entered taskwait with children outstanding."""
        self.blocked_bodies += 1
        # Its slot no longer counts toward the §5.5 ratio: queued tasks
        # (its own children among them) may now be placed here.
        runtime = self.apprank_runtime
        if runtime is not None:
            runtime.scheduler.drain()

    def _note_body_unblocked(self) -> None:
        self.blocked_bodies -= 1
        if self.blocked_bodies < 0:
            raise SchedulerError(f"worker {self.key!r}: blocked underflow")

    def _finish_body(self, execution: BodyExecution) -> None:
        task = execution.task
        now = self.sim.now
        task.state = TaskState.FINISHED
        task.finish_time = now
        self.assigned -= 1
        self.tasks_executed += 1
        self.work_executed += execution.compute_seconds
        if self.obs is not None:
            self.obs.task_executed(task, self.node_id, -1,
                                   start=task.start_time, end=now)
        if self.talp is not None and execution.compute_seconds > 0:
            self.talp.add_useful(
                self.apprank, self.node.task_duration(execution.compute_seconds))
        if self.validator is not None:
            self.validator.task_finished(task, self)
        self._on_task_finished(task, self)
        self._steal_if_starving()
        if not self.has_ready():
            self.arbiter.lend_idle_cores(self.key)

    def _steal_if_starving(self) -> None:
        """§5.5 completion stealing: keep this worker's pipeline fed.

        At a completion, pull tasks from the apprank's spill queue up to
        the number of cores that are *demonstrably idle and available to
        us right now* (owned idle plus LeWI-borrowable) — bypassing the
        per-owned-core submission threshold. This is what lets a helper
        rank ramp onto a neighbour's lent cores (Figure 9c) while the
        tentative scheduler stays conservative about temporary cores."""
        if self.apprank_runtime is None:
            return
        scheduler = self.apprank_runtime.scheduler
        capacity = self.arbiter.available_idle_count(self.key)
        want = capacity - len(self.ready)
        for _ in range(want):
            if not scheduler.steal_for(self):
                break

    # -- fault handling ----------------------------------------------------

    def kill(self) -> list[Task]:
        """The worker process crashes: stop everything, return lost tasks.

        Running tasks have their completion events cancelled and their
        cores stopped (the arbiter reassigns them via ``retire_worker``,
        which the caller invokes next); ready tasks are simply dropped.
        Both sets are returned so :class:`ClusterRuntime` can re-submit
        them elsewhere. A worker with a nested task body in flight cannot
        be replayed (its partial body progress is not checkpointable) and
        raises :class:`NodeFailedError`.
        """
        if not self.alive:
            raise NodeFailedError(f"worker {self.key!r} killed twice")
        if self._body_cores or self.resume or self.blocked_bodies:
            raise NodeFailedError(
                f"worker {self.key!r} crashed with nested task bodies in "
                "flight; their partial progress cannot be replayed")
        self.alive = False
        now = self.sim.now
        lost: list[Task] = []
        for task, core in sorted(self.running.items(),
                                 key=lambda item: item[0].task_id):
            self.sim.cancel(self._completion_events.pop(task))
            core.stop(self.key)
            self.meter.decrement(now)
            if self.obs is not None:
                self.obs.trace.busy_delta(now, self.node_id, self.apprank, -1)
            lost.append(task)
        self.running.clear()
        lost.extend(self.ready)
        self.ready.clear()
        self.assigned = 0
        return lost

    def _complete(self, task: Task) -> None:
        core = self.running.pop(task)
        self._completion_events.pop(task, None)
        core.stop(self.key)
        now = self.sim.now
        task.state = TaskState.FINISHED
        task.finish_time = now
        self.assigned -= 1
        self.tasks_executed += 1
        self.work_executed += task.work
        self.meter.decrement(now)
        if self.obs is not None:
            self.obs.trace.busy_delta(now, self.node_id, self.apprank, -1)
            self.obs.task_executed(task, self.node_id, core.index,
                                   start=task.start_time, end=now)
            if core.owner != self.key:
                self.obs.borrowed_core_time(now - task.start_time)
        if self.talp is not None:
            self.talp.add_useful(self.apprank, now - task.start_time)
        # Hand the core back before dependency release so a successor
        # arriving at this instant sees a consistent core state.
        self.arbiter.release_core(core, self.key)
        if self.validator is not None:
            self.validator.task_finished(task, self)
        self._on_task_finished(task, self)
        self._steal_if_starving()
        if not self.has_ready():
            self.arbiter.lend_idle_cores(self.key)

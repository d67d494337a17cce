"""Per-apprank task scheduler: §5.5 mechanism behind a pluggable policy.

The scheduler owns the *mechanism*: the spill queue, dispatch/ack/resend
machinery, data movement and bookkeeping. *Where* a ready task runs is
delegated to an :class:`~repro.policies.OffloadPolicy` (selected by
``RuntimeConfig.offload_policy``, default ``"tentative"`` — the paper's
§5.5 rule) consulted through read-only views of the live worker state:

1. the policy sees each adjacent node's liveness, owned cores, active
   tasks and resident input bytes, and answers with a node, ``KEEP``
   (home) or ``QUEUE`` (spill);
2. spilled tasks are retried in the policy's ``drain_order`` as tasks
   complete or ownership changes;
3. a worker that runs dry *steals* the next queued task regardless of
   any threshold (mechanism, not policy — §5.5's "stolen as tasks
   complete" is what keeps LeWI-borrowed cores fed).

Offloading is final: once assigned, a task is never migrated.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import TYPE_CHECKING, Optional

from ..cluster.network import NetworkModel
from ..errors import PolicyError, SchedulerError, TaskLostError
from ..policies import (KEEP, OFFLOAD_POLICIES, QUEUE, NodeView,
                        OffloadPolicy, locality_order)
from ..sim.engine import Simulator
from .locality import DataDirectory
from .task import Task, TaskState
from .worker import Worker

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.injector import FaultInjector
    from ..obs import Observability
    from ..sim.events import Event
    from ..validate import Sanitizer
    from .config import RuntimeConfig

__all__ = ["AppRankScheduler"]


class _OffloadDispatch:
    """One in-flight remote dispatch (all bookkeeping lives here, so the
    fault-free and resilient paths share a single dispatch mechanism)."""

    __slots__ = ("task", "worker", "attempt", "acked", "timer", "delivery",
                 "ack", "sent_at", "first_sent")

    def __init__(self, task: Task, worker: Worker) -> None:
        self.task = task
        self.worker = worker
        self.attempt = 0
        self.acked = False
        self.timer: Optional["Event"] = None
        self.delivery: Optional["Event"] = None
        self.ack: Optional["Event"] = None
        #: simulated time of the latest / first (re-)send, for obs spans
        self.sent_at = 0.0
        self.first_sent = 0.0


class _LiveView:
    """The :class:`~repro.policies.SchedulerView` of one scheduler.

    Built once per scheduler over its live ``workers`` dict: per-node
    queries read current state, so no decision pays for a snapshot.
    ``task`` is the task being placed (None for ``drain_order``); it
    only feeds :attr:`NodeView.bytes_present`.
    """

    __slots__ = ("apprank", "home_node", "tasks_per_core", "task",
                 "_workers", "_directory")

    def __init__(self, scheduler: "AppRankScheduler") -> None:
        self.apprank = scheduler.apprank
        self.home_node = scheduler.home_node
        self.tasks_per_core = scheduler.config.tasks_per_core
        self.task: Optional[Task] = None
        self._workers = scheduler.workers
        self._directory = scheduler.directory

    def alive(self, node_id: int) -> bool:
        return self._workers[node_id].alive

    def load_ratio(self, node_id: int) -> float:
        worker = self._workers[node_id]
        # arbiter.owned_count inlined to its dict read: this is the
        # per-candidate query of every placement.
        owned = worker.arbiter.node.cols.owned_counts.get(worker.key, 0)
        return ((worker.assigned - worker.blocked_bodies)
                / (owned if owned > 0 else 1))

    def node(self, node_id: int) -> NodeView:
        return self._node_views((node_id,))[0]

    @property
    def nodes(self) -> tuple[NodeView, ...]:
        return self._node_views(tuple(self._workers))

    def _node_views(self, node_ids: tuple[int, ...]) -> tuple[NodeView, ...]:
        workers = [self._workers[n] for n in node_ids]  # KeyError if absent
        task = self.task
        present = (self._directory.present_bytes_for(task.inputs, node_ids)
                   if task is not None and task.inputs else None)
        return tuple(
            NodeView(node_id=node_id, alive=worker.alive,
                     owned_cores=worker.arbiter.owned_count(worker.key),
                     active_tasks=worker.assigned - worker.blocked_bodies,
                     bytes_present=present[node_id] if present is not None
                     else 0)
            for node_id, worker in zip(node_ids, workers))


class _TaskHandle:
    """The :class:`~repro.policies.TaskView` of one task for one call.

    ``choose_worker`` gets the scheduler's one handle, re-pointed at each
    placement; ``drain_order`` gets one handle per queued task.
    """

    __slots__ = ("task", "_scheduler")

    def __init__(self, scheduler: "AppRankScheduler",
                 task: Optional[Task] = None) -> None:
        self.task = task
        self._scheduler = scheduler

    @property
    def task_id(self) -> int:
        return self.task.task_id

    @property
    def input_bytes(self) -> int:
        return self.task.input_bytes

    def by_locality(self) -> tuple[int, ...]:
        return self._scheduler.locality_order(self.task)


class AppRankScheduler:
    """Placement mechanism for one apprank's ready tasks."""

    def __init__(self, sim: Simulator, apprank: int, home_node: int,
                 workers: dict[int, Worker], directory: DataDirectory,
                 network: NetworkModel, config: "RuntimeConfig",
                 obs: Optional["Observability"] = None,
                 policy: Optional[OffloadPolicy] = None,
                 validator: Optional["Sanitizer"] = None) -> None:
        self.sim = sim
        self.apprank = apprank
        self.home_node = home_node
        self.workers = workers            # node_id -> Worker (graph-adjacent)
        self.directory = directory
        self.network = network
        self.config = config
        self.obs = obs
        self.validator = validator
        #: the pure placement strategy (from the registry unless injected)
        self.policy: OffloadPolicy = (
            policy if policy is not None
            else OFFLOAD_POLICIES.create(config.offload_policy))
        self.queue: deque[Task] = deque()
        self.tasks_offloaded = 0
        self.tasks_kept_home = 0
        self._draining = False
        #: set by :class:`repro.faults.FaultInjector`; when present, remote
        #: dispatches use the acknowledged (timeout + backoff) protocol
        self.faults: Optional["FaultInjector"] = None
        self._dispatches: dict[Task, _OffloadDispatch] = {}
        self.offload_resends = 0
        #: cached placement order for input-less tasks (invalidated when
        #: the worker set changes); see :meth:`locality_order`
        self._zero_order: Optional[tuple] = None
        #: the one read-only view every policy call is handed
        self.view = _LiveView(self)
        self._handle = _TaskHandle(self)

    # -- entry points -------------------------------------------------------

    def on_ready(self, task: Task) -> None:
        """Dependency system callback: *task* is now satisfiable."""
        if self.obs is not None:
            task.ready_time = self.sim.now
        if task.pinned_node is not None:
            # §3.2: non-offloadable children are fixed on the same node as
            # their parent, wherever the parent happened to execute.
            self._assign(task, task.pinned_node)
            return
        if not task.offloadable:
            # Non-offloadable tasks are pinned to the home node regardless
            # of its load (the §4 contract for MPI-calling tasks).
            self._assign(task, self.home_node)
            return
        node = self._place(task)
        if node is None:
            self.queue.append(task)
            if self.obs is not None:
                self.obs.queue_depth(self.apprank, self.home_node,
                                     len(self.queue))
        else:
            self._assign(task, node)

    def drain(self) -> None:
        """Retry spilled tasks (§5.5 "stolen as tasks complete").

        Tasks are attempted in the policy's
        :meth:`~repro.policies.OffloadPolicy.drain_order`; the drain
        stops at the first ``QUEUE`` decision (with the default FIFO
        order this is exactly the seed's head-of-queue drain).
        """
        if self._draining or not self.queue:
            return
        self._draining = True
        try:
            self._drain_once()
        finally:
            self._draining = False

    def _drain_once(self) -> None:
        items = list(self.queue)
        if type(self.policy).drain_order is OffloadPolicy.drain_order:
            # The base-class order is the identity (FIFO): skip building
            # the task handles the policy would ignore.
            order = range(len(items))
        else:
            self.view.task = None
            order = list(self.policy.drain_order(
                tuple(_TaskHandle(self, t) for t in items), self.view))
            if sorted(order) != list(range(len(items))):
                raise PolicyError(
                    f"{self.policy.name!r}.drain_order returned {order!r}, not "
                    f"a permutation of range({len(items)})")
        for position in order:
            task = items[position]
            if task not in self.queue:
                # A zero-delay assignment above can complete synchronously
                # and steal (or place) later snapshot entries re-entrantly;
                # anything no longer queued has already been handled.
                continue
            node = self._place(task, drained=True)
            if node is None:
                break
            self.queue.remove(task)
            self._assign(task, node)
            if self.obs is not None:
                self.obs.queue_depth(self.apprank, self.home_node,
                                     len(self.queue))

    def steal_for(self, worker: Worker) -> bool:
        """§5.5: queued tasks "will be stolen as tasks complete".

        Called by a worker at a task completion when it has nothing ready:
        it pulls the next queued task to itself *regardless* of the
        placement policy. This is mechanism, deliberately outside the
        policy: the submission-time decision ignores LeWI-borrowed cores
        (they may vanish, §5.5), but a core that just finished a task
        here is demonstrably available right now.
        """
        if not self.queue:
            return False
        if self.obs is not None:
            self.obs.policy_decision(self.policy.name, "stolen")
        self._assign(self.queue.popleft(), worker.node_id)
        if self.obs is not None:
            self.obs.queue_depth(self.apprank, self.home_node,
                                 len(self.queue))
        return True

    @property
    def queued(self) -> int:
        """Tasks waiting in the spill queue."""
        return len(self.queue)

    # -- policy consultation -------------------------------------------------

    def _place(self, task: Task, drained: bool = False) -> Optional[int]:
        """Ask the policy; validate; return a node id or None (= spill)."""
        view, handle = self.view, self._handle
        view.task = handle.task = task
        decision = self.policy.choose_worker(handle, view)
        if decision is QUEUE:
            if self.obs is not None and not drained:
                self.obs.policy_decision(self.policy.name, "queue")
            return None
        node_id = self.home_node if decision is KEEP else decision
        if not isinstance(node_id, int) or node_id not in self.workers:
            raise PolicyError(
                f"policy {self.policy.name!r} chose {decision!r}, not an "
                f"adjacent node of apprank {self.apprank}")
        if not self.workers[node_id].alive:
            raise PolicyError(
                f"policy {self.policy.name!r} chose dead node {node_id} "
                f"for {task!r}")
        if self.validator is not None:
            self.validator.placement_decided(task, view.node(node_id),
                                             view.tasks_per_core,
                                             self.policy.name)
        if self.obs is not None:
            outcome = "keep" if node_id == self.home_node else "offload"
            self.obs.policy_decision(
                self.policy.name, f"drained-{outcome}" if drained else outcome)
        return node_id

    def locality_order(self, task: Task) -> tuple[int, ...]:
        """Adjacent node ids in §5.5 order for *task*
        (:func:`~repro.policies.locality_order` of its resident bytes).

        The order only changes when the directory or the worker set
        does, while a spilled task is re-placed on every task completion:
        so it is cached per task, keyed on both (node ids only — workers
        are re-fetched at use time, so a replaced worker object can never
        be served stale). Input-less tasks share one order.
        """
        keys = tuple(self.workers)
        inputs = task.inputs
        if not inputs:
            cached = self._zero_order
            if cached is None or cached[0] != keys:
                self._zero_order = cached = (
                    keys, locality_order(dict.fromkeys(keys, 0),
                                         self.home_node))
            return cached[1]
        version = self.directory.version
        cached = task._place_cache
        if cached is None or cached[0] != version or cached[1] != keys:
            present = self.directory.present_bytes_for(inputs, keys)
            task._place_cache = cached = (
                version, keys, locality_order(present, self.home_node))
        return cached[2]

    # -- binding and data movement -------------------------------------------

    def _assign(self, task: Task, node_id: int) -> None:
        if task.state not in (TaskState.READY, TaskState.CREATED):
            raise SchedulerError(f"assigning {task!r} in state {task.state}")
        worker = self.workers[node_id]
        task.state = TaskState.ASSIGNED
        task.assigned_node = node_id
        task._place_cache = None      # only a queued task is placed again
        worker.notify_assigned()
        if node_id == self.home_node:
            self.tasks_kept_home += 1
        else:
            self.tasks_offloaded += 1
        if node_id != self.home_node:
            # Every remote send goes through one dispatch record; with a
            # fault model the control message may be lost, so the dispatch
            # is additionally tracked, acknowledged and re-sent on timeout.
            dispatch = _OffloadDispatch(task, worker)
            if self.faults is not None:
                task.state = TaskState.TRANSFERRING
                self._dispatches[task] = dispatch
            self._send(dispatch)
            return
        # Home placement: no control message, so the dispatch delay is
        # purely the eager pull of remotely-written inputs. The steady
        # local case (``missing == 0``) hands off synchronously — no
        # other directory mutation can interleave — which makes the
        # delivery-time ``record_copy_in`` a provable no-op: skip it and
        # the second region walk it would cost.
        missing = self.directory.bytes_missing_at(task.inputs, node_id)
        if missing == 0:
            worker.enqueue(task)
            return
        delay = self.network.transfer_time(missing)
        if delay <= 0.0:
            self._deliver(task, worker, None)
        else:
            task.state = TaskState.TRANSFERRING
            sim = self.sim
            sim.schedule(delay, partial(self._deliver, task, worker, None),
                         label=(f"task-dispatch:{task.task_id}"
                                if sim.labels else ""))

    def _dispatch_delay(self, task: Task, node_id: int) -> float:
        """Offload control message plus eager input copies (§3.2)."""
        delay = 0.0
        if node_id != self.home_node:
            delay += self.network.control_message_time()
        missing = self.directory.bytes_missing_at(task.inputs, node_id)
        if missing > 0:
            delay += self.network.transfer_time(missing)
        return delay

    def _deliver(self, task: Task, worker: Worker,
                 sent_at: Optional[float] = None) -> None:
        if self.obs is not None and sent_at is not None:
            self.obs.offload_dispatched(task, self.home_node, worker.node_id,
                                        start=sent_at)
        self.directory.record_copy_in(task.inputs, worker.node_id)
        worker.enqueue(task)

    # -- the shared remote-dispatch path ------------------------------------

    def _send(self, dispatch: _OffloadDispatch) -> None:
        """(Re-)send one remote dispatch.

        The send/first-send timestamps and attempt counter live on the
        dispatch record for both modes. Without a fault model the send is
        reliable: one delivery, no acknowledgement traffic. With one,
        each attempt draws send/ack loss from the fault model's dedicated
        RNG stream, the acknowledgement timer backs off exponentially,
        and past ``max_retries`` re-sends the task is declared lost.
        """
        task = dispatch.task
        dispatch.attempt += 1
        if dispatch.attempt > self.config.max_retries + 1:
            del self._dispatches[task]
            raise TaskLostError(
                f"offload of {task!r} to node {task.assigned_node} went "
                f"unacknowledged {self.config.max_retries + 1} times",
                task=task)
        dispatch.sent_at = self.sim.now
        if dispatch.attempt == 1:
            dispatch.first_sent = self.sim.now
        else:
            self.offload_resends += 1
            if self.obs is not None:
                self.obs.offload_resent(task, dispatch.attempt)
        delay = self._dispatch_delay(task, task.assigned_node)
        if self.faults is None:
            sent_at = dispatch.sent_at
            if delay <= 0.0:
                self._deliver(task, dispatch.worker, sent_at)
            else:
                task.state = TaskState.TRANSFERRING
                sim = self.sim
                # A partial, not a closure over ``dispatch``: the Event
                # is stored in ``dispatch.delivery``, and a closure would
                # make the pair a cycle only the cyclic GC can free.
                dispatch.delivery = sim.schedule(
                    delay, partial(self._deliver, task, dispatch.worker,
                                   sent_at),
                    label=(f"task-dispatch:{task.task_id}"
                           if sim.labels else ""))
            return
        send_lost = self.faults.offload_send_lost()
        ack_lost = self.faults.offload_ack_lost()
        ack_rtt = delay + self.network.control_message_time()
        if not send_lost:
            dispatch.delivery = self.sim.schedule(
                delay, lambda: self._offload_deliver(dispatch),
                label=f"offload-send:{task.task_id}")
            if not ack_lost:
                dispatch.ack = self.sim.schedule(
                    ack_rtt, lambda: self._offload_acked(dispatch),
                    label=f"offload-ack:{task.task_id}")
        # Never time out before a healthy round trip could complete: the
        # ack (scheduled first) wins a same-time tie against the timer.
        timeout = (max(self.config.offload_ack_timeout, ack_rtt)
                   * self.config.offload_backoff ** (dispatch.attempt - 1))
        dispatch.timer = self.sim.schedule(
            timeout, lambda: self._offload_timeout(dispatch),
            label=f"offload-timer:{task.task_id}")

    def _offload_deliver(self, dispatch: _OffloadDispatch) -> None:
        dispatch.delivery = None
        task = dispatch.task
        if task.state is not TaskState.TRANSFERRING:
            return      # duplicate: an earlier attempt already arrived
        if not dispatch.worker.alive:
            return      # worker crashed; crash recovery re-places the task
        self._deliver(task, dispatch.worker, dispatch.sent_at)

    def _offload_acked(self, dispatch: _OffloadDispatch) -> None:
        dispatch.ack = None
        if self._dispatches.get(dispatch.task) is not dispatch:
            return      # superseded (task recovered and re-dispatched)
        dispatch.acked = True
        if self.obs is not None:
            self.obs.offload_acked(dispatch.task,
                                   rtt=self.sim.now - dispatch.first_sent,
                                   attempts=dispatch.attempt)
        if dispatch.timer is not None:
            self.sim.cancel(dispatch.timer)
            dispatch.timer = None
        del self._dispatches[dispatch.task]

    def _offload_timeout(self, dispatch: _OffloadDispatch) -> None:
        dispatch.timer = None
        if dispatch.acked or self._dispatches.get(dispatch.task) is not dispatch:
            return
        if dispatch.task.state is not TaskState.TRANSFERRING:
            # The worker demonstrably received the dispatch (the task
            # started or even finished there): its later protocol traffic
            # implicitly acks the offload, so only the explicit ack was
            # lost — stop re-sending instead of counting down to a bogus
            # TaskLostError for a task that is executing.
            del self._dispatches[dispatch.task]
            return
        self._send(dispatch)

    def recover_dispatches(self, node_id: int) -> list[Task]:
        """Crash recovery: cancel in-flight offloads to a dead node.

        Returns the tasks still in flight (state ``TRANSFERRING``) so the
        runtime can re-place them; tasks that already arrived are returned
        by ``Worker.kill`` instead, never by both paths.
        """
        lost: list[Task] = []
        for task, dispatch in list(self._dispatches.items()):
            if task.assigned_node != node_id:
                continue
            for event in (dispatch.timer, dispatch.delivery, dispatch.ack):
                if event is not None:
                    self.sim.cancel(event)
            del self._dispatches[task]
            if task.state is TaskState.TRANSFERRING:
                lost.append(task)
        return lost

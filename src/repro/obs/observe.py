"""The instrumentation facade the runtime layers emit through.

One :class:`Observability` per :class:`~repro.nanos.runtime.ClusterRuntime`
bundles the structured :class:`~repro.obs.bus.EventBus`, the
:class:`~repro.obs.metrics.MetricsRegistry` and the busy/owned step series
of the paper's trace figures (:attr:`Observability.trace`, a
:class:`~repro.metrics.trace.TraceRecorder`), and gives every layer a
purpose-named emission method so the event taxonomy lives here rather
than being scattered across call sites. Every runtime hook is guarded by
``if obs is not None``: the ``obs`` runtime flag constructs this object,
and the runtime's layers emit through it; nothing else records.

Track conventions (what renders where in Perfetto):

* task execution: ``(node, "aA/cC")`` — one row per apprank-core pair;
* MPI blocking calls: ``(node, "rankR:mpi")``;
* MPI transport: async spans on ``(dst_node, "rankR:net")``;
* DROM ownership plateaus: ``(node, "aA:own")``;
* LeWI instants: ``(node, "dlb")``; faults: ``(node, "faults")``;
* simulator processes: ``(-1, "proc:<name>")`` on the global pseudo-node.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from ..metrics.trace import TraceRecorder
from .bus import EventBus
from .events import (CAT_DLB, CAT_FAULT, CAT_MPI, CAT_RUNTIME, CAT_SCHED,
                     CAT_TASK, Track)
from .metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..nanos.task import Task
    from ..sim.engine import Simulator

__all__ = ["Observability"]


class Observability:
    """Event bus + metrics registry + trace series + the emission vocabulary."""

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.bus = EventBus(clock=lambda: sim.now)
        self.metrics = MetricsRegistry()
        #: busy/owned core step series per (node, apprank) (Figs 5, 9, 11)
        self.trace = TraceRecorder()
        #: (node, apprank) -> (owned count, plateau start) for DROM spans
        self._ownership: dict[tuple[int, int], tuple[int, float]] = {}
        #: process name -> stack of span starts (names can be reused)
        self._processes: dict[str, list[float]] = {}
        self._async_seq = 0
        self.finished = False

    def _next_async_id(self) -> int:
        self._async_seq += 1
        return self._async_seq

    # -- sim.engine ---------------------------------------------------------

    def process_started(self, name: str) -> None:
        self._processes.setdefault(name, []).append(self.sim.now)

    def process_finished(self, name: str) -> None:
        starts = self._processes.get(name)
        if not starts:
            return
        self.bus.emit_span(name, CAT_RUNTIME, Track(-1, f"proc:{name}"),
                           start=starts.pop())

    # -- nanos: task lifecycle ----------------------------------------------

    def task_executed(self, task: "Task", node: int, core: int,
                      start: float, end: float) -> None:
        """One task ran to completion on (node, core) over [start, end]."""
        args: dict[str, Any] = {
            "task_id": task.task_id,
            "apprank": task.apprank,
            "node": node,
            "work": task.work,
        }
        ready = getattr(task, "ready_time", None)
        if ready is not None:
            args["ready"] = ready
            self.metrics.histogram("task.wait_time").observe(start - ready)
        if task.pred_ids:
            args["preds"] = list(task.pred_ids)
        if task.retries:
            args["retries"] = task.retries
        self.bus.emit_span(task.label or f"task{task.task_id}", CAT_TASK,
                           Track(node, f"a{task.apprank}/c{core}"),
                           start=start, end=end, **args)
        self.metrics.counter("task.executed").add()
        self.metrics.histogram("task.run_time").observe(end - start)

    def dep_release(self, task: "Task", released: list["Task"]) -> None:
        """*task* finishing made *released* satisfiable."""
        self.bus.emit_instant(
            "dep-release", CAT_TASK, Track(-1, f"deps:a{task.apprank}"),
            task_id=task.task_id, released=[t.task_id for t in released])
        self.metrics.counter("task.dependency_releases").add(len(released))

    # -- nanos: scheduler ---------------------------------------------------

    def offload_dispatched(self, task: "Task", src_node: int, dst_node: int,
                           start: float) -> None:
        """An offload dispatch arrived at its worker (span = in-flight time)."""
        self.bus.emit_span(
            "offload", CAT_SCHED, Track(dst_node, f"a{task.apprank}:off"),
            start=start, task_id=task.task_id, src=src_node, dst=dst_node,
            async_id=self._next_async_id())
        self.metrics.counter("sched.offload_dispatches").add()

    def offload_acked(self, task: "Task", rtt: float, attempts: int) -> None:
        """Resilient protocol: the dispatch→ack round trip completed."""
        self.bus.emit_instant(
            "offload-ack", CAT_SCHED,
            Track(-1, f"sched:a{task.apprank}"),
            task_id=task.task_id, rtt=rtt, attempts=attempts)
        self.metrics.histogram("sched.offload_rtt").observe(rtt)

    def offload_resent(self, task: "Task", attempt: int) -> None:
        self.bus.emit_instant(
            "offload-resend", CAT_SCHED, Track(-1, f"sched:a{task.apprank}"),
            task_id=task.task_id, attempt=attempt)
        self.metrics.counter("sched.offload_resends").add()

    def policy_decision(self, policy: str, outcome: str) -> None:
        """One offload-policy decision, attributed per policy name.

        Counters only (``policy.<name>.<outcome>``) — no trace events are
        emitted, so enabling attribution cannot perturb event ordering.
        Outcomes: ``keep``/``offload``/``queue`` at submission,
        ``drained-keep``/``drained-offload`` from the spill queue,
        ``stolen`` for completion-time steals.
        """
        self.metrics.counter(f"policy.{policy}.{outcome}").add()

    def queue_depth(self, apprank: int, home_node: int, depth: int) -> None:
        """Spill-queue depth changed (counter track per apprank)."""
        self.bus.emit_counter(f"queued:a{apprank}",
                              Track(home_node, f"a{apprank}"), depth)
        self.metrics.gauge(f"sched.queued.a{apprank}").set(depth)

    # -- mpisim -------------------------------------------------------------

    def mpi_message(self, kind: str, src_rank: int, dst_rank: int,
                    src_node: int, dst_node: int, nbytes: int,
                    start: float, end: Optional[float] = None) -> None:
        """One message delivered (eager arrival or rendezvous completion)."""
        self.bus.emit_span(
            f"msg:{kind}", CAT_MPI, Track(dst_node, f"rank{dst_rank}:net"),
            start=start, end=end, src=src_rank, dst=dst_rank, bytes=nbytes,
            async_id=self._next_async_id())
        self.metrics.counter("mpi.messages").add()
        self.metrics.counter("mpi.bytes").add(nbytes)
        latency = (self.sim.now if end is None else end) - start
        self.metrics.histogram("mpi.message_latency").observe(latency)

    def mpi_call(self, op: str, world_rank: int, node: int,
                 start: float) -> None:
        """A blocking MPI call (send/recv/collective) returned."""
        end = self.sim.now
        self.bus.emit_span(op, CAT_MPI, Track(node, f"rank{world_rank}:mpi"),
                           start=start, end=end, rank=world_rank)
        self.metrics.histogram("mpi.call_time").observe(end - start)
        self.metrics.counter(f"mpi.calls.{op}").add()

    # -- dlb ----------------------------------------------------------------

    def lewi_lend(self, node: int, worker_key: tuple, count: int) -> None:
        self.bus.emit_instant("lend", CAT_DLB, Track(node, "dlb"),
                              apprank=worker_key[0], cores=count)
        self.metrics.counter("dlb.lends").add(count)

    def lewi_borrow(self, node: int, worker_key: tuple) -> None:
        self.bus.emit_instant("borrow", CAT_DLB, Track(node, "dlb"),
                              apprank=worker_key[0])
        self.metrics.counter("dlb.borrows").add()

    def lewi_reclaim(self, node: int, worker_key: tuple) -> None:
        self.bus.emit_instant("reclaim", CAT_DLB, Track(node, "dlb"),
                              apprank=worker_key[0])
        self.metrics.counter("dlb.reclaims").add()

    def worker_retired(self, node: int, worker_key: tuple,
                       cores_moved: int) -> None:
        self.bus.emit_instant("retire", CAT_DLB, Track(node, "dlb"),
                              apprank=worker_key[0], cores_moved=cores_moved)
        self.metrics.counter("dlb.retires").add()

    def borrowed_core_time(self, seconds: float) -> None:
        """A task just finished on a core its worker did not own."""
        self.metrics.counter("dlb.borrowed_core_seconds").add(seconds)

    def ownership_sample(self, node: int, counts: dict) -> None:
        """DROM ownership on *node*: close/open per-worker plateau spans
        and step the owned series.

        *counts* maps worker keys ``(apprank, node)`` to owned-core
        counts (the arbiter's ``ownership_counts()``).
        """
        now = self.sim.now
        for (apprank, _node), count in counts.items():
            state_key = (node, apprank)
            previous = self._ownership.get(state_key)
            if previous is not None:
                old_count, since = previous
                if old_count == count:
                    continue
                if now > since:
                    self._emit_ownership_span(node, apprank, old_count,
                                              since, now)
            self._ownership[state_key] = (count, now)
            self.trace.set_owned(now, node, apprank, count)
            self.bus.emit_counter(f"owned:a{apprank}",
                                  Track(node, f"a{apprank}:own"), count)
        self.metrics.counter("dlb.ownership_samples").add()

    def _emit_ownership_span(self, node: int, apprank: int, count: int,
                             start: float, end: float) -> None:
        self.bus.emit_span(f"own={count}", CAT_DLB,
                           Track(node, f"a{apprank}:own"),
                           start=start, end=end, apprank=apprank, cores=count)

    # -- jobs (multi-job engine) ---------------------------------------------

    def job_event(self, what: str, job_id: int, **detail: Any) -> None:
        """A job lifecycle edge: ``arrived``, ``admitted``, ``finished``."""
        self.bus.emit_instant(f"job-{what}", CAT_SCHED,
                              Track(-1, f"job{job_id}"), job=job_id, **detail)
        self.metrics.counter(f"jobs.{what}").add()

    def jobs_allocation(self, now: float, alloc: dict) -> None:
        """A cross-job DROM allocation was applied (cores per live job)."""
        for job_id, cores in sorted(alloc.items()):
            self.bus.emit_counter(f"cores:job{job_id}",
                                  Track(-1, f"job{job_id}:cores"), cores)
        self.metrics.counter("jobs.reallocations").add()
        self.metrics.gauge("jobs.live").set(len(alloc))

    # -- faults -------------------------------------------------------------

    def fault(self, kind: str, node: int = -1, apprank: int = -1,
              **detail: Any) -> None:
        """A fault was injected or a recovery action ran."""
        args = dict(detail)
        if apprank >= 0:
            args["apprank"] = apprank
        self.bus.emit_instant(kind, CAT_FAULT, Track(node, "faults"), **args)
        self.metrics.counter(f"faults.{kind}").add()

    # -- lifecycle ----------------------------------------------------------

    def finish(self, end_time: Optional[float] = None) -> None:
        """Close open ownership plateaus and process spans (idempotent)."""
        if self.finished:
            return
        self.finished = True
        end = self.sim.now if end_time is None else end_time
        for (node, apprank), (count, since) in sorted(self._ownership.items()):
            if end > since:
                self._emit_ownership_span(node, apprank, count, since, end)
        self._ownership.clear()
        for name, starts in sorted(self._processes.items()):
            for start in starts:
                self.bus.emit_span(name, CAT_RUNTIME,
                                   Track(-1, f"proc:{name}"),
                                   start=start, end=max(end, start),
                                   unfinished=True)
        self._processes.clear()

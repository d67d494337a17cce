"""Fault execution: turning a :class:`FaultPlan` into simulated events.

The :class:`FaultInjector` is created by :class:`ClusterRuntime` when a
non-empty plan is supplied and armed from ``start()``. It schedules the
deterministic faults (crashes, degradations) on the simulated clock,
installs the :class:`MessageFaultModel` on the MPI world, hooks solver
failures into the global policy, and switches every apprank scheduler to
the acknowledged offload protocol. All stochastic draws come from named
streams of one seeded :class:`~repro.sim.rng.RngRegistry`, so a plan replays
identically and adding one fault type never perturbs the draws of another.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

import numpy as np

from ..sim.rng import RngRegistry
from .plan import FaultPlan, MessageFaultSpec, NodeCrash, WorkerCrash

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..mpisim.message import Envelope
    from ..nanos.runtime import ClusterRuntime
    from ..nanos.task import Task

__all__ = ["FaultInjector", "MessageFaultModel"]


class MessageFaultModel:
    """Per-message fault draws for the MPI transport.

    Installed on :class:`repro.mpisim.world.MpiWorld`; consulted only for
    inter-node messages. Losses never hang MPI matching: the link is lossy
    but the transport is reliable, so each drop costs one retransmit round
    trip of extra latency (drawn geometrically — a message can pay
    several). Duplicates are delivered twice and deduplicated at the
    receiver by envelope sequence number.
    """

    def __init__(self, spec: MessageFaultSpec, rng: np.random.Generator,
                 retransmit_time: float) -> None:
        self.spec = spec
        self.rng = rng
        self.retransmit_time = retransmit_time
        #: envelope seq -> copies sent, for receiver-side deduplication
        self._dup_copies: dict[int, int] = {}
        self._arrived: dict[int, int] = {}
        self.drops = 0
        self.delays = 0
        self.duplicates = 0
        self.suppressed = 0

    def on_send(self, env: "Envelope", allow_duplicate: bool) -> tuple[float, int]:
        """Draw this message's fate: (extra delay, copies to deliver).

        *allow_duplicate* is False on the rendezvous path — the RTS/CTS
        handshake deduplicates naturally, so only eager messages can be
        duplicated.
        """
        spec = self.spec
        extra = 0.0
        while spec.p_loss > 0 and float(self.rng.random()) < spec.p_loss:
            self.drops += 1
            extra += self.retransmit_time
        if spec.p_delay > 0 and float(self.rng.random()) < spec.p_delay:
            self.delays += 1
            extra += float(self.rng.exponential(spec.mean_delay))
        copies = 1
        if (allow_duplicate and spec.p_duplicate > 0
                and float(self.rng.random()) < spec.p_duplicate):
            self.duplicates += 1
            copies = 2
            self._dup_copies[env.seq] = copies
        return extra, copies

    def accept(self, env: "Envelope") -> bool:
        """Receiver-side dedupe: True for the first arrival of a message."""
        copies = self._dup_copies.get(env.seq)
        if copies is None:
            return True
        arrived = self._arrived.get(env.seq, 0) + 1
        if arrived >= copies:
            del self._dup_copies[env.seq]
            self._arrived.pop(env.seq, None)
        else:
            self._arrived[env.seq] = arrived
        if arrived == 1:
            return True
        self.suppressed += 1
        return False

    def stats(self) -> dict[str, int]:
        return {
            "drops": self.drops,
            "delays": self.delays,
            "duplicates": self.duplicates,
            "suppressed": self.suppressed,
        }


class FaultInjector:
    """Arms one fault plan against one :class:`ClusterRuntime`."""

    def __init__(self, runtime: "ClusterRuntime", plan: FaultPlan) -> None:
        self.runtime = runtime
        self.plan = plan
        self.rng = RngRegistry(plan.seed)
        self.message_model: Optional[MessageFaultModel] = None
        self._offload_stream = self.rng.stream("faults.offload")
        self._solver_stream = self.rng.stream("faults.solver")
        self._offload_loss = (plan.messages.offload_loss
                              if plan.messages is not None else 0.0)
        self._solver_ticks = 0
        self.armed = False
        #: (time, description) per executed crash
        self.crash_log: list[tuple[float, str]] = []
        #: tasks that were lost and re-submitted (for recovery timing)
        self.lost_tasks: list["Task"] = []

    # -- wiring --------------------------------------------------------------

    def arm(self) -> None:
        """Schedule the plan's events and install the stochastic hooks."""
        if self.armed:
            return
        self.armed = True
        runtime = self.runtime
        sim = runtime.sim
        for crash in self.plan.crashes:
            if isinstance(crash, WorkerCrash):
                sim.schedule_at(
                    crash.time, lambda c=crash: self._crash_worker(c),
                    label=f"fault-crash:a{crash.apprank}n{crash.node}")
            else:
                sim.schedule_at(crash.time,
                                lambda c=crash: self._crash_node(c),
                                label=f"fault-crash:n{crash.node}")
        for degradation in self.plan.degradations:
            sim.schedule_at(degradation.time,
                            lambda d=degradation: self._degrade(d),
                            label=f"fault-degrade:n{degradation.node}")
        if self.plan.messages is not None:
            net = runtime.cluster.network
            self.message_model = MessageFaultModel(
                self.plan.messages, self.rng.stream("faults.msg"),
                retransmit_time=2 * (net.latency_s + net.overhead_s))
            runtime.world.fault_model = self.message_model
        if self.plan.solver is not None and runtime.policy is not None \
                and hasattr(runtime.policy, "fault_hook"):
            runtime.policy.fault_hook = self.solver_fails
        # The acknowledged offload protocol is the recovery substrate for
        # both lost control messages and crashed workers, so every fault
        # run uses it (an empty plan never constructs an injector at all).
        for apprank_rt in runtime.appranks:
            apprank_rt.scheduler.faults = self

    # -- deterministic faults -------------------------------------------------

    def _crash_worker(self, crash: WorkerCrash) -> None:
        self.crash_log.append(
            (self.runtime.sim.now, f"worker:a{crash.apprank}n{crash.node}"))
        self.runtime.crash_worker(crash.apprank, crash.node)

    def _crash_node(self, crash: NodeCrash) -> None:
        self.crash_log.append((self.runtime.sim.now, f"node:n{crash.node}"))
        self.runtime.crash_node(crash.node)

    def _degrade(self, degradation) -> None:
        node = self.runtime.cluster.node(degradation.node)
        previous = node.speed
        node.set_speed(degradation.speed)
        obs = self.runtime.obs
        if obs is not None:
            obs.fault("degrade", node=degradation.node,
                      speed=degradation.speed)
        if degradation.duration is not None:
            def restore() -> None:
                node.set_speed(previous)
                if obs is not None:
                    obs.fault("degrade-end", node=degradation.node,
                              speed=previous)
            self.runtime.sim.schedule(
                degradation.duration, restore,
                label=f"fault-degrade-end:n{degradation.node}")

    # -- stochastic draws ------------------------------------------------------

    def offload_send_lost(self) -> bool:
        """Does this offload control message get lost?"""
        p = self._offload_loss
        return p > 0 and float(self._offload_stream.random()) < p

    def offload_ack_lost(self) -> bool:
        """Does the acknowledgement of a delivered offload get lost?"""
        p = self._offload_loss
        return p > 0 and float(self._offload_stream.random()) < p

    def solver_fails(self) -> bool:
        """Global-policy hook: does this LP solve fail?"""
        self._solver_ticks += 1
        spec = self.plan.solver
        if spec is None:
            return False
        if spec.fail_ticks:
            return self._solver_ticks in spec.fail_ticks
        return (spec.p_fail > 0
                and float(self._solver_stream.random()) < spec.p_fail)

    # -- recovery accounting ---------------------------------------------------

    def note_recovered(self, task: "Task") -> None:
        """Runtime callback: *task* was lost and re-submitted."""
        self.lost_tasks.append(task)

    def recovery_time(self) -> Optional[float]:
        """Seconds from the first crash until the last lost task finished."""
        if not self.crash_log or not self.lost_tasks:
            return None
        finishes = [t.finish_time for t in self.lost_tasks
                    if t.finish_time is not None]
        if not finishes:
            return None
        return max(finishes) - min(t for t, _ in self.crash_log)

    def stats(self) -> dict[str, Any]:
        stats: dict[str, Any] = {
            "crashes": len(self.crash_log),
            "tasks_lost": len(self.lost_tasks),
            "recovery_time": self.recovery_time(),
        }
        if self.message_model is not None:
            stats["messages"] = self.message_model.stats()
        policy = self.runtime.policy
        if policy is not None and hasattr(policy, "fallbacks"):
            stats["solver_fallbacks"] = policy.fallbacks
        return stats

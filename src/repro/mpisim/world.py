"""The MPI "world": ranks, their placement on nodes, and message transport.

:class:`MpiWorld` owns the per-rank endpoints and implements the transport
timing described in :mod:`repro.mpisim.comm`. It also knows the distinction
the paper's architecture introduces (§4, Figure 2): the *world* contains
both application ranks and helper ranks, while the application only ever
sees the **app communicator** containing the appranks — the analogue of
``nanos6_app_communicator()``.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Generator, Optional, Sequence

from ..cluster.topology import Cluster
from ..errors import CommunicatorError, MpiError
from ..sim.engine import Process, Simulator
from ..sim.events import EventPriority
from .comm import Communicator, Endpoint, Request, _PendingSend, _PostedRecv
from .message import Envelope

__all__ = ["MpiWorld"]


class MpiWorld:
    """All simulated MPI state for one run."""

    def __init__(self, sim: Simulator, cluster: Cluster,
                 rank_to_node: Sequence[int]) -> None:
        for node_id in rank_to_node:
            cluster.node(node_id)  # range check
        self.sim = sim
        self.cluster = cluster
        self.rank_to_node = list(rank_to_node)
        self._endpoints = [Endpoint(r) for r in range(len(self.rank_to_node))]
        self._comms: dict[int, Communicator] = {}
        #: split-collective deduplication: one Communicator per split group
        self._split_registry: dict = {}
        self._next_comm_id = 0
        self._msg_seq = 0
        #: TALP interception hook: called as hook(world_rank, seconds) with
        #: the time a blocking MPI call spent on the simulated clock
        self.talp_hook = None
        #: structured instrumentation (:class:`repro.obs.Observability`) or
        #: None; set by the cluster runtime on observed runs only
        self.obs = None
        #: invariant sanitizer (:class:`repro.validate.Sanitizer`) or None;
        #: notified of every envelope send and endpoint arrival
        self.validator = None
        #: fault injection: a :class:`repro.faults.MessageFaultModel` (or
        #: None); consulted for inter-node messages only
        self.fault_model = None
        #: cumulative bytes injected, by (src_node == dst_node)
        self.bytes_intra_node = 0
        self.bytes_inter_node = 0
        self.messages_sent = 0
        self.world_comm = self.create_comm(list(range(self.size)), name="world")

    @property
    def size(self) -> int:
        return len(self.rank_to_node)

    def node_of(self, world_rank: int) -> int:
        """Compute node hosting *world_rank*."""
        if not 0 <= world_rank < self.size:
            raise MpiError(f"world rank {world_rank} out of range")
        return self.rank_to_node[world_rank]

    # -- communicator management -----------------------------------------

    def create_comm(self, world_ranks: list[int], name: str = "") -> Communicator:
        """New communicator over *world_ranks* (renumbered from 0)."""
        for wr in world_ranks:
            if not 0 <= wr < self.size:
                raise CommunicatorError(f"world rank {wr} out of range")
        comm_id = self._next_comm_id
        self._next_comm_id += 1
        comm = Communicator(self, comm_id, world_ranks, name=name)
        self._comms[comm_id] = comm
        return comm

    # -- transport ---------------------------------------------------------

    def _endpoint(self, world_rank: int) -> Endpoint:
        return self._endpoints[world_rank]

    def _next_msg_seq(self) -> int:
        self._msg_seq += 1
        return self._msg_seq

    def _transfer_time(self, src_w: int, dst_w: int, nbytes: int) -> float:
        src_node = self.node_of(src_w)
        dst_node = self.node_of(dst_w)
        net = self.cluster.network
        if src_node == dst_node:
            return net.local_copy_time(nbytes)
        return net.transfer_time(nbytes)

    def _latency(self, src_w: int, dst_w: int) -> float:
        net = self.cluster.network
        if self.node_of(src_w) == self.node_of(dst_w):
            return net.overhead_s
        return net.latency_s + net.overhead_s

    def _account(self, src_w: int, dst_w: int, nbytes: int) -> None:
        self.messages_sent += 1
        if self.node_of(src_w) == self.node_of(dst_w):
            self.bytes_intra_node += nbytes
        else:
            self.bytes_inter_node += nbytes

    def _post_send(self, env: Envelope) -> Request:
        """Start a send; returns the sender-side request."""
        request = Request(self.sim, "send")
        self._account(env.src, env.dst, env.nbytes)
        if self.validator is not None:
            self.validator.msg_sent(env)
        inter_node = self.node_of(env.src) != self.node_of(env.dst)
        eager = not inter_node or self.cluster.network.is_eager(env.nbytes)
        extra, copies = 0.0, 1
        if self.fault_model is not None and inter_node:
            extra, copies = self.fault_model.on_send(env, allow_duplicate=eager)
        sent_at = self.sim.now
        if eager:
            # Buffered at the sender: local completion after injection overhead.
            self.sim.schedule(self.cluster.network.overhead_s,
                              partial(request._complete, None),
                              label="send-local-complete")
            arrival = self._transfer_time(env.src, env.dst, env.nbytes) + extra
            for _copy in range(copies):
                self.sim.schedule(arrival,
                                  partial(self._arrive_eager, env, sent_at),
                                  priority=EventPriority.DELIVERY,
                                  label="msg-arrival")
        else:
            pending = _PendingSend(env, request, sent_at)
            rts_delay = self._latency(env.src, env.dst) + extra
            self.sim.schedule(rts_delay,
                              partial(self._arrive_rendezvous, pending),
                              priority=EventPriority.DELIVERY, label="rts-arrival")
        return request

    def _arrive_eager(self, env: Envelope,
                      sent_at: Optional[float] = None) -> None:
        if self.fault_model is not None and not self.fault_model.accept(env):
            return      # duplicate of a message already delivered
        if self.validator is not None:
            self.validator.msg_delivered(env)
        if self.obs is not None and sent_at is not None:
            self.obs.mpi_message(
                "eager", env.src, env.dst, self.node_of(env.src),
                self.node_of(env.dst), env.nbytes, start=sent_at)
        endpoint = self._endpoint(env.dst)
        recv = endpoint.match_arrival(env)
        if recv is None:
            endpoint.unexpected.append((env, None))
        else:
            # Payload already on the node: the receive completes now (the
            # unpack overhead is inside transfer_time already).
            recv.request._complete(env.payload)

    def _arrive_rendezvous(self, pending: _PendingSend) -> None:
        env = pending.envelope
        if self.validator is not None:
            self.validator.msg_delivered(env)
        endpoint = self._endpoint(env.dst)
        recv = endpoint.match_arrival(env)
        if recv is None:
            endpoint.unexpected.append((env, pending))
        else:
            self._finish_rendezvous(pending, recv)

    def _finish_rendezvous(self, pending: _PendingSend, recv: _PostedRecv) -> None:
        """Matched rendezvous: CTS back + payload over; both sides complete."""
        env = pending.envelope
        cts = self._latency(env.dst, env.src)
        payload_time = self._transfer_time(env.src, env.dst, env.nbytes)
        total = cts + payload_time
        if self.obs is not None:
            self.obs.mpi_message(
                "rdv", env.src, env.dst, self.node_of(env.src),
                self.node_of(env.dst), env.nbytes,
                start=pending.sent_at, end=self.sim.now + total)
        self.sim.schedule(total, partial(recv.request._complete, env.payload),
                          priority=EventPriority.DELIVERY, label="rdv-recv-complete")
        self.sim.schedule(total, partial(pending.request._complete, None),
                          priority=EventPriority.DELIVERY, label="rdv-send-complete")

    def _post_recv(self, dst_w: int, src_w: int, tag: int, comm_id: int) -> Request:
        request = Request(self.sim, "recv")
        endpoint = self._endpoint(dst_w)
        hit = endpoint.match_recv(src_w, tag, comm_id)
        if hit is None:
            endpoint.posted.append(
                _PostedRecv(src_w, tag, comm_id, request, self.sim.now))
        else:
            env, pending = hit
            if pending is None:
                # Eager payload was waiting: small unpack cost only.
                self.sim.schedule(self.cluster.network.overhead_s,
                                  partial(request._complete, env.payload),
                                  priority=EventPriority.DELIVERY,
                                  label="recv-late-complete")
            else:
                self._finish_rendezvous(
                    pending, _PostedRecv(src_w, tag, comm_id, request, self.sim.now))
        return request

    # -- SPMD launching -----------------------------------------------------

    def launch(self, main: Callable[..., Generator[Any, Any, Any]],
               comm: Optional[Communicator] = None,
               args: tuple = ()) -> list[Process]:
        """Spawn ``main(rank_comm, *args)`` once per rank of *comm*.

        Mirrors ``mpirun``: every rank gets its own coroutine process and a
        per-rank communicator view. Returns the processes (join them with
        ``sim.run_all``).
        """
        comm = comm or self.world_comm
        processes = []
        for rank in range(comm.size):
            rank_comm = comm.view(rank)
            gen = main(rank_comm, *args)
            processes.append(self.sim.spawn(gen, name=f"{comm.name}-rank{rank}"))
        return processes

    def run_spmd(self, main: Callable[..., Generator[Any, Any, Any]],
                 comm: Optional[Communicator] = None,
                 args: tuple = ()) -> list[Any]:
        """Launch + run to completion; returns each rank's return value."""
        processes = self.launch(main, comm=comm, args=args)
        self.sim.run_all(processes)
        return [p.result for p in processes]

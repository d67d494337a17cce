"""n-body simulator workload (Figure 6(c): Nord3 with one slow node).

ORB gives every apprank (nearly) equal *work* each timestep. On a uniform
cluster that is perfect balance; with one node clocked at 1.8 GHz instead
of 3.0 GHz, the equal-work split becomes an equal-*time* imbalance that
ORB's interaction-count cost model cannot see. The slow node is part of
the :class:`~repro.cluster.topology.ClusterSpec` (real hardware slowness,
unlike the synthetic §7.5 emulation), so the runtime's node-speed scaling
applies to whatever tasks land there.

Sampling: residuals and per-task jitter come from generators seeded by
``(seed, pair or apprank, timestep)``, with one direct uniform draw each.
There is no rejection loop and no fallback, so every spec yields its
modelled distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator

import numpy as np

from ...errors import WorkloadError
from ...mpisim.comm import RankComm
from ...nanos.apprank import AppRankRuntime
from ...nanos.task import AccessType, DataAccess

__all__ = ["NBodySpec", "rank_residual", "block_durations", "apprank_loads",
           "nbody_main", "make_nbody_app"]

#: bytes per body on the wire (position + velocity + mass, doubles)
BYTES_PER_BODY = 7 * 8


@dataclass(frozen=True)
class NBodySpec:
    """One n-body run configuration for the simulator."""

    num_appranks: int
    cores_per_apprank: int
    #: bodies per apprank (weak scaling keeps this constant)
    bodies_per_apprank: int = 4096
    #: force-task granularity: bodies per task
    bodies_per_task: int = 256
    #: nominal force cost per body per step at speed 1.0, seconds
    cost_per_body: float = 0.4e-3
    timesteps: int = 4
    #: per-task interaction-count jitter (tree-geometry noise), fraction
    orb_jitter: float = 0.03
    #: ORB cost-model residual, fraction. ORB's final bisection splits a
    #: parent region whose total work it knows from last step's counts, but
    #: the cut position mispredicts how the work divides — so *sibling*
    #: partitions (which land on the same node) get anticorrelated errors:
    #: one sibling +d, the other -d, while the pair's total is much tighter
    #: (error j/3). Node-level pooling (LeWI) removes exactly the ±d part,
    #: which is how single-node DLB gains ~16% on n-body in Figure 6(c).
    rank_jitter: float = 0.35
    seed: int = 11

    def __post_init__(self) -> None:
        if self.num_appranks < 1 or self.cores_per_apprank < 1:
            raise WorkloadError("need at least one apprank and core")
        if self.bodies_per_apprank < self.bodies_per_task:
            raise WorkloadError("bodies_per_apprank must cover one task")
        if self.bodies_per_task < 1 or self.cost_per_body <= 0:
            raise WorkloadError("invalid task granularity or cost")
        if not 0 <= self.orb_jitter < 1:
            raise WorkloadError("orb_jitter must be in [0, 1)")
        if not 0 <= self.rank_jitter < 1:
            raise WorkloadError("rank_jitter must be in [0, 1)")

    @property
    def tasks_per_apprank(self) -> int:
        return self.bodies_per_apprank // self.bodies_per_task


def rank_residual(spec: NBodySpec, apprank: int, timestep: int) -> float:
    """ORB residual factor for one apprank at one step.

    Sibling partitions (consecutive appranks, co-located on one node) share
    a parent-region factor ``g ~ U[1 - j/3, 1 + j/3]`` and split the
    bisection error ``d ~ U[0, j]`` with opposite signs: ``g + d`` and
    ``g - d``. Errors re-draw every step (ORB repartitions per timestep).
    """
    pair = apprank // 2
    rng = np.random.default_rng(
        spec.seed * 1_000_003 + pair * 1009 + timestep)
    j = spec.rank_jitter
    parent = rng.uniform(1.0 - j / 3.0, 1.0 + j / 3.0)
    split_error = rng.uniform(0.0, j)
    sign = 1.0 if apprank % 2 == 0 else -1.0
    return parent + sign * split_error


def block_durations(spec: NBodySpec, apprank: int, timestep: int) -> np.ndarray:
    """Nominal per-task durations for one apprank at one timestep.

    Per-rank totals carry the ORB residual (see :func:`rank_residual`);
    per-task values add small tree-geometry jitter.
    """
    rng = np.random.default_rng(
        spec.seed * 2_000_003 + apprank * 1013 + timestep)
    base = spec.cost_per_body * spec.bodies_per_task
    rank_factor = rank_residual(spec, apprank, timestep)
    jitter = rng.uniform(1.0 - spec.orb_jitter, 1.0 + spec.orb_jitter,
                         size=spec.tasks_per_apprank)
    return base * rank_factor * jitter


def apprank_loads(spec: NBodySpec, timestep: int = 0) -> np.ndarray:
    """Per-apprank nominal work (core·s) at one step — near-equal by ORB."""
    return np.array([block_durations(spec, a, timestep).sum()
                     for a in range(spec.num_appranks)])


def nbody_main(comm: RankComm, rt: AppRankRuntime,
               spec: NBodySpec) -> Generator[Any, Any, dict]:
    """SPMD main: per timestep, force tasks + taskwait + position exchange.

    The allgather models the boundary/position exchange that follows each
    step in the real code (each rank needs remote positions to build its
    tree next step).
    """
    bytes_per_block = spec.bodies_per_task * BYTES_PER_BODY
    exchange_bytes = spec.bodies_per_apprank * BYTES_PER_BODY
    iteration_times: list[float] = []
    for step in range(spec.timesteps):
        t0 = comm.sim.now
        durations = block_durations(spec, comm.rank, step)
        for i, duration in enumerate(durations):
            base = i * bytes_per_block
            rt.submit(work=float(duration),
                      accesses=(DataAccess(AccessType.INOUT, base,
                                           base + bytes_per_block),),
                      label=f"force-{step}-{i}")
        yield from rt.taskwait()
        _positions = yield from comm.allgather(
            np.empty(0))  # payload size modelled explicitly below
        # Account the exchange volume with an explicit sized message round.
        if comm.size > 1:
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            sreq = comm.isend(None, right, tag=900 + step % 64,
                              nbytes=exchange_bytes)
            rreq = comm.irecv(left, tag=900 + step % 64)
            yield rreq.signal
            yield sreq.signal
        iteration_times.append(comm.sim.now - t0)
    return {"iteration_times": iteration_times, "stats": rt.stats()}


def make_nbody_app(spec: NBodySpec):
    """Bind *spec* for :meth:`ClusterRuntime.run_app`."""
    def main(comm: RankComm, rt: AppRankRuntime):
        result = yield from nbody_main(comm, rt, spec)
        return result
    return main

"""Figure 5: local vs global coarse-grained allocation traces (§5.4).

Two appranks on two nodes run a two-phase workload: an *unbalanced* phase
(almost all computation on apprank 0) followed by a *balanced* phase. Both
policies balance the unbalanced phase; the difference is the balanced
phase — the local policy keeps offloading tasks (both appranks execute on
both nodes) while the global policy's home-core incentive converges to no
offloading at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator

from ..apps.synthetic import DEFAULT_TASK_BYTES
from ..cluster.machine import MARENOSTRUM4
from ..mpisim.comm import RankComm
from ..nanos.apprank import AppRankRuntime
from ..nanos.config import RuntimeConfig
from ..nanos.task import AccessType, DataAccess
from .base import MEDIUM, ResultTable, Scale, run_workload

__all__ = ["run", "TwoPhaseSpec"]


@dataclass(frozen=True)
class TwoPhaseSpec:
    """Unbalanced phase then balanced phase (Figure 5's kernel pair)."""

    tasks_per_core: int
    cores_per_apprank: int
    iterations_per_phase: int = 3
    mean_duration: float = 0.05
    #: apprank 0's share of the phase-1 work (phase 2 is 50/50)
    unbalanced_share: float = 0.9

    @property
    def tasks_per_apprank(self) -> int:
        return self.tasks_per_core * self.cores_per_apprank


def _two_phase_main(comm: RankComm, rt: AppRankRuntime,
                    spec: TwoPhaseSpec) -> Generator[Any, Any, dict]:
    def phase(duration: float, iterations: int):
        for _ in range(iterations):
            for i in range(spec.tasks_per_apprank):
                base = i * DEFAULT_TASK_BYTES
                rt.submit(work=duration,
                          accesses=(DataAccess(AccessType.INOUT, base,
                                               base + DEFAULT_TASK_BYTES),))
            yield from rt.taskwait()
            yield from comm.barrier()

    share = spec.unbalanced_share if comm.rank == 0 else 1 - spec.unbalanced_share
    unbalanced_duration = 2 * spec.mean_duration * share
    phase1_start = comm.sim.now
    yield from phase(unbalanced_duration, spec.iterations_per_phase)
    offloaded_phase1 = rt.scheduler.tasks_offloaded
    phase2_start = comm.sim.now
    yield from phase(spec.mean_duration, spec.iterations_per_phase)
    return {
        "iteration_times": [comm.sim.now - phase1_start],   # harness contract
        "phase1_time": phase2_start - phase1_start,
        "phase2_time": comm.sim.now - phase2_start,
        "offloaded_phase1": offloaded_phase1,
        "offloaded_phase2": rt.scheduler.tasks_offloaded - offloaded_phase1,
        "stats": rt.stats(),
    }


def run(scale: Scale = MEDIUM,
        policies: tuple[str, ...] = ("local", "global")) -> ResultTable:
    """Regenerate Figure 5's comparison (plus the trace data).

    The discriminating metric is ``remote_frac_phase2``: the fraction of
    phase-2 execution (busy core·seconds) each apprank ran *away from its
    home node*. Both policies balance phase 1; the global policy's
    home-core incentive removes remote execution once the load is
    balanced, the local policy keeps cross-executing (Figure 5a vs 5b).
    """
    machine = scale.machine(MARENOSTRUM4)
    spec = TwoPhaseSpec(tasks_per_core=scale.tasks_per_core,
                        cores_per_apprank=machine.cores_per_node,
                        iterations_per_phase=max(4, scale.iterations))
    table = ResultTable(
        title=f"Figure 5: coarse-grained policy comparison (scale={scale.name})",
        columns=["policy", "total_time", "phase1_time", "phase2_time",
                 "remote_frac_phase2", "offloaded_phase2"])
    table.runtimes = {}  # type: ignore[attr-defined]  (trace handles for plotting)
    for policy in policies:
        config = scale.tune(RuntimeConfig.offloading(2, policy, obs=True))
        result = run_workload(machine, 2, 1, config,
                              lambda s=spec: (lambda comm, rt:
                                              _two_phase_main(comm, rt, s)))
        ranks = result.rank_results
        phase1_time = max(r["phase1_time"] for r in ranks)
        table.add(policy=policy, total_time=result.elapsed,
                  phase1_time=phase1_time,
                  phase2_time=max(r["phase2_time"] for r in ranks),
                  remote_frac_phase2=_remote_fraction(
                      result.runtime, phase1_time, result.elapsed),
                  offloaded_phase2=sum(r["offloaded_phase2"] for r in ranks))
        table.runtimes[policy] = result.runtime  # type: ignore[attr-defined]
    table.note("remote_frac_phase2: share of phase-2 busy core-seconds run "
               "off-home; the global policy drives this toward 0 (Fig 5b)")
    return table


def _remote_fraction(runtime, start: float, end: float) -> float:
    """Fraction of busy core·seconds executed away from the home node."""
    trace = runtime.obs.trace
    remote = total = 0.0
    for node in trace.nodes("busy"):
        for apprank in trace.appranks_on_node("busy", node):
            work = trace.series("busy", node, apprank).integrate(start, end)
            total += work
            if runtime.graph.home_node(apprank) != node:
                remote += work
    return remote / total if total > 0 else 0.0


def main() -> None:  # pragma: no cover - CLI entry
    print(run().format())


if __name__ == "__main__":  # pragma: no cover
    main()

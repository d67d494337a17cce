"""Observed (instrumented) single runs for ``python -m repro trace``.

Each target names one representative workload run with the full
:mod:`repro.obs` instrumentation enabled (``config.obs=True``): the
headline MicroPP configuration, the synthetic imbalance benchmark, the
n-body slow-node case, and a resilience run with an active fault plan.
The run produces a Chrome trace-event JSON (loadable in Perfetto), an
optional Paraver triple, a metrics snapshot, and the critical-path
makespan breakdown.

These runs are deliberately single configurations, not sweeps: a trace
of one execution is the artefact, the figure experiments measure the
comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from ..apps.micropp.workload import MicroppSpec, make_micropp_app
from ..apps.nbody.workload import NBodySpec, make_nbody_app
from ..apps.synthetic import SyntheticSpec, make_synthetic_app
from ..cluster.machine import MARENOSTRUM4, NORD3
from ..errors import ExperimentError
from ..faults.plan import FaultPlan
from ..nanos.config import RuntimeConfig
from .base import SMALL, RunResult, Scale, run_workload

if TYPE_CHECKING:  # pragma: no cover - typing only
    # Runtime imports of repro.obs are kept lazy (inside run()) so that
    # merely importing repro.experiments never loads the subsystem — the
    # zero-overhead guarantee for uninstrumented runs.
    from ..obs import CriticalPathReport

__all__ = ["TRACE_TARGETS", "TraceRun", "run"]

#: workloads ``python -m repro trace`` can record
TRACE_TARGETS = ("headline", "synthetic", "nbody", "resilience")


@dataclass
class TraceRun:
    """One observed run plus its analysis artefacts."""

    name: str
    result: RunResult
    report: "CriticalPathReport"
    chrome_path: Optional[Path] = None
    paraver_paths: Optional[dict[str, Path]] = None

    @property
    def obs(self):
        return self.result.runtime.obs

    def format(self) -> str:
        """The CLI report: record counts, key metrics, critical path."""
        bus = self.obs.bus
        summary = bus.summary()
        lines = [f"Observed run '{self.name}': "
                 f"makespan {self.result.elapsed:.6f}s, "
                 f"{summary['spans']} spans, {summary['instants']} instants, "
                 f"{summary['counter_samples']} counter samples"]
        counters = self.obs.metrics.snapshot()["counters"]
        for name in ("task.executed", "mpi.messages", "mpi.bytes",
                     "dlb.borrowed_core_seconds"):
            if name in counters:
                lines.append(f"  {name:<26} {counters[name]:g}")
        lines.append(self.report.format())
        if self.chrome_path is not None:
            lines.append(f"# wrote {self.chrome_path}")
        if self.paraver_paths is not None:
            for path in self.paraver_paths.values():
                lines.append(f"# wrote {path}")
        return "\n".join(lines)


def _workload(name: str, scale: Scale, config_faults: Optional[FaultPlan]
              ) -> tuple[RunResult, Optional[FaultPlan]]:
    """Build and run the named workload with instrumentation enabled."""
    if name == "headline":
        machine = scale.machine(MARENOSTRUM4)
        nodes = 8
        spec = MicroppSpec(
            num_appranks=nodes, cores_per_apprank=machine.cores_per_node,
            subdomains_per_core=scale.micropp_subdomains_per_core,
            iterations=scale.iterations, seed=7)
        config = scale.tune(RuntimeConfig.offloading(4, "global", obs=True))
        return run_workload(machine, nodes, 1, config,
                            lambda: make_micropp_app(spec)), None
    if name == "synthetic":
        machine = scale.machine(MARENOSTRUM4)
        spec = SyntheticSpec(num_appranks=8, imbalance=2.0,
                             cores_per_apprank=machine.cores_per_node,
                             tasks_per_core=scale.tasks_per_core,
                             iterations=scale.iterations)
        config = scale.tune(RuntimeConfig.offloading(4, "global", obs=True))
        return run_workload(machine, 8, 1, config,
                            lambda: make_synthetic_app(spec)), None
    if name == "nbody":
        nord = scale.machine(NORD3)
        nodes, per_node = 8, 2
        spec = NBodySpec(
            num_appranks=nodes * per_node,
            cores_per_apprank=nord.cores_per_node // per_node,
            bodies_per_apprank=(64 * scale.tasks_per_core
                                * (nord.cores_per_node // per_node) // 2),
            bodies_per_task=64, timesteps=scale.iterations)
        config = scale.tune(RuntimeConfig.offloading(3, "global", obs=True))
        slow = {0: 1.8 / NORD3.base_freq_ghz}
        return run_workload(nord, nodes, per_node, config,
                            lambda: make_nbody_app(spec),
                            slow_nodes=slow), None
    if name == "resilience":
        machine = scale.machine(MARENOSTRUM4)
        spec = SyntheticSpec(num_appranks=4, imbalance=1.5,
                             cores_per_apprank=machine.cores_per_node,
                             tasks_per_core=scale.tasks_per_core,
                             iterations=scale.iterations)
        config = scale.tune(RuntimeConfig.offloading(2, "global", obs=True))
        faults = config_faults
        if faults is None:
            faults = FaultPlan.parse(
                "crash:apprank=0,node=1,t=0.05;msg:offload_loss=0.05",
                seed=7)
        return run_workload(machine, 4, 1, config,
                            lambda: make_synthetic_app(spec),
                            faults=faults), faults
    raise ExperimentError(f"unknown trace target {name!r} "
                          f"(choose from {TRACE_TARGETS})")


def run(name: str, scale: Scale = SMALL,
        out: Optional[Path] = None,
        paraver: Optional[Path] = None,
        faults: Optional[FaultPlan] = None) -> TraceRun:
    """Run one observed workload; export and analyse its trace.

    *out* writes the Chrome trace-event JSON, *paraver* a Paraver triple
    (``paraver``.prv/.pcf/.row) of the busy/owned series ``obs.trace``
    with the bus's fault instants as point events. The returned report's
    breakdown is checked to sum to the makespan.
    """
    from ..obs import CAT_FAULT, critical_path, export_chrome_trace
    result, _ = _workload(name, scale, faults)
    runtime = result.runtime
    obs = runtime.obs
    if obs is None:
        raise ExperimentError("trace run built without config.obs")
    report = critical_path(obs.bus, makespan=runtime.elapsed)
    report.check()
    chrome_path = None
    if out is not None:
        out = Path(out)
        export_chrome_trace(obs, out)
        chrome_path = out
    paraver_paths = None
    if paraver is not None:
        from ..metrics.paraver import export_paraver
        paraver_paths = export_paraver(obs.trace, runtime.elapsed,
                                       Path(paraver),
                                       obs.bus.instants_of(CAT_FAULT))
    return TraceRun(name=name, result=result, report=report,
                    chrome_path=chrome_path, paraver_paths=paraver_paths)

"""Figure 11: convergence of node imbalance over time (§7.6).

Two scenarios — two nodes at imbalance 2.0 and four nodes at imbalance
4.0 — under five mechanism combinations. The plotted signal is
``max(node load) / avg(node load)`` where load is the windowed average of
busy cores per node.

Paper claims reproduced: DROM (either policy) drives the node imbalance to
~1.0; LeWI alone plateaus around ~1.2; the local policy converges faster
than the global one (it acts continuously, the solver every 2 s); LeWI
accelerates the local policy's convergence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..apps.synthetic import SyntheticSpec, make_synthetic_app
from ..cluster.machine import MARENOSTRUM4
from ..metrics.imbalance import node_imbalance_series
from ..nanos.config import RuntimeConfig
from .base import MEDIUM, ResultTable, Scale, run_workload

__all__ = ["run", "CONFIGS", "convergence_metrics"]

#: label -> (policy, lewi, drom)
CONFIGS = (
    ("local+lewi+drom", "local", True, True),
    ("local+drom", "local", False, True),
    ("global+lewi+drom", "global", True, True),
    ("global+drom", "global", False, True),
    ("lewi-only", None, True, False),
)

#: windowing for the load signal, seconds
LOAD_WINDOW = 0.5


@dataclass(frozen=True)
class ConvergenceMetrics:
    plateau: float             # mean imbalance over the last 30% of the run
    time_to_near_one: float    # first time imbalance stays below 1.15 (inf if never)


def convergence_metrics(times: np.ndarray, series: np.ndarray,
                        threshold: float = 1.15) -> ConvergenceMetrics:
    """Summarise one imbalance time series (NaN = idle, ignored)."""
    valid = ~np.isnan(series)
    # Drop the final 10%: the end-of-run drain empties nodes unevenly and
    # spikes the signal in a way that says nothing about convergence.
    valid[int(len(valid) * 0.9):] = False
    if not valid.any():
        return ConvergenceMetrics(plateau=1.0, time_to_near_one=0.0)
    vt = times[valid]
    vs = series[valid]
    tail = vs[int(len(vs) * 0.7):]
    plateau = float(tail.mean()) if len(tail) else float(vs[-1])
    below = vs <= threshold
    time_to = float("inf")
    # first index from which the signal stays below the threshold
    for i in range(len(below)):
        if below[i:].all():
            time_to = float(vt[i])
            break
    return ConvergenceMetrics(plateau=plateau, time_to_near_one=time_to)


def run(scale: Scale = MEDIUM,
        scenarios: tuple[tuple[int, float], ...] = ((2, 2.0), (4, 4.0)),
        seed: int = 1234) -> ResultTable:
    """Regenerate the Figure 11 time-series study."""
    machine = scale.machine(MARENOSTRUM4)
    window = max(0.2, 10 * scale.local_period)
    table = ResultTable(
        title=f"Figure 11: node-imbalance convergence (scale={scale.name})",
        columns=["nodes", "app_imbalance", "config", "plateau",
                 "time_to_near_1", "elapsed"])
    table.series = {}  # type: ignore[attr-defined]  (for plotting examples)
    for num_nodes, app_imbalance in scenarios:
        spec = SyntheticSpec(
            num_appranks=num_nodes, imbalance=app_imbalance,
            cores_per_apprank=machine.cores_per_node,
            tasks_per_core=scale.tasks_per_core,
            iterations=max(scale.iterations, 6), seed=seed)
        for label, policy, lewi, drom in CONFIGS:
            degree = min(4, num_nodes)
            while degree > 2 and not scale.feasible(degree, 1):
                degree -= 1
            config = scale.tune(RuntimeConfig(
                offload_degree=degree, lewi=lewi, drom=drom,
                policy=policy if drom else None, obs=True))
            result = run_workload(machine, num_nodes, 1, config,
                                  lambda s=spec: make_synthetic_app(s))
            trace = result.runtime.obs.trace
            busy = trace.busy_by_node(range(num_nodes))
            times = np.linspace(window, result.elapsed, 200)
            series = node_imbalance_series(
                busy, times, window=window,
                min_avg_load=0.1 * machine.cores_per_node)
            metrics = convergence_metrics(times, series)
            table.add(nodes=num_nodes, app_imbalance=app_imbalance,
                      config=label, plateau=metrics.plateau,
                      time_to_near_1=metrics.time_to_near_one,
                      elapsed=result.elapsed)
            key = (num_nodes, label)
            table.series[key] = (times, series)  # type: ignore[attr-defined]
    table.note("plateau = mean node imbalance over the final 30% of the run")
    table.note("paper: DROM configs converge to ~1.0, LeWI-only plateaus ~1.2")
    return table


def main() -> None:  # pragma: no cover - CLI entry
    print(run().format())


if __name__ == "__main__":  # pragma: no cover
    main()

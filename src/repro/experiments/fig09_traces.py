"""Figure 9: LeWI / DROM ablation on MicroPP traces (§7.4).

Four appranks on four nodes, offloading degree 2:

* (a,b) baseline MPI+OmpSs-2 — imbalance visible, static ownership;
* (c,d) LeWI only — borrowing idle remote cores cuts time to ~83% of
  baseline, ownership static;
* (e,f) DROM only — ownership converges to the steady imbalance, ~65%;
* (g)   LeWI + DROM — LeWI reacts in the first iterations, DROM locks in
  the steady state; the best of both.

The run returns both the timing table and the instrumented runtimes so
the example scripts can render the busy/owned timelines
(``runtime.obs.trace``).
"""

from __future__ import annotations

from ..apps.micropp.workload import MicroppSpec, make_micropp_app
from ..cluster.machine import MARENOSTRUM4
from ..nanos.config import RuntimeConfig
from .base import MEDIUM, ResultTable, Scale, run_workload

__all__ = ["run", "ABLATIONS"]

#: label -> (lewi, drom) flags; policy is global when DROM is on (§7.4 note:
#: "the same effect occurs with the local policy").
ABLATIONS = (
    ("baseline", False, False),
    ("lewi", True, False),
    ("drom", False, True),
    ("lewi+drom", True, True),
)


def run(scale: Scale = MEDIUM, num_nodes: int = 4, degree: int = 2,
        policy: str = "global", seed: int = 7) -> ResultTable:
    """Regenerate the Figure 9 ablation."""
    machine = scale.machine(MARENOSTRUM4)
    spec = MicroppSpec(
        num_appranks=num_nodes, cores_per_apprank=machine.cores_per_node,
        subdomains_per_core=scale.micropp_subdomains_per_core,
        iterations=max(scale.iterations, 4), seed=seed)
    table = ResultTable(
        title=f"Figure 9: LeWI/DROM ablation on MicroPP "
              f"(scale={scale.name}, {num_nodes} nodes, degree {degree})",
        columns=["config", "time", "relative_to_baseline",
                 "offloaded", "lewi_borrows", "drom_cores_moved"])
    table.runtimes = {}  # type: ignore[attr-defined]
    baseline_time = None
    for label, lewi, drom in ABLATIONS:
        if label == "baseline":
            config = scale.tune(RuntimeConfig.baseline(obs=True))
        else:
            config = scale.tune(RuntimeConfig(
                offload_degree=degree, lewi=lewi, drom=drom,
                policy=policy if drom else None, obs=True))
        result = run_workload(machine, num_nodes, 1, config,
                              lambda s=spec: make_micropp_app(s))
        if baseline_time is None:
            baseline_time = result.elapsed
        stats = result.runtime.stats()
        table.add(config=label, time=result.elapsed,
                  relative_to_baseline=result.elapsed / baseline_time,
                  offloaded=stats["offloaded"],
                  lewi_borrows=stats["lewi"]["borrows"],
                  drom_cores_moved=stats["drom_cores_moved"])
        table.runtimes[label] = result.runtime  # type: ignore[attr-defined]
    table.note("paper: LeWI-only ~0.83x, DROM-only ~0.65x of baseline; "
               "LeWI+DROM the best")
    return table


def main() -> None:  # pragma: no cover - CLI entry
    print(run().format())


if __name__ == "__main__":  # pragma: no cover
    main()

"""Bench: Figure 9 — LeWI/DROM ablation traces (§7.4)."""

from repro.experiments import fig09_traces

from .conftest import BENCH, run_once


def test_fig09_lewi_drom_ablation(benchmark):
    table = run_once(benchmark, fig09_traces.run, BENCH)
    print()
    print(table.format())
    rel = {r["config"]: r["relative_to_baseline"] for r in table.rows}
    # paper: baseline 1.0, LeWI ~0.83, DROM ~0.65, combination best
    assert rel["baseline"] == 1.0
    assert 0.70 < rel["lewi"] < 1.0
    assert rel["drom"] < rel["lewi"]
    assert rel["lewi+drom"] == min(rel.values())
    # trace recorders are attached for rendering
    for runtime in table.runtimes.values():
        assert runtime.obs.trace.nodes("busy")

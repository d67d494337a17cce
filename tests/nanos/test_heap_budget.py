"""Heap budget: a run must leave refcounting, not the cyclic GC, to free it.

Each workload runs once to warm every cache (expander graphs, memoised
durations), then again with the cyclic collector disabled while its
result, and so the runtime, is still referenced. Two numbers per task
are bounded:

* **cyclic garbage** — what ``gc.collect()`` then frees: objects the run
  made unreachable, but only through reference cycles (closures over
  their own Event, for instance). Refcounting frees everything else the
  moment it dies;
* **live growth** — the rise in ``len(gc.get_objects())`` over the run:
  GC-tracked objects the run keeps (the dependency frontier, the
  locality directory), which every full collection must traverse.

Measured on CPython 3.11 (cyclic garbage, live growth per task):
synthetic 0.12 and 5.2, micropp 0.30 and 6.1. Before the lifetime rules
of DESIGN.md §11 they were 6.3 and 16.9, and 4.5 and 14.8. The bounds
sit between the two, with room for interpreter differences on the
passing side.
"""

import gc

import pytest

from repro.apps.micropp.workload import MicroppSpec, make_micropp_app
from repro.apps.synthetic import SyntheticSpec, make_synthetic_app
from repro.cluster import MARENOSTRUM4
from repro.experiments.base import run_workload
from repro.nanos import RuntimeConfig

MACHINE = MARENOSTRUM4.scaled(8)

#: cyclic garbage per task; micropp pays a fixed ~80 objects per run
#: (the app's own processes) on only 256 tasks
MAX_CYCLIC_PER_TASK = {"synthetic": 1.0, "micropp": 1.5}
#: growth of the GC-tracked heap per task while the result is referenced
MAX_GROWTH_PER_TASK = 9.0


def run_synthetic():
    spec = SyntheticSpec(num_appranks=8, imbalance=2.0, cores_per_apprank=8,
                         tasks_per_core=10, iterations=2)
    return run_workload(MACHINE, 8, 1, RuntimeConfig.offloading(4, "global"),
                        lambda: make_synthetic_app(spec))


def run_micropp():
    spec = MicroppSpec(num_appranks=4, cores_per_apprank=8,
                       subdomains_per_core=4, iterations=2, seed=7)
    config = RuntimeConfig.offloading(2, "global", local_period=0.02,
                                      global_period=0.2)
    return run_workload(MACHINE, 4, 1, config,
                        lambda: make_micropp_app(spec))


def heap_per_task(run):
    """(cyclic garbage, live growth) per task of one warm run of *run*."""
    run()
    was_enabled = gc.isenabled()
    gc.collect()
    try:
        gc.disable()
        before = len(gc.get_objects())
        result = run()
        growth = len(gc.get_objects()) - before
        cyclic = gc.collect()
    finally:
        if was_enabled:
            gc.enable()
    tasks = result.runtime.stats()["tasks"]
    assert tasks > 0
    return cyclic / tasks, growth / tasks


@pytest.mark.parametrize("name, run", [("synthetic", run_synthetic),
                                       ("micropp", run_micropp)])
def test_run_heap_is_freed_by_refcounting(name, run):
    cyclic, growth = heap_per_task(run)
    assert cyclic < MAX_CYCLIC_PER_TASK[name], (
        f"{name}: {cyclic:.2f} objects per task left to the cyclic GC")
    assert growth < MAX_GROWTH_PER_TASK, (
        f"{name}: the run keeps {growth:.2f} tracked objects per task")

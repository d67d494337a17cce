"""The benchmark's three workloads: inputs from a seed, one run, its check.

Each workload is the paper configuration named in ``BENCHMARK.json``.
:meth:`Workload.build` turns the benchmark seed into the program's inputs
(specs, configs, an arrival trace); :meth:`Workload.run` is one timed
repeat, from built inputs to the returned result; :meth:`Workload.check`
reduces a result to its simulated fingerprint and lists what is wrong
with it. Simulated outcomes are correctness checks, never metrics.

The seed *offsets* the program's own seeds (``MicroppSpec.seed``,
``SyntheticSpec.seed``, the trace generator seed), so seed 0 is the
paper configuration exactly. Heavy modules are imported inside the
functions: the cold-start probe times ``import repro`` plus
:meth:`Workload.build`, and must not pay for this module's imports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

#: the seed every published figure uses, and one kept out of tuning
DEFAULT_SEED = 0
HELD_OUT_SEED = 9001

#: synthetic-64n runs one iteration: at MEDIUM scale that is 25.6k tasks
#: and ~37k events, already the longest single-app repeat
SYNTHETIC_ITERATIONS = 1

#: jobs-800 trace: 800 Poisson arrivals at 0.5 jobs/s
JOBS_TRACE = "poisson:seed={seed},rate=0.5,n={n}"
JOBS_COUNT = 800


@dataclass(frozen=True)
class Workload:
    """One workload: how to build, run and check it."""

    build: Callable[[int], dict]
    run: Callable[[dict], Any]
    check: Callable[[dict, Any], tuple[dict, list[str]]]
    #: called before every repeat, outside the timed region
    before_repeat: Callable[[], None] = lambda: None


def _assert_untapped(config) -> None:
    """Timed runs measure what ships: every instrumentation tap is off."""
    armed = [tap for tap in ("perf", "obs", "validate", "trace")
             if getattr(config, tap)]
    if armed:
        raise RuntimeError(f"benchmark config arms {', '.join(armed)}")


# -- single-application workloads ------------------------------------------

def _build_micropp(seed: int) -> dict:
    from repro.apps.micropp.workload import MicroppSpec, make_micropp_app
    from repro.cluster.machine import MARENOSTRUM4
    from repro.experiments.base import MEDIUM
    from repro.nanos.config import RuntimeConfig
    machine = MEDIUM.machine(MARENOSTRUM4)
    spec = MicroppSpec(num_appranks=16,
                       cores_per_apprank=machine.cores_per_node,
                       subdomains_per_core=MEDIUM.micropp_subdomains_per_core,
                       iterations=MEDIUM.iterations, seed=7 + seed)
    config = MEDIUM.tune(RuntimeConfig.offloading(4, "global"))
    _assert_untapped(config)
    return {"machine": machine, "nodes": 16, "config": config,
            "app": lambda: make_micropp_app(spec)}


def _build_synthetic(seed: int) -> dict:
    from repro.apps.synthetic import SyntheticSpec, make_synthetic_app
    from repro.cluster.machine import MARENOSTRUM4
    from repro.experiments.base import MEDIUM
    from repro.nanos.config import RuntimeConfig
    machine = MEDIUM.machine(MARENOSTRUM4)
    spec = SyntheticSpec(num_appranks=64, imbalance=2.0,
                         cores_per_apprank=machine.cores_per_node,
                         tasks_per_core=MEDIUM.tasks_per_core,
                         iterations=SYNTHETIC_ITERATIONS, seed=1234 + seed)
    config = MEDIUM.tune(RuntimeConfig.offloading(4, "global"))
    _assert_untapped(config)
    return {"machine": machine, "nodes": 64, "config": config,
            "app": lambda: make_synthetic_app(spec)}


def _run_app(inputs: dict):
    from repro.experiments.base import run_workload
    return run_workload(inputs["machine"], inputs["nodes"], 1,
                        inputs["config"], inputs["app"])


def _check_app(inputs: dict, result) -> tuple[dict, list[str]]:
    stats = result.runtime.stats()
    fingerprint = {key: stats[key] for key in
                   ("elapsed", "events", "tasks", "executed", "offloaded",
                    "mpi_messages")}
    errors = []
    if stats["executed"] != stats["tasks"]:
        errors.append(f"executed {stats['executed']} != tasks "
                      f"{stats['tasks']}")
    if not stats["tasks"] or (stats["elapsed"] or 0.0) <= 0.0:
        errors.append(f"empty run: {fingerprint}")
    return fingerprint, errors


# -- multi-job workload ----------------------------------------------------

def _build_jobs(seed: int) -> dict:
    from repro.jobs import JobTrace
    trace = JobTrace.parse(JOBS_TRACE.format(seed=1 + seed, n=JOBS_COUNT))
    return {"trace": trace}


def _run_jobs(inputs: dict):
    from repro.experiments.base import SMALL
    from repro.jobs import run_trace
    return run_trace(inputs["trace"], policy="global", scale=SMALL)


def _check_jobs(inputs: dict, result) -> tuple[dict, list[str]]:
    fingerprint = {"jobs": result.fingerprint(),
                   "makespan": result.makespan,
                   "reallocations": result.reallocations}
    errors = []
    finished = [r for r in result.records
                if r.finish is not None and r.finish >= r.arrival]
    if len(finished) != len(inputs["trace"]) or len(finished) != JOBS_COUNT:
        errors.append(f"{len(finished)} of {JOBS_COUNT} jobs finished")
    return fingerprint, errors


def _clear_profiles() -> None:
    from repro.jobs import clear_profile_cache
    clear_profile_cache()


WORKLOADS: dict[str, Workload] = {
    "micropp-16n": Workload(_build_micropp, _run_app, _check_app),
    "synthetic-64n": Workload(_build_synthetic, _run_app, _check_app),
    "jobs-800": Workload(_build_jobs, _run_jobs, _check_jobs,
                         before_repeat=_clear_profiles),
}

"""What each per-layer metric should move.

``BENCHMARK.json`` holds every metric's name, unit and direction; its
schema has no room for the rationale, so the rationale lives here and the
traced command prints it. ``MOVES`` records, for each per-layer metric,
the end-to-end metric and the workloads it should move, written down
before any optimisation so a later change can cite it by name.
"""

from __future__ import annotations

_SYNTHETIC = "run_s on synthetic-64n"
_NANOS = "run_s on micropp-16n and synthetic-64n; barely jobs-800"
_DLB = "run_s on micropp-16n"
_MPISIM = "light on all three workloads: watch, don't target"
_BALANCE = ("run_s on jobs-800, somewhat synthetic-64n; "
            "micropp-16n unchanged")
_POLICIES = ("run_s on jobs-800; a policy-twin merge raises it on the "
             "other two")
_JOBS = "run_s on jobs-800"

MOVES = {
    "import.scipy_s": "setup_s on every workload",
    "import.networkx_s": "setup_s on every workload",
    "import.repro_s": "setup_s on every workload",
    "runtime.build_s": _SYNTHETIC,
    "apps.generate_calls": _SYNTHETIC + "; ~0 cost on micropp-16n",
    "apps.generate_s": _SYNTHETIC + "; ~0 on micropp-16n",
    "apps.self_s": _SYNTHETIC,
    "sim.events": _SYNTHETIC + " first",
    "sim.cancelled": _SYNTHETIC + " first",
    "sim.cancel_ratio": _SYNTHETIC + " first",
    "sim.self_s": _SYNTHETIC + " first",
    "nanos.tasks": _NANOS,
    "nanos.offloaded": _NANOS,
    "nanos.offload_ratio": _NANOS,
    "nanos.us_per_task": _NANOS,
    "nanos.self_s": _NANOS,
    "dlb.acquire_calls": _DLB,
    "dlb.acquire_hit_ratio": _DLB,
    "dlb.lend_calls": _DLB,
    "dlb.release_calls": _DLB,
    "dlb.drom_changes": _DLB,
    "dlb.self_s": _DLB,
    "mpisim.messages": _MPISIM,
    "mpisim.self_s": _MPISIM,
    "balance.lp_solves": _BALANCE,
    "balance.lp_s": _BALANCE,
    "balance.lp_ms_per_solve": _BALANCE,
    "balance.self_s": _BALANCE,
    "policies.calls": _POLICIES,
    "policies.self_s": _POLICIES,
    "jobs.profiles_run": _JOBS,
    "jobs.profile_hit_ratio": _JOBS,
    "jobs.profile_s": _JOBS,
    "jobs.arbitrations": _JOBS,
    "jobs.arbitrate_s": _JOBS,
    "jobs.reallocations": _JOBS,
    "jobs.self_s": _JOBS,
    "trace.overhead_ratio": "nothing: traced run_s / untraced run_s",
    "trace.unattributed_share":
        "nothing: share of traced run_s no layer covers",
}

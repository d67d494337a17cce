"""Runtime configuration (the paper's ``nanos6.toml`` analogue).

One frozen dataclass selects every mechanism the evaluation ablates:
offloading degree, LeWI, DROM, and the core-allocation policy. The named
constructors build the exact configurations the figures compare.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from ..errors import RuntimeModelError

__all__ = ["RuntimeConfig"]


@dataclass(frozen=True)
class RuntimeConfig:
    """Knobs for one simulated run."""

    #: nodes each apprank may execute on, including its own (§5.2); 1 = no offload
    offload_degree: int = 1
    #: fine-grained lend/borrow of idle cores (§5.3)
    lewi: bool = True
    #: coarse-grained ownership changes (§5.4); policies need this
    drom: bool = True
    #: core-allocation (DROM reallocation) policy: "local" (§5.4.1),
    #: "global" (§5.4.2), any other name in
    #: :data:`repro.policies.REALLOCATION_POLICIES`, or None
    policy: Optional[str] = "global"
    #: §5.5 offload placement policy, by name in
    #: :data:`repro.policies.OFFLOAD_POLICIES` ("tentative" = the paper's)
    offload_policy: str = "tentative"
    #: LeWI lending policy, by name in
    #: :data:`repro.policies.LEND_POLICIES` ("eager" = the paper's)
    lend_policy: str = "eager"
    #: released-core grant-order policy, by name in
    #: :data:`repro.policies.RECLAIM_POLICIES`
    reclaim_policy: str = "owner-first"
    #: local-policy invocation period, seconds ("operates continuously")
    local_period: float = 0.1
    #: global-policy invocation period; the paper runs the solver every 2 s
    global_period: float = 2.0
    #: scheduler threshold: tasks per owned core before spilling (§5.5)
    tasks_per_core: int = 2
    #: seed for expander-graph generation
    graph_seed: int = 0
    #: reuse stored graphs ("each graph is stored for future executions")
    use_graph_cache: bool = True
    #: pull written data back to the home node at taskwait (§3.2: data is
    #: written back when "needed by a task or a taskwait")
    taskwait_writeback: bool = True
    #: model the global solver's gather+solve latency (57 ms at 32 nodes)
    model_solver_cost: bool = True
    #: §5.4.2 home-core incentive: offloaded work counts as (1+penalty)
    offload_penalty: float = 1e-6
    #: §5.4.2 scaling path: solve the global LP in groups of at most this
    #: many nodes ("larger graphs than 32 nodes should be partitioned and
    #: solved in parts"). None = one whole-cluster solve.
    global_partition_nodes: Optional[int] = None
    #: §5.2 "Dynamic work spreading" (the paper's proposed extension):
    #: start at the configured degree and grow helper ranks at runtime
    #: when an apprank's spill queue stays backed up
    dynamic_spreading: bool = False
    #: controller period for dynamic spreading, seconds
    dynamic_period: float = 0.2
    #: backed-up controller ticks before a helper is spawned
    dynamic_patience: int = 2
    #: cap on nodes per apprank that dynamic spreading may reach
    dynamic_max_degree: int = 8
    #: modelled process-spawn latency for a new helper rank, seconds
    dynamic_spawn_latency: float = 0.1
    #: full structured instrumentation (:mod:`repro.obs`): event bus,
    #: metrics registry, busy/owned trace series (Figs 5/9/11),
    #: Chrome/Paraver export, critical-path analysis.
    #: Off by default — disabled runs never even import the subsystem.
    obs: bool = False
    #: invariant sanitizer (:mod:`repro.validate`): asserts clock
    #: monotonicity, message conservation/ordering, dependency and
    #: placement rules, DLB core conservation, and directory coherence
    #: in-line, then replays the task graph against a sequential reference
    #: executor at the end of the run. Purely passive (never schedules
    #: events or consumes randomness), so enabling it does not perturb
    #: timing. Off by default — disabled runs never import the subsystem.
    validate: bool = False
    #: not fields (no annotation, so not settable): there is no in-process
    #: wall-clock recorder, and the busy/owned trace series are recorded
    #: by ``obs``. ``perfbench/workloads.py`` still reads both when it
    #: asserts that every tap of a timed run is off.
    perf = False
    trace = False
    #: resilience: time to wait for an offload acknowledgement before
    #: re-sending (only armed when a fault plan is active)
    offload_ack_timeout: float = 0.05
    #: resilience: multiplier applied to the ack timeout per re-send
    offload_backoff: float = 2.0
    #: resilience: how many times a lost task may be re-submitted before
    #: the runtime surfaces :class:`repro.errors.TaskLostError`
    max_retries: int = 3

    def __post_init__(self) -> None:
        if self.offload_degree < 1:
            raise RuntimeModelError(
                f"offload degree must be >= 1, got {self.offload_degree}")
        # Policy names resolve against the repro.policies registries (the
        # import is deferred to keep this module import-light).
        from ..policies import (LEND_POLICIES, OFFLOAD_POLICIES,
                                REALLOCATION_POLICIES, RECLAIM_POLICIES)
        if self.policy is not None and self.policy not in REALLOCATION_POLICIES:
            raise RuntimeModelError(
                f"unknown policy {self.policy!r}; registered: "
                f"{', '.join(REALLOCATION_POLICIES.names())}")
        for value, registry in ((self.offload_policy, OFFLOAD_POLICIES),
                                (self.lend_policy, LEND_POLICIES),
                                (self.reclaim_policy, RECLAIM_POLICIES)):
            if value not in registry:
                raise RuntimeModelError(
                    f"unknown {registry.kind} policy {value!r}; registered: "
                    f"{', '.join(registry.names())}")
        if self.policy is not None and not self.drom:
            raise RuntimeModelError(
                "core-allocation policies act through DROM; enable drom or "
                "set policy=None")
        if self.tasks_per_core < 1:
            raise RuntimeModelError("tasks_per_core must be >= 1")
        if self.local_period <= 0 or self.global_period <= 0:
            raise RuntimeModelError("policy periods must be positive")
        if self.offload_penalty < 0:
            raise RuntimeModelError("offload penalty must be >= 0")
        if (self.global_partition_nodes is not None
                and self.global_partition_nodes < 1):
            raise RuntimeModelError("global_partition_nodes must be >= 1")
        if self.dynamic_spreading:
            if self.global_partition_nodes is not None:
                raise RuntimeModelError(
                    "dynamic spreading and partitioned solves are mutually "
                    "exclusive (a grown edge may cross any group boundary)")
            if not self.drom:
                raise RuntimeModelError(
                    "dynamic spreading seeds new helpers through DROM")
        if self.dynamic_period <= 0 or self.dynamic_spawn_latency < 0:
            raise RuntimeModelError("invalid dynamic-spreading timing")
        if self.dynamic_patience < 1 or self.dynamic_max_degree < 1:
            raise RuntimeModelError("invalid dynamic-spreading limits")
        if self.offload_ack_timeout <= 0:
            raise RuntimeModelError("offload_ack_timeout must be positive")
        if self.offload_backoff < 1.0:
            raise RuntimeModelError("offload_backoff must be >= 1")
        if self.max_retries < 0:
            raise RuntimeModelError("max_retries must be >= 0")

    # -- the configurations the paper evaluates ---------------------------

    @classmethod
    def baseline(cls, **overrides) -> "RuntimeConfig":
        """Plain MPI+OmpSs-2: no offloading, no DLB (Figs 6/9 "baseline")."""
        return cls(offload_degree=1, lewi=False, drom=False,
                   policy=None, **overrides)

    @classmethod
    def dlb_single_node(cls, **overrides) -> "RuntimeConfig":
        """Single-node DLB (the paper's "degree 1"/"DLB" reference):
        LeWI + DROM balancing among the appranks of each node."""
        return cls(offload_degree=1, lewi=True, drom=True,
                   policy="local", **overrides)

    @classmethod
    def offloading(cls, degree: int, policy: str = "global",
                   **overrides) -> "RuntimeConfig":
        """MPI + OmpSs-2@Cluster with DLB (the paper's contribution)."""
        return cls(offload_degree=degree, lewi=True, drom=True,
                   policy=policy, **overrides)

    def with_(self, **overrides) -> "RuntimeConfig":
        """Functional update helper."""
        return replace(self, **overrides)

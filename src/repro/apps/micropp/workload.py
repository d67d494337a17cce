"""MicroPP simulator workload: per-subdomain task costs with the paper's
linear/nonlinear imbalance structure.

Each apprank owns a set of RVE subdomains (Gauss points of the macro
mesh); a task is one subdomain solve per coupled iteration. Composite
structures put nonlinear regions unevenly across the macro domain, so the
fraction of nonlinear subdomains varies strongly across appranks — the
static, apprank-level imbalance of Figures 6/7/9. Costs can either come
from the built-in model (deterministic, used by benchmarks) or be measured
from the real kernel in :mod:`.driver` (see :func:`measure_kernel_costs`).

Sampling: each apprank draws its own costs once from a generator seeded by
``(seed, apprank)``. There is no rejection loop and no fallback, so every
spec yields its modelled distribution; the cost is one pass over that
apprank's subdomains.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Generator

import numpy as np

from ...errors import WorkloadError
from ...mpisim.comm import RankComm
from ...nanos.apprank import AppRankRuntime
from ...nanos.task import AccessType, DataAccess

__all__ = ["MicroppSpec", "nonlinear_fractions", "subdomain_durations",
           "apprank_loads", "micropp_main", "make_micropp_app",
           "measure_kernel_costs"]

#: bytes of state per subdomain (displacement + internal variables)
DEFAULT_SUBDOMAIN_BYTES = 192 * 1024


@dataclass(frozen=True)
class MicroppSpec:
    """One MicroPP weak-scaling configuration."""

    num_appranks: int
    cores_per_apprank: int
    #: subdomain solves per core per coupled iteration
    subdomains_per_core: int = 12
    #: cost of one *linear* subdomain solve, seconds
    linear_cost: float = 0.020
    #: mean cost multiplier of a nonlinear solve (Picard iterations)
    nonlinear_ratio: float = 6.0
    #: nonlinear fraction at the most/least loaded apprank
    max_nonlinear_fraction: float = 0.85
    min_nonlinear_fraction: float = 0.05
    iterations: int = 4
    seed: int = 7
    subdomain_bytes: int = DEFAULT_SUBDOMAIN_BYTES

    def __post_init__(self) -> None:
        if self.num_appranks < 1 or self.cores_per_apprank < 1:
            raise WorkloadError("need at least one apprank and one core")
        if self.subdomains_per_core < 1:
            raise WorkloadError("need at least one subdomain per core")
        if self.linear_cost <= 0 or self.nonlinear_ratio < 1:
            raise WorkloadError("invalid cost model")
        if not (0 <= self.min_nonlinear_fraction
                <= self.max_nonlinear_fraction <= 1):
            raise WorkloadError("nonlinear fractions must satisfy 0<=min<=max<=1")

    @property
    def subdomains_per_apprank(self) -> int:
        return self.subdomains_per_core * self.cores_per_apprank


def nonlinear_fractions(spec: MicroppSpec) -> np.ndarray:
    """Fraction of nonlinear subdomains per apprank.

    A quadratic ramp from ``max_nonlinear_fraction`` at apprank 0 down to
    ``min_nonlinear_fraction`` — modelling a composite macro-structure
    where the damage zone sits at one end of the domain (apprank 0 is the
    heavy rank in the paper's traces, Figure 9).
    """
    a = spec.num_appranks
    if a == 1:
        return np.array([spec.max_nonlinear_fraction])
    x = np.arange(a) / (a - 1)
    ramp = (1.0 - x) ** 2
    return (spec.min_nonlinear_fraction
            + (spec.max_nonlinear_fraction - spec.min_nonlinear_fraction) * ramp)


def subdomain_durations(spec: MicroppSpec, apprank: int) -> np.ndarray:
    """Per-subdomain nominal solve times for one apprank (deterministic).

    Linear subdomains cost ``linear_cost``; nonlinear ones cost it times a
    jittered ``nonlinear_ratio`` (Picard counts vary per subdomain). Which
    subdomains are nonlinear is fixed by the seed — the imbalance is static
    across iterations, as in the real application.
    """
    if not 0 <= apprank < spec.num_appranks:
        raise WorkloadError(f"apprank {apprank} out of range")
    rng = np.random.default_rng(spec.seed * 100_003 + apprank)
    count = spec.subdomains_per_apprank
    fraction = nonlinear_fractions(spec)[apprank]
    nonlinear = rng.random(count) < fraction
    ratios = np.ones(count)
    jitter = rng.uniform(0.7, 1.3, size=count)
    ratios[nonlinear] = spec.nonlinear_ratio * jitter[nonlinear]
    return spec.linear_cost * ratios


def apprank_loads(spec: MicroppSpec) -> np.ndarray:
    """Per-apprank work per iteration (core·seconds)."""
    return np.array([subdomain_durations(spec, a).sum()
                     for a in range(spec.num_appranks)])


def micropp_main(comm: RankComm, rt: AppRankRuntime,
                 spec: MicroppSpec) -> Generator[Any, Any, dict]:
    """SPMD main: coupled iterations of subdomain solves.

    Mirrors the FE² macro loop: submit one task per subdomain, taskwait,
    then exchange macro-level boundary data with the MPI neighbours
    (modelled as an allreduce of the convergence norm, which is what the
    macro solver does between coupled iterations).
    """
    durations = subdomain_durations(spec, comm.rank)
    bytes_each = spec.subdomain_bytes
    iteration_times: list[float] = []
    for _iteration in range(spec.iterations):
        t0 = comm.sim.now
        for i, duration in enumerate(durations):
            base = i * bytes_each
            rt.submit(work=float(duration),
                      accesses=(DataAccess(AccessType.INOUT, base,
                                           base + bytes_each),),
                      label=f"rve-{i}")
        yield from rt.taskwait()
        # Macro-solver residual reduction across ranks.
        _norm = yield from comm.allreduce(float(durations.sum()), op="sum")
        iteration_times.append(comm.sim.now - t0)
    return {"iteration_times": iteration_times, "stats": rt.stats()}


def make_micropp_app(spec: MicroppSpec):
    """Bind *spec* for :meth:`ClusterRuntime.run_app`."""
    def main(comm: RankComm, rt: AppRankRuntime):
        result = yield from micropp_main(comm, rt, spec)
        return result
    return main


def measure_kernel_costs(mesh_n: int = 5, repeats: int = 3,
                         seed: int = 3) -> tuple[float, float]:
    """Time the real FE kernel: (linear_seconds, nonlinear_seconds).

    Runs the actual :func:`~repro.apps.micropp.driver.solve_subdomain` on a
    composite RVE and returns the best-of-*repeats* wall times. Use the
    results to parameterise :class:`MicroppSpec` (``linear_cost`` and
    ``nonlinear_ratio``) with measured numbers instead of the defaults.
    Not used by benchmarks (wall-clock is nondeterministic).
    """
    from .driver import solve_subdomain
    from .material import LinearElastic, SecantNonlinear
    from .mesh import StructuredHexMesh
    from .microstructure import spherical_inclusions

    mesh = StructuredHexMesh(mesh_n)
    phase = spherical_inclusions(mesh, 0.25, contrast=10.0, seed=seed)
    eps = np.array([0.02, 0.0, 0.0, 0.0, 0.0, 0.01])
    best_linear = best_nonlinear = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        solve_subdomain(mesh, LinearElastic(), eps, phase_scale=phase)
        t1 = time.perf_counter()
        solve_subdomain(mesh, SecantNonlinear(), eps, phase_scale=phase)
        t2 = time.perf_counter()
        best_linear = min(best_linear, t1 - t0)
        best_nonlinear = min(best_nonlinear, t2 - t1)
    return best_linear, best_nonlinear

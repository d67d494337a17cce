"""Micro-benchmarks of the substrates (performance tracking, not figures)."""

import numpy as np

from repro.apps.micropp import (LinearElastic, SecantNonlinear,
                                StructuredHexMesh, solve_subdomain,
                                spherical_inclusions)
from repro.apps.nbody import accelerations_barnes_hut, plummer_sphere
from repro.balance import solve_core_allocation, solve_edge_allocation
from repro.graph import BipartiteGraph, random_biregular
from repro.sim import Simulator


def test_engine_event_throughput(benchmark):
    """Raw event dispatch rate of the discrete-event core."""
    def churn():
        sim = Simulator()
        remaining = [20_000]

        def tick():
            remaining[0] -= 1
            if remaining[0] > 0:
                sim.schedule(0.001, tick)

        sim.schedule(0.0, tick)
        sim.run()
        return sim.events_fired

    events = benchmark(churn)
    assert events == 20_000


def test_lp_solve_32_nodes(benchmark):
    """The §5.4.2 allocation problem at the paper's 32-node scale."""
    rng = np.random.default_rng(0)
    graph = random_biregular(64, 32, 4, rng)
    cores = {n: 48 for n in range(32)}
    speed = {n: 1.0 for n in range(32)}
    work = {a: float(rng.uniform(0, 48)) for a in range(64)}

    allocation = benchmark(solve_core_allocation, graph, work, cores, speed)
    assert sum(sum(c.values()) for c in allocation.values()) == 32 * 48


def test_lp_solve_fat_node_40_jobs(benchmark):
    """The cross-job arbitration shape: 40 jobs on one fat node."""
    rng = np.random.default_rng(0)
    edges = [(j, 0) for j in range(40)]
    home_of = {j: 0 for j in range(40)}
    work = {j: float(rng.uniform(0, 48)) for j in range(40)}

    allocation = benchmark(solve_edge_allocation, edges, home_of, work,
                           {0: 768}, {0: 1.0}, 0.0)
    assert sum(allocation[0].values()) == 768


def test_expander_generation_64_nodes(benchmark):
    graph = benchmark(random_biregular, 128, 64, 4,
                      np.random.default_rng(1))
    assert graph.num_helper_ranks() == 128 * 3


def test_fe_linear_subdomain(benchmark):
    mesh = StructuredHexMesh(5)
    phase = spherical_inclusions(mesh, 0.25, 10.0, seed=3)
    eps = np.array([0.01, 0, 0, 0, 0, 0.005])
    result = benchmark(solve_subdomain, mesh, LinearElastic(), eps, phase)
    assert result.converged


def test_fe_nonlinear_subdomain(benchmark):
    mesh = StructuredHexMesh(4)
    phase = spherical_inclusions(mesh, 0.25, 10.0, seed=3)
    eps = np.array([0.01, 0, 0, 0, 0, 0.005])
    result = benchmark(solve_subdomain, mesh, SecantNonlinear(), eps, phase)
    assert result.picard_iterations > 1


def test_barnes_hut_forces_1k_bodies(benchmark):
    bodies = plummer_sphere(1000, seed=7)
    result = benchmark(accelerations_barnes_hut, bodies.positions,
                       bodies.masses, 0.6)
    assert result.accelerations.shape == (1000, 3)

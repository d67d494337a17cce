"""Every figure harness runs at tiny scale and shows the paper's shape.

These are the repository's executable claims index: each test pins one
qualitative statement from the paper's evaluation to the corresponding
experiment module.
"""

import numpy as np
import pytest

from repro.experiments import (SMALL, Scale, fig05_policies,
                               fig06_applications, fig07_local, fig08_sweep,
                               fig09_traces, fig10_slownode,
                               fig11_convergence, headline)

#: even smaller than SMALL for per-test speed
TINY = Scale(name="tiny", cores_per_node=8, tasks_per_core=6, iterations=3,
             micropp_subdomains_per_core=3, local_period=0.02,
             global_period=0.2)


@pytest.fixture(scope="module")
def fig05_table():
    return fig05_policies.run(TINY)


@pytest.fixture(scope="module")
def fig08_table():
    return fig08_sweep.run(TINY, node_counts=(4,), imbalances=(1.0, 2.0),
                           degrees=(1, 2, 4))


@pytest.fixture(scope="module")
def fig09_table():
    return fig09_traces.run(TINY)


@pytest.fixture(scope="module")
def fig11_table():
    return fig11_convergence.run(TINY, scenarios=((2, 2.0),))


class TestFig05:
    def test_global_offloads_less_when_balanced(self, fig05_table):
        local = fig05_table.find(policy="local")[0]
        global_ = fig05_table.find(policy="global")[0]
        assert global_["remote_frac_phase2"] < local["remote_frac_phase2"]

    def test_trace_runtimes_attached(self, fig05_table):
        assert set(fig05_table.runtimes) == {"local", "global"}
        trace = fig05_table.runtimes["global"].obs.trace
        assert trace is not None and trace.nodes("busy")


class TestFig08:
    def test_baseline_scales_with_imbalance(self, fig08_table):
        rows = fig08_table.find(degree=1)
        by_imbalance = {r["imbalance"]: r["steady_per_iter"] for r in rows}
        assert by_imbalance[2.0] == pytest.approx(2 * by_imbalance[1.0],
                                                  rel=0.02)

    def test_offloading_flattens_the_curve(self, fig08_table):
        base = fig08_table.find(degree=1, imbalance=2.0)[0]
        off = fig08_table.find(degree=4, imbalance=2.0)[0]
        assert off["steady_per_iter"] < 0.75 * base["steady_per_iter"]

    def test_optimal_is_lower_bound(self, fig08_table):
        for row in fig08_table.rows:
            assert row["steady_per_iter"] >= row["optimal"] * 0.999


class TestFig06And07:
    @pytest.fixture(scope="class")
    def tables(self):
        micropp = fig06_applications.run_micropp(
            TINY, node_counts=(2, 4), degrees=(2,),
            appranks_per_node_list=(1,))
        nbody = fig06_applications.run_nbody(TINY, node_counts=(2, 4))
        return micropp, nbody

    def test_micropp_offloading_beats_dlb(self, tables):
        micropp, _ = tables
        for nodes in (2, 4):
            off = micropp.find(nodes=nodes, series="degree2")[0]
            assert off["reduction_vs_dlb_pct"] > 15

    def test_nbody_offloading_beats_baseline_with_slow_node(self, tables):
        _, nbody = tables
        rows = [r for r in nbody.rows if r["series"].startswith("degree")]
        assert rows and all(r["reduction_vs_baseline_pct"] > 5 for r in rows)

    def test_fig07_runs_local_policy(self):
        micropp, _ = fig07_local.run(TINY, node_counts=(2,), degrees=(2,),
                                     nbody_node_counts=(2,))
        assert "local" in micropp.title
        off = micropp.find(nodes=2, series="degree2", appranks_per_node=1)[0]
        assert off["reduction_vs_dlb_pct"] > 10


class TestFig09:
    def test_ablation_ordering(self, fig09_table):
        rel = {r["config"]: r["relative_to_baseline"]
               for r in fig09_table.rows}
        assert rel["baseline"] == 1.0
        assert rel["lewi"] < 1.0
        assert rel["drom"] < rel["lewi"]             # paper: 0.65 < 0.83
        assert rel["lewi+drom"] <= rel["drom"] * 1.05  # combination best

    def test_mechanism_counters_match_config(self, fig09_table):
        rows = {r["config"]: r for r in fig09_table.rows}
        assert rows["baseline"]["offloaded"] == 0
        assert rows["lewi"]["drom_cores_moved"] == 0
        assert rows["drom"]["lewi_borrows"] == 0
        assert rows["lewi+drom"]["lewi_borrows"] > 0
        assert rows["lewi+drom"]["drom_cores_moved"] > 0


class TestFig10:
    def test_degree_flattens_slow_node_curve(self):
        table = fig10_slownode.run(TINY, node_counts=(2,),
                                   imbalances=(1.0, 2.0), degrees=(1, 2))
        base = {r["signed_imbalance"]: r["steady_per_iter"]
                for r in table.find(degree=1)}
        off = {r["signed_imbalance"]: r["steady_per_iter"]
               for r in table.find(degree=2)}
        # offloading helps at the extremes of the x-axis
        assert off[2.0] < base[2.0]
        assert off[-2.0] < base[-2.0]

    def test_both_sides_of_axis_present(self):
        table = fig10_slownode.run(TINY, node_counts=(2,),
                                   imbalances=(1.0, 2.0), degrees=(2,))
        signs = set(np.sign(table.column("signed_imbalance")))
        assert signs == {-1.0, 1.0}


class TestFig11:
    def test_drom_converges_lewi_only_plateaus(self, fig11_table):
        rows = {r["config"]: r for r in fig11_table.rows}
        assert rows["local+lewi+drom"]["plateau"] < 1.2
        assert rows["global+lewi+drom"]["plateau"] < 1.2
        assert rows["lewi-only"]["plateau"] > \
            rows["local+lewi+drom"]["plateau"]

    def test_series_attached_for_plotting(self, fig11_table):
        times, series = fig11_table.series[(2, "lewi-only")]
        assert len(times) == len(series) == 200


class TestHeadline:
    def test_headline_table_builds(self):
        table = headline.run(TINY)
        assert len(table.rows) == 5
        claims = " ".join(table.column("claim"))
        assert "MicroPP" in claims and "n-body" in claims
        # the central claim must reproduce directionally even at tiny scale
        micropp = table.find(
            claim="MicroPP 32 nodes: reduction vs DLB (deg 4, global)")[0]
        assert int(micropp["measured"].rstrip("%")) > 25

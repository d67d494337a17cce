"""Recorded DROM ownership equals the arbiters' ground truth.

A DROM transfer of a busy core is deferred until its task finishes, and
is then applied inside ``NodeArbiter.release_core``. Every ownership
record of an instrumented run — the bus's ``owned:aA`` counter samples
and the ``owned`` step series of ``obs.trace`` — must show that change
at the instant it happens, not at the node's next ``set_ownership``.

The ground truth is read from the arbiters themselves: after every call
that can move ownership, ``ownership_counts()`` is stepped into a
reference series per (node, apprank).
"""

import pytest

from repro.cluster.node import Core
from repro.dlb.shmem import NodeArbiter
from repro.experiments import traced
from repro.experiments.base import SMALL
from repro.metrics.timeline import StepSeries
from repro.nanos.runtime import ClusterRuntime

#: every NodeArbiter entry point that can change who owns a core
OWNERSHIP_CALLS = ("initialize_ownership", "set_ownership", "release_core",
                   "retire_worker")


@pytest.fixture
def truth(monkeypatch):
    """Reference owned series per (node, apprank), plus a count of the
    pending transfers applied during the run."""
    state = {"sim": None, "applied": 0, "series": {}}

    def record(arbiter):
        if state["sim"] is None:
            return
        now = state["sim"].now
        for (apprank, node), count in arbiter.ownership_counts().items():
            series = state["series"].setdefault((node, apprank), StepSeries())
            series.set(now, count)

    def wrap(name):
        original = getattr(NodeArbiter, name)

        def wrapper(self, *args, **kwargs):
            result = original(self, *args, **kwargs)
            record(self)
            return result
        monkeypatch.setattr(NodeArbiter, name, wrapper)

    for name in OWNERSHIP_CALLS:
        wrap(name)

    apply_pending = Core.apply_pending_owner

    def counted_apply(self):
        moved = apply_pending(self)
        state["applied"] += moved
        return moved
    monkeypatch.setattr(Core, "apply_pending_owner", counted_apply)

    start = ClusterRuntime.start

    def recorded_start(self):
        state["sim"] = self.sim
        for arbiter in self.arbiters.values():
            record(arbiter)
        start(self)
    monkeypatch.setattr(ClusterRuntime, "start", recorded_start)
    return state


def _counter_series(obs) -> dict[tuple[int, int], StepSeries]:
    """The bus's ``owned:aA`` counter samples as step series."""
    out: dict[tuple[int, int], StepSeries] = {}
    for sample in obs.bus.counters:
        if sample.name.startswith("owned:a"):
            apprank = int(sample.name[len("owned:a"):])
            key = (sample.track.node, apprank)
            out.setdefault(key, StepSeries()).set(sample.time, sample.value)
    return out


@pytest.mark.parametrize("target", ["headline", "synthetic", "resilience"])
def test_owned_records_equal_ground_truth(truth, target):
    runtime = traced.run(target, SMALL).result.runtime
    obs = runtime.obs
    reference = truth["series"]
    assert truth["applied"] > 0, "no pending DROM transfer was exercised"
    counters = _counter_series(obs)
    assert set(counters) == set(reference)
    for key, expected in sorted(reference.items()):
        assert counters[key].change_points() == expected.change_points(), \
            f"owned:a{key[1]} counter on node {key[0]}"
    for (node, apprank), expected in sorted(reference.items()):
        series = obs.trace.series("owned", node, apprank)
        assert series.change_points() == expected.change_points(), \
            f"owned series of apprank {apprank} on node {node}"
    for node, arbiter in runtime.arbiters.items():
        for (apprank, _node), count in arbiter.ownership_counts().items():
            assert obs.trace.series("owned", node, apprank).current == count
            assert counters[(node, apprank)].current == count


def test_helper_on_a_spare_node_is_recorded_when_it_claims_the_node(truth):
    from repro.apps.synthetic import SyntheticSpec, make_synthetic_app
    from repro.cluster import MARENOSTRUM4, ClusterSpec
    from repro.nanos import RuntimeConfig

    spec = SyntheticSpec(num_appranks=4, imbalance=2.0, cores_per_apprank=8,
                         tasks_per_core=8, iterations=3, seed=3)
    config = RuntimeConfig.offloading(2, "global", global_period=0.2,
                                      obs=True)
    runtime = ClusterRuntime(
        ClusterSpec.homogeneous(MARENOSTRUM4.scaled(8), 5), 4, config,
        home_nodes=4)
    runtime.sim.schedule_at(0.3, lambda: runtime.add_helper(0, 4))
    runtime.run_app(make_synthetic_app(spec))
    assert runtime.elapsed > 0.3
    counters = _counter_series(runtime.obs)
    assert counters[(4, 0)].change_points()[:2] == [(0.0, 0.0), (0.3, 8.0)]
    for key, expected in sorted(truth["series"].items()):
        assert counters[key].change_points() == expected.change_points()
        assert (runtime.obs.trace.series("owned", *key).change_points()
                == expected.change_points())

"""The entry points ``perfbench/tracer.py`` wraps exist and are traced.

The benchmark's traced run attributes wall time to layers by patching
named methods and functions of :mod:`repro` from outside ``src/``. A
rename or fold of one of those entry points would silently drop its
layer from the per-layer metrics, so this test installs the tracer
around a small offloading run and checks that every layer the run
touches recorded spans, and that uninstalling puts every original back.
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.apps.synthetic import SyntheticSpec, make_synthetic_app
from repro.cluster import MARENOSTRUM4
from repro.dlb.shmem import NodeArbiter
from repro.experiments.base import run_workload
from repro.mpisim.world import MpiWorld
from repro.nanos import RuntimeConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer as module
    yield module
    sys.modules.pop("tracer", None)


def test_tracer_records_every_layer_and_uninstalls(tracer):
    acquire = NodeArbiter.__dict__["acquire_core"]
    post_send = MpiWorld.__dict__["_post_send"]
    log = tracer.SpanLog()
    inst = tracer.Instrumentation(log)
    inst.install()
    try:
        spec = SyntheticSpec(num_appranks=2, imbalance=1.5,
                             cores_per_apprank=4, tasks_per_core=4,
                             iterations=2)
        config = RuntimeConfig.offloading(2, "global", local_period=0.02,
                                          global_period=0.2)
        run_workload(MARENOSTRUM4.scaled(4), 2, 1, config,
                     lambda: make_synthetic_app(spec))
    finally:
        inst.uninstall()
    arrays = log.finish_repeat()

    spans = Counter(log.layers[nid] for nid in arrays["name_id"])
    for layer in ("runtime", "sim", "apps", "nanos", "dlb", "mpisim",
                  "balance"):
        assert spans[layer] > 0, layer
    assert inst._undo == []
    assert NodeArbiter.__dict__["acquire_core"] is acquire
    assert MpiWorld.__dict__["_post_send"] is post_send

"""Trace export formats."""

import json

import numpy as np
import pytest

from repro.errors import ReproError
from repro.metrics import TraceRecorder
from repro.metrics.export import (resampled_matrix, trace_to_csv,
                                  trace_to_json, trace_to_records)


@pytest.fixture
def trace():
    trace = TraceRecorder()
    trace.busy_delta(0.0, 0, 0, +2)
    trace.busy_delta(1.0, 0, 0, -1)
    trace.busy_delta(0.5, 1, 1, +3)
    trace.set_owned(0.0, 0, 0, 8)
    return trace


class TestRecords:
    def test_flat_records(self, trace):
        records = trace_to_records(trace)
        assert ("busy", 0, 0, 1.0, 1.0) in records
        assert ("owned", 0, 0, 0.0, 8.0) in records

    def test_metric_filter(self, trace):
        records = trace_to_records(trace, metrics=("owned",))
        assert all(r[0] == "owned" for r in records)

    def test_empty_trace_rejected(self):
        empty = TraceRecorder()
        with pytest.raises(ReproError):
            trace_to_records(empty)


class TestCsv:
    def test_header_and_rows(self, trace):
        csv = trace_to_csv(trace)
        lines = csv.strip().splitlines()
        assert lines[0] == "metric,node,apprank,time,value"
        assert any(line.startswith("busy,0,0,1.0,") for line in lines)


class TestJson:
    def test_roundtrips_through_json(self, trace):
        doc = json.loads(trace_to_json(trace))
        assert len(doc["series"]) == 3
        busy = next(s for s in doc["series"]
                    if s["metric"] == "busy" and s["node"] == 0)
        assert busy["times"][0] == 0.0
        assert busy["values"][0] == 2.0
        assert len(busy["times"]) == len(busy["values"])


class TestMatrix:
    def test_dense_resampling(self, trace):
        matrix, labels = resampled_matrix(trace, "busy", [0.25, 0.75, 1.5])
        assert matrix.shape == (2, 3)
        assert labels == ["node0/apprank0", "node1/apprank1"]
        row0 = matrix[labels.index("node0/apprank0")]
        np.testing.assert_allclose(row0, [2.0, 2.0, 1.0])

    def test_from_real_run(self):
        """Export works on a trace produced by an actual simulation."""
        from repro.apps.synthetic import SyntheticSpec, make_synthetic_app
        from repro.cluster import MARENOSTRUM4, ClusterSpec
        from repro.nanos import ClusterRuntime, RuntimeConfig

        machine = MARENOSTRUM4.scaled(4)
        spec = SyntheticSpec(num_appranks=2, imbalance=1.5,
                             cores_per_apprank=4, tasks_per_core=4,
                             iterations=2)
        config = RuntimeConfig.offloading(2, "global", obs=True,
                                          global_period=0.2)
        runtime = ClusterRuntime(ClusterSpec.homogeneous(machine, 2), 2,
                                 config)
        runtime.run_app(make_synthetic_app(spec))
        csv = trace_to_csv(runtime.obs.trace)
        assert csv.count("\n") > 10
        matrix, labels = resampled_matrix(
            runtime.obs.trace, "busy", np.linspace(0, runtime.elapsed, 50))
        assert matrix.max() <= 4
        assert matrix.min() >= 0

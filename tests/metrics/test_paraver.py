"""Paraver trace export."""

import pytest

from repro.errors import ReproError
from repro.metrics import TraceRecorder
from repro.metrics.paraver import (BUSY_EVENT_TYPE, OWNED_EVENT_TYPE,
                                   export_paraver)


@pytest.fixture
def trace():
    trace = TraceRecorder()
    trace.busy_delta(0.0, 0, 0, +2)
    trace.busy_delta(0.5, 0, 0, -2)
    trace.busy_delta(0.0, 1, 1, +1)
    trace.set_owned(0.0, 0, 0, 4)
    trace.set_owned(0.3, 0, 0, 3)
    return trace


class TestExport:
    def test_writes_triple(self, trace, tmp_path):
        paths = export_paraver(trace, 1.0, tmp_path / "run")
        assert set(paths) == {"prv", "pcf", "row"}
        for path in paths.values():
            assert path.exists()

    def test_prv_header_and_records(self, trace, tmp_path):
        paths = export_paraver(trace, 1.0, tmp_path / "run")
        lines = paths["prv"].read_text().splitlines()
        header = lines[0]
        assert header.startswith("#Paraver")
        assert f"{int(1e9)}_ns" in header
        body = lines[1:]
        # state records (1:...) and event records (2:...)
        assert any(line.startswith("1:") for line in body)
        assert any(f":{BUSY_EVENT_TYPE}:" in line for line in body)
        assert any(f":{OWNED_EVENT_TYPE}:" in line for line in body)
        # records sorted by time
        times = [int(line.split(":")[5]) for line in body]
        assert times == sorted(times)

    def test_row_names_threads(self, trace, tmp_path):
        paths = export_paraver(trace, 1.0, tmp_path / "run")
        text = paths["row"].read_text()
        assert "apprank0@node0" in text
        assert "apprank1@node1" in text

    def test_pcf_defines_event_types(self, trace, tmp_path):
        paths = export_paraver(trace, 1.0, tmp_path / "run")
        text = paths["pcf"].read_text()
        assert str(BUSY_EVENT_TYPE) in text
        assert "Busy cores" in text

    def test_empty_trace_rejected(self, tmp_path):
        with pytest.raises(ReproError):
            export_paraver(TraceRecorder(), 1.0, tmp_path / "x")

    def test_zero_duration_rejected(self, trace, tmp_path):
        with pytest.raises(ReproError):
            export_paraver(trace, 0.0, tmp_path / "x")

    def test_real_run_exports(self, tmp_path):
        from repro.apps.synthetic import SyntheticSpec, make_synthetic_app
        from repro.cluster import MARENOSTRUM4, ClusterSpec
        from repro.nanos import ClusterRuntime, RuntimeConfig

        machine = MARENOSTRUM4.scaled(4)
        spec = SyntheticSpec(num_appranks=2, imbalance=1.5,
                             cores_per_apprank=4, tasks_per_core=4,
                             iterations=2)
        runtime = ClusterRuntime(
            ClusterSpec.homogeneous(machine, 2), 2,
            RuntimeConfig.offloading(2, "global", obs=True,
                                     global_period=0.2))
        runtime.run_app(make_synthetic_app(spec))
        paths = export_paraver(runtime.obs.trace, runtime.elapsed,
                               tmp_path / "synthetic")
        assert paths["prv"].stat().st_size > 500

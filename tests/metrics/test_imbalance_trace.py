"""Imbalance metric (Eq. 2), node imbalance series, trace recorder."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.metrics import (StepSeries, TraceRecorder, imbalance,
                           node_imbalance_series, perfect_time, worst_time)


class TestImbalanceMetric:
    def test_balanced_is_one(self):
        assert imbalance([3.0, 3.0, 3.0]) == 1.0

    def test_definition(self):
        # max / mean
        assert imbalance([4.0, 2.0, 0.0]) == pytest.approx(2.0)

    def test_all_on_one_rank_equals_rank_count(self):
        """§6.1: maximum value is the number of appranks."""
        assert imbalance([8.0, 0, 0, 0]) == pytest.approx(4.0)

    def test_zero_loads_report_one(self):
        assert imbalance([0.0, 0.0]) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ReproError):
            imbalance([])

    def test_negative_rejected(self):
        with pytest.raises(ReproError):
            imbalance([1.0, -1.0])

    @given(st.lists(st.floats(0, 1e6, allow_nan=False), min_size=1,
                    max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_bounds(self, loads):
        value = imbalance(loads)
        assert 1.0 - 1e-9 <= value <= len(loads) + 1e-9

    @given(st.lists(st.floats(0.01, 1e3, allow_nan=False), min_size=1,
                    max_size=32),
           st.floats(0.1, 10.0))
    @settings(max_examples=100, deadline=None)
    def test_scale_invariance(self, loads, factor):
        scaled = [x * factor for x in loads]
        assert imbalance(scaled) == pytest.approx(imbalance(loads))


class TestReferenceTimes:
    def test_perfect_and_worst(self):
        assert perfect_time([4.0, 2.0], cores_per_entity=2.0) == 1.5
        assert worst_time([4.0, 2.0], cores_per_entity=2.0) == 2.0

    def test_worst_at_least_perfect(self):
        loads = [5.0, 1.0, 3.0]
        assert worst_time(loads) >= perfect_time(loads)


class TestNodeImbalanceSeries:
    def test_balanced_nodes_report_one(self):
        a = StepSeries(initial_value=4.0)
        b = StepSeries(initial_value=4.0)
        series = node_imbalance_series([a, b], [1.0, 2.0], window=0.5)
        np.testing.assert_allclose(series, 1.0)

    def test_skewed_nodes(self):
        a = StepSeries(initial_value=6.0)
        b = StepSeries(initial_value=2.0)
        series = node_imbalance_series([a, b], [1.0], window=0.5)
        assert series[0] == pytest.approx(6.0 / 4.0)

    def test_idle_intervals_are_nan(self):
        a = StepSeries(initial_value=0.0)
        b = StepSeries(initial_value=0.0)
        series = node_imbalance_series([a, b], [1.0], window=0.5,
                                       min_avg_load=0.1)
        assert np.isnan(series[0])

    def test_empty_rejected(self):
        with pytest.raises(ReproError):
            node_imbalance_series([], [1.0], window=0.5)


class TestTraceRecorder:
    def test_busy_deltas_accumulate(self):
        trace = TraceRecorder()
        trace.busy_delta(0.0, node=0, apprank=1, delta=+1)
        trace.busy_delta(1.0, node=0, apprank=1, delta=+1)
        trace.busy_delta(2.0, node=0, apprank=1, delta=-1)
        series = trace.series("busy", 0, 1)
        assert series.value_at(0.5) == 1
        assert series.value_at(1.5) == 2
        assert series.value_at(2.5) == 1

    def test_owned_absolute(self):
        trace = TraceRecorder()
        trace.set_owned(0.0, 0, 0, 22)
        trace.set_owned(1.0, 0, 0, 30)
        assert trace.series("owned", 0, 0).value_at(1.5) == 30

    def test_missing_series_raises(self):
        trace = TraceRecorder()
        with pytest.raises(ReproError):
            trace.series("busy", 0, 0)
        assert not trace.has_series("busy", 0, 0)

    def test_node_busy_sums_appranks(self):
        trace = TraceRecorder()
        trace.busy_delta(0.0, 0, 0, +3)
        trace.busy_delta(0.0, 0, 1, +2)
        total = trace.node_busy_series(0)
        assert total.value_at(0.5) == 5

    def test_node_busy_empty_node(self):
        trace = TraceRecorder()
        assert trace.node_busy_series(7).value_at(1.0) == 0.0

    def test_enumeration(self):
        trace = TraceRecorder()
        trace.busy_delta(0.0, 0, 0, 1)
        trace.busy_delta(0.0, 1, 2, 1)
        assert trace.nodes("busy") == [0, 1]
        assert trace.appranks_on_node("busy", 1) == [2]

"""ASCII trace rendering."""

import pytest

from repro.errors import ReproError
from repro.metrics import GLYPHS, StepSeries, TraceRecorder, render_series, render_trace


def series_with(points):
    series = StepSeries()
    for t, v in points:
        series.set(t, v)
    return series


class TestRenderSeries:
    def test_idle_series_renders_blank(self):
        text = render_series(StepSeries(), 0.0, 1.0, width=10, peak=8,
                             label="idle")
        assert text == "idle              |          |"

    def test_full_series_renders_peak_glyph(self):
        series = StepSeries(initial_value=8.0)
        text = render_series(series, 0.0, 1.0, width=5, peak=8.0)
        assert text.count(GLYPHS[-1]) == 5

    def test_ramp_monotone_glyphs(self):
        series = series_with([(i / 10, i) for i in range(10)])
        text = render_series(series, 0.0, 1.0, width=10, peak=9.0)
        body = text.split("|")[1]
        ranks = [GLYPHS.index(c) for c in body]
        assert ranks == sorted(ranks)

    def test_empty_window_rejected(self):
        with pytest.raises(ReproError):
            render_series(StepSeries(), 1.0, 1.0)

    def test_auto_peak(self):
        series = series_with([(0.0, 4.0)])
        text = render_series(series, 0.0, 1.0, width=4)
        assert GLYPHS[-1] in text


class TestRenderTrace:
    def make_trace(self):
        trace = TraceRecorder()
        trace.busy_delta(0.0, 0, 0, +4)
        trace.busy_delta(0.5, 0, 0, -2)
        trace.busy_delta(0.0, 1, 1, +1)
        return trace

    def test_rows_per_series(self):
        text = render_trace(self.make_trace(), "busy", 0.0, 1.0, width=20)
        assert "node0 apprank0" in text
        assert "node1 apprank1" in text

    def test_shared_peak_makes_rows_comparable(self):
        text = render_trace(self.make_trace(), "busy", 0.0, 1.0, width=20,
                            peak=4.0)
        lines = [l for l in text.splitlines() if "apprank" in l]
        # node0 starts at 4/4 -> darkest glyph; node1 at 1/4 -> lighter
        assert GLYPHS[-1] in lines[0]
        assert GLYPHS[-1] not in lines[1]

    def test_missing_metric_rejected(self):
        with pytest.raises(ReproError):
            render_trace(self.make_trace(), "owned", 0.0, 1.0)

    def test_node_subset(self):
        text = render_trace(self.make_trace(), "busy", 0.0, 1.0, nodes=[1])
        assert "node0" not in text
        assert "node1 apprank1" in text

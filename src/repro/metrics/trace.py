"""Busy and owned core timelines per (node, apprank).

The paper's trace figures (5, 9, 11) plot exactly two signals per
node/apprank pair: cores *busy* (executing tasks) and cores *owned* (DROM).
Both are recorded exactly, as step series held by
:class:`~repro.obs.Observability` (``runtime.obs.trace``): workers call
:meth:`TraceRecorder.busy_delta` on every task start/stop, and every DROM
ownership change on a node, including a pending transfer applied when
its core is released, calls :meth:`TraceRecorder.set_owned`.
"""

from __future__ import annotations

from typing import Iterable

from ..errors import ReproError
from .timeline import StepSeries

__all__ = ["TraceRecorder"]


class TraceRecorder:
    """Collects step series keyed by (metric, node, apprank)."""

    def __init__(self) -> None:
        self._series: dict[tuple[str, int, int], StepSeries] = {}

    def _get(self, metric: str, node: int, apprank: int) -> StepSeries:
        key = (metric, node, apprank)
        series = self._series.get(key)
        if series is None:
            series = StepSeries(initial_value=0.0, start_time=0.0)
            self._series[key] = series
        return series

    # -- recording hooks ----------------------------------------------------

    def busy_delta(self, now: float, node: int, apprank: int, delta: int) -> None:
        """Record a busy-core change (+1 task start / -1 completion)."""
        self._get("busy", node, apprank).add(now, delta)

    def set_owned(self, now: float, node: int, apprank: int, count: int) -> None:
        """Record the apprank's DROM-owned core count on *node*."""
        self._get("owned", node, apprank).set(now, count)

    # -- queries -----------------------------------------------------------

    def series(self, metric: str, node: int, apprank: int) -> StepSeries:
        """The recorded step series for (metric, node, apprank)."""
        key = (metric, node, apprank)
        if key not in self._series:
            raise ReproError(f"no trace series for {key}")
        return self._series[key]

    def has_series(self, metric: str, node: int, apprank: int) -> bool:
        """Whether anything was recorded for this key."""
        return (metric, node, apprank) in self._series

    def appranks_on_node(self, metric: str, node: int) -> list[int]:
        """Appranks with a recorded series of *metric* on *node*."""
        return sorted(a for (m, n, a) in self._series if m == metric and n == node)

    def nodes(self, metric: str) -> list[int]:
        """Nodes with any recorded series of *metric*."""
        return sorted({n for (m, n, _a) in self._series if m == metric})

    def node_busy_series(self, node: int) -> StepSeries:
        """Total busy cores on *node* (summed over appranks)."""
        appranks = self.appranks_on_node("busy", node)
        if not appranks:
            return StepSeries()
        return StepSeries.sum_of([self.series("busy", node, a) for a in appranks])

    def busy_by_node(self, nodes: Iterable[int]) -> list[StepSeries]:
        """Total-busy series for each requested node."""
        return [self.node_busy_series(n) for n in nodes]

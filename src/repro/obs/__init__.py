"""Unified instrumentation layer (``repro.obs``).

One subsystem carries every signal the stack can emit:

* :class:`EventBus` — typed spans, instant events and counter samples on
  the simulated clock, grouped into per-(node, lane) tracks;
* :class:`MetricsRegistry` — counters, gauges and histograms with a
  ``snapshot()`` API and JSON export;
* :class:`Observability` — the facade the runtime layers
  (:mod:`repro.sim`, :mod:`repro.mpisim`, :mod:`repro.nanos`,
  :mod:`repro.dlb`, :mod:`repro.faults`) hold a reference to; every
  instrumentation point is a single guarded call on it, and it also
  holds the busy/owned step series the paper's trace figures read
  (``obs.trace``);
* exporters — :func:`export_chrome_trace` writes Chrome trace-event JSON
  loadable in Perfetto; the Paraver writer
  (:mod:`repro.metrics.paraver`) exports ``obs.trace`` with the bus's
  fault instants as point events;
* analysis — :func:`critical_path` reconstructs the task-dependency
  critical path from recorded spans and splits the makespan into
  compute / communication / idle / imbalance.

The subsystem is zero-overhead when disabled: nothing in the core
runtime imports this package at module level, every emission site is
guarded by ``if obs is not None``, and recording never schedules
simulator events — a disabled run is bit-identical (same results, same
event count) to a build where ``repro.obs`` was never imported.
"""

from .bus import EventBus
from .chrome import export_chrome_trace, trace_events
from .critical_path import CriticalPathReport, critical_path
from .events import (CounterSample, Instant, Span, Track,
                     CAT_DLB, CAT_FAULT, CAT_MPI, CAT_RUNTIME, CAT_SCHED,
                     CAT_TASK)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .observe import Observability

__all__ = [
    "EventBus",
    "Observability",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "Span",
    "Instant",
    "CounterSample",
    "Track",
    "export_chrome_trace",
    "trace_events",
    "critical_path",
    "CriticalPathReport",
    "CAT_TASK",
    "CAT_MPI",
    "CAT_DLB",
    "CAT_FAULT",
    "CAT_SCHED",
    "CAT_RUNTIME",
]

"""Event taxonomy: the typed records every layer emits onto the bus.

Three record shapes cover the whole stack (mirroring the Chrome
trace-event model so export is a projection, not a translation):

* :class:`Span` — an interval ``[start, end]`` on the simulated clock
  (task execution, an MPI message in flight, a DROM ownership plateau);
* :class:`Instant` — a point event (a LeWI lend, a fault injection, a
  dependency release);
* :class:`CounterSample` — a named scalar sampled at a point in time
  (spill-queue depth, owned cores).

Every record carries a :class:`Track` — the (node, lane) pair that names
the timeline row it renders on. ``node == -1`` marks cluster-global
records (runtime processes, policy ticks).

Categories are plain strings so downstream filters stay trivial; the
canonical set is the ``CAT_*`` constants below (see DESIGN.md's event
taxonomy table for which layer emits which).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = ["Track", "Span", "Instant", "CounterSample",
           "CAT_TASK", "CAT_MPI", "CAT_DLB", "CAT_FAULT", "CAT_SCHED",
           "CAT_RUNTIME"]

#: task lifecycle: ready -> run -> done spans, recovery instants
CAT_TASK = "task"
#: MPI transport and blocking-call spans (byte counts in args)
CAT_MPI = "mpi"
#: LeWI lend/borrow/reclaim instants, DROM ownership spans
CAT_DLB = "dlb"
#: fault injection and recovery instants
CAT_FAULT = "fault"
#: scheduler decisions: offload dispatch/ack round-trips, queue depth
CAT_SCHED = "sched"
#: simulator processes and run-level markers
CAT_RUNTIME = "runtime"


@dataclass(frozen=True)
class Track:
    """Where a record renders: one timeline row per (node, lane).

    Chrome/Perfetto export maps *node* to the process and *lane* to the
    thread of the trace; the Paraver writer maps lanes onto its thread
    rows. ``node == -1`` is the cluster-global pseudo-node.
    """

    node: int
    lane: str


@dataclass
class Span:
    """An interval on the simulated clock (seconds)."""

    name: str
    cat: str
    track: Track
    start: float
    end: float
    args: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Instant:
    """A point event on the simulated clock."""

    name: str
    cat: str
    track: Track
    time: float
    args: dict[str, Any] = field(default_factory=dict)


@dataclass
class CounterSample:
    """A named scalar sampled at one simulated time."""

    name: str
    track: Track
    time: float
    value: float

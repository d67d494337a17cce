"""Event records for the discrete-event engine.

An :class:`Event` is a callback bound to a simulated timestamp. Ordering is
fully deterministic: events compare by ``(time, priority, seq)`` where *seq*
is a monotonically increasing issue number, so two events at the same time
and priority fire in the order they were scheduled. Priorities let the
engine express things like "deliver messages before running schedulers at
the same timestamp" without fragile epsilon offsets.

:class:`Event` is a ``__slots__`` class (not a dataclass): the engine
creates one per scheduled callback, so construction cost and per-instance
memory are on the hottest path in the simulator. The ``(time, priority,
seq)`` sort key is precomputed once at construction — comparisons reduce
to one C-level tuple compare instead of re-reading three attributes.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Optional


class EventPriority(enum.IntEnum):
    """Tie-break classes for events that share a timestamp.

    Lower values fire first. The bands are deliberately coarse: most events
    are ``NORMAL``; ``DELIVERY`` is used for message arrival so that state
    observed by same-time control logic is up to date; ``POLICY`` runs
    periodic balancing after ordinary work has settled.
    """

    DELIVERY = 0
    NORMAL = 1
    POLICY = 2


class Event:
    """A scheduled callback.

    Instances are created by :meth:`repro.sim.engine.Simulator.schedule`;
    user code normally only keeps them around to :meth:`cancel` them.
    Identity-based equality (every scheduled event is unique).
    """

    __slots__ = ("time", "priority", "seq", "callback", "cancelled",
                 "fired", "label", "on_cancel", "key")

    def __init__(self, time: float, priority: int, seq: int,
                 callback: Callable[[], Any], cancelled: bool = False,
                 fired: bool = False, label: str = "",
                 on_cancel: Optional[Callable[[], Any]] = None) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.cancelled = cancelled
        #: set by the queue when the event is popped to run; a later
        #: cancel() must be a no-op (and must not disturb live-event
        #: accounting)
        self.fired = fired
        self.label = label
        #: invoked (once) by :meth:`repro.sim.engine.Simulator.cancel` so an
        #: awaitable backed by this event can resume its waiter with an
        #: error instead of leaving it suspended forever
        self.on_cancel = on_cancel
        #: the deterministic total order, precomputed so heap/queue
        #: comparisons are a single tuple compare
        self.key = (time, priority, seq)

    def __lt__(self, other: "Event") -> bool:
        return self.key < other.key

    def __le__(self, other: "Event") -> bool:
        return self.key <= other.key

    def __gt__(self, other: "Event") -> bool:
        return self.key > other.key

    def __ge__(self, other: "Event") -> bool:
        return self.key >= other.key

    def cancel(self) -> None:
        """Prevent the callback from running.

        Cancelling an already-fired or already-cancelled event is a no-op;
        the queue lazily discards cancelled entries when they surface.
        """
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        name = self.label or getattr(self.callback, "__name__", "<fn>")
        return f"Event(t={self.time:.6f}, prio={self.priority}, {name}, {state})"

"""Event record ordering and cancellation semantics."""

import pytest

from repro.sim.events import Event, EventPriority


def make(time, priority=EventPriority.NORMAL, seq=0):
    return Event(time=time, priority=int(priority), seq=seq, callback=lambda: None)


class TestOrdering:
    def test_orders_by_time_first(self):
        assert make(1.0, seq=5) < make(2.0, seq=1)

    def test_same_time_orders_by_priority(self):
        early = make(1.0, EventPriority.DELIVERY, seq=9)
        late = make(1.0, EventPriority.POLICY, seq=1)
        assert early < late

    def test_same_time_same_priority_orders_by_seq(self):
        assert make(1.0, seq=1) < make(1.0, seq=2)

    def test_priority_bands_are_ordered(self):
        assert (EventPriority.DELIVERY < EventPriority.NORMAL
                < EventPriority.POLICY)


class TestCancellation:
    def test_cancel_sets_flag(self):
        event = make(1.0)
        assert not event.cancelled
        event.cancel()
        assert event.cancelled

    def test_double_cancel_is_noop(self):
        event = make(1.0)
        event.cancel()
        event.cancel()
        assert event.cancelled

"""Per-apprank data-location directory (paper §3.2).

Tracks which nodes hold a valid copy of each region of the apprank's
address space. Copies are *eager*: inputs are transferred to the executing
node before the task starts, and "there is no automatic write-back to the
original node, unless the data value is needed by a task or a taskwait" —
so a write simply invalidates every other copy, and data written remotely
stays remote until someone reads it elsewhere.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..errors import RuntimeModelError
from .regions import IntervalMap
from .task import DataAccess

__all__ = ["DataDirectory"]


class _Locations:
    """Segment value: the set of nodes holding a valid copy.

    ``__slots__`` class: allocated on every segment split and gap-fill in
    the directory's per-dispatch updates.
    """

    __slots__ = ("nodes",)

    def __init__(self, nodes: Optional[set[int]] = None) -> None:
        self.nodes = nodes if nodes is not None else set()

    def clone(self) -> "_Locations":
        return _Locations(set(self.nodes))


class DataDirectory:
    """Region → location-set map for one apprank.

    Untouched regions implicitly live on the apprank's home node (where the
    data was allocated by the main function).
    """

    def __init__(self, home_node: int) -> None:
        self.home_node = home_node
        self._map: IntervalMap[_Locations] = IntervalMap()
        #: bumped on every mutation; placement caches key their locality
        #: snapshots on it (same version ⇒ same ``bytes_present_at`` answers)
        self.version = 0
        self.bytes_transferred = 0
        self.transfers = 0
        #: bytes whose only valid copy sat on a crashed node (see drop_node)
        self.bytes_lost = 0

    def locations_of(self, start: int,
                     end: int) -> list[tuple[int, int, frozenset[int]]]:
        """(start, end, nodes) pieces covering ``[start, end)``."""
        if end <= start:
            raise RuntimeModelError(f"empty region [{start}, {end})")
        pieces: list[tuple[int, int, frozenset[int]]] = []
        cursor = start
        for seg in self._map.overlapping(start, end):
            if seg.start > cursor:
                pieces.append((cursor, seg.start, frozenset({self.home_node})))
            pieces.append((max(seg.start, start), min(seg.end, end),
                           frozenset(seg.value.nodes)))
            cursor = min(seg.end, end)
        if cursor < end:
            pieces.append((cursor, end, frozenset({self.home_node})))
        return pieces

    def bytes_missing_at(self, accesses: Iterable[DataAccess], node: int) -> int:
        """Input bytes that must be copied in before executing at *node*.

        Walks the interval map directly (same pieces as
        :meth:`locations_of`, without materialising the frozenset list):
        this runs per dispatch, on the scheduler's hot path.
        """
        missing = 0
        home_missing = node != self.home_node
        overlapping = self._map.overlapping
        for access in accesses:
            if not access.mode.reads:
                continue
            start, end = access.start, access.end
            cursor = start
            for seg in overlapping(start, end):
                seg_start, seg_end = seg.start, seg.end
                if seg_start > cursor and home_missing:
                    missing += seg_start - cursor
                stop = seg_end if seg_end < end else end
                if node not in seg.value.nodes:
                    missing += stop - (seg_start if seg_start > start else start)
                cursor = stop
            if cursor < end and home_missing:
                missing += end - cursor
        return missing

    def bytes_present_at(self, accesses: Iterable[DataAccess], node: int) -> int:
        """Input bytes already valid at *node* (the scheduler's locality score)."""
        present = 0
        home_present = node == self.home_node
        overlapping = self._map.overlapping
        for access in accesses:
            if not access.mode.reads:
                continue
            start, end = access.start, access.end
            cursor = start
            for seg in overlapping(start, end):
                seg_start, seg_end = seg.start, seg.end
                if seg_start > cursor and home_present:
                    present += seg_start - cursor
                stop = seg_end if seg_end < end else end
                if node in seg.value.nodes:
                    present += stop - (seg_start if seg_start > start else start)
                cursor = stop
            if cursor < end and home_present:
                present += end - cursor
        return present

    def present_bytes_for(self, accesses: Iterable[DataAccess],
                          node_ids: Iterable[int]) -> dict[int, int]:
        """Locality scores for *every* node in one pass.

        Equivalent to ``{n: bytes_present_at(accesses, n) for n in
        node_ids}`` but walks the interval map once instead of once per
        node — placement scores all adjacent nodes per ready task.
        """
        totals = dict.fromkeys(node_ids, 0)
        home = self.home_node
        home_known = home in totals
        overlapping = self._map.overlapping
        for access in accesses:
            if not access.mode.reads:
                continue
            start, end = access.start, access.end
            cursor = start
            for seg in overlapping(start, end):
                seg_start, seg_end = seg.start, seg.end
                if seg_start > cursor and home_known:
                    totals[home] += seg_start - cursor
                stop = seg_end if seg_end < end else end
                length = stop - (seg_start if seg_start > start else start)
                for node in seg.value.nodes:
                    if node in totals:
                        totals[node] += length
                cursor = stop
            if cursor < end and home_known:
                totals[home] += end - cursor
        return totals

    def record_copy_in(self, accesses: Iterable[DataAccess], node: int) -> int:
        """Mark every read region valid at *node*; returns bytes copied.

        Regions already fully valid at *node* are left untouched — no
        segment materialisation and, when *every* region is valid, no
        version bump, so locally re-read data keeps placement caches
        warm. Skipping is sound because adding *node* to sets that
        already contain it changes no location query's answer.
        """
        copied = 0
        changed = False
        for access in accesses:
            if not access.mode.reads:
                continue
            missing = False
            for start, end, nodes in self.locations_of(access.start, access.end):
                if node not in nodes:
                    copied += end - start
                    missing = True
            if not missing:
                continue
            changed = True

            def update(value):
                if value is None:
                    value = _Locations({self.home_node})
                value.nodes.add(node)
                return value

            self._map.apply(access.start, access.end, update)
        if changed:
            self.version += 1
        self.bytes_transferred += copied
        if copied:
            self.transfers += 1
        return copied

    def record_write(self, accesses: Iterable[DataAccess], node: int) -> None:
        """A write at *node* makes it the sole valid location of out regions.

        Rewriting a region whose sole valid copy is already at *node* is
        a semantic no-op (the steady state of iterative apps rerunning a
        task on its home placement): it is detected with one overlap
        scan and skipped — no segment splits, and when every region is
        in that state, no version bump either, which is what keeps the
        scheduler's placement cache hot across iterations.
        """
        sole = {node}
        changed = False
        for access in accesses:
            if not access.mode.writes:
                continue
            start, end = access.start, access.end
            cursor = start
            for seg in self._map.overlapping(start, end):
                if seg.start > cursor or seg.value.nodes != sole:
                    break
                cursor = seg.end if seg.end < end else end
            if cursor >= end:
                continue
            changed = True
            self._map.set_range(start, end, _Locations({node}))
        if changed:
            self.version += 1

    def bytes_missing_home(self) -> int:
        """Bytes written remotely whose value is not valid at home."""
        return sum(seg.length for seg in self._map
                   if self.home_node not in seg.value.nodes)

    def record_pull_home(self) -> int:
        """Taskwait write-back: make every region valid at home.

        Returns the bytes that had to move (§3.2: values come home when
        "needed by a task or a taskwait").
        """
        self.version += 1
        pulled = 0
        for seg in self._map:
            if self.home_node not in seg.value.nodes:
                pulled += seg.length
                seg.value.nodes.add(self.home_node)
        self.bytes_transferred += pulled
        if pulled:
            self.transfers += 1
        return pulled

    def drop_node(self, node: int) -> int:
        """A node crashed: every copy it held is gone.

        Regions whose *only* valid copy lived there fall back to the home
        node — modelling the home-node checkpoint the data was initialised
        from (the re-executed producer task regenerates the real value).
        Returns the bytes recovered that way (also counted in
        :attr:`bytes_lost`).
        """
        self.version += 1
        lost = 0
        for seg in self._map:
            if node in seg.value.nodes:
                seg.value.nodes.discard(node)
                if not seg.value.nodes:
                    lost += seg.length
                    seg.value.nodes.add(self.home_node)
        self.bytes_lost += lost
        return lost

    def nodes_with_any_copy(self, start: int, end: int) -> set[int]:
        """Every node holding a valid copy of any part of the region."""
        out: set[int] = set()
        for _s, _e, nodes in self.locations_of(start, end):
            out |= nodes
        return out

"""LeWI lend / reclaim decision strategies (paper §5.3).

The :class:`~repro.dlb.shmem.NodeArbiter` keeps the core state machine,
counters and DLB invariants; *who lends how many cores* and *in which
order candidates are offered a released core* are decided here. The
arbiter enforces the hard rules regardless of policy: non-owners only
ever receive a core when LeWI is enabled, candidates without ready work
are skipped, and the lend/borrow/reclaim counters are classified by the
mechanism (owner taking back a borrower's core = reclaim, anything else
= borrow), so a policy can reorder decisions but not corrupt accounting.

``eager`` + ``owner-first`` reproduce the seed arbiter bit-identically
(the parity-tested defaults).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import (Any, ClassVar, Collection, Hashable, Iterable, Iterator,
                    Optional, Protocol)

__all__ = ["LendView", "CoreGrantView", "LendPolicy", "ReclaimPolicy",
           "EagerLend", "HoardLend", "ReserveOneLend", "OwnerFirstReclaim",
           "ReleaserFirstReclaim"]

#: Worker identity as the arbiter knows it (``(apprank, node)`` tuples in
#: the runtime; any sortable hashable in tests).
WorkerKey = Hashable


class LendView(Protocol):
    """One voluntary-lend decision (a worker ran dry); valid for one call."""

    @property
    def node_id(self) -> int:
        """The node whose cores are offered."""

    @property
    def worker_key(self) -> WorkerKey:
        """The worker offering to lend."""

    @property
    def idle_owned_cores(self) -> int:
        """Its currently idle, owned, not-yet-lent cores."""

    @property
    def backlog(self) -> int:
        """Its own ready backlog (normally 0 here — it just ran dry);
        read from live state on access."""


class CoreGrantView(Protocol):
    """One released-core grant decision; valid for one call.

    :meth:`has_ready` and :meth:`backlog` read live worker state, so a
    policy pays only for the workers it asks about.
    """

    @property
    def node_id(self) -> int:
        """The node the core belongs to."""

    @property
    def core_index(self) -> int:
        """The released core's index on its node."""

    @property
    def owner(self) -> Optional[WorkerKey]:
        """The core's owner key, or None if unowned/retired."""

    @property
    def releaser(self) -> WorkerKey:
        """The worker whose task just finished on the core."""

    @property
    def keys(self) -> Collection[WorkerKey]:
        """Every registered worker on the node, in registration order."""

    def has_ready(self, key: WorkerKey) -> bool:
        """Whether *key* has a runnable task or parked body awaiting a
        core (False for a key that is not registered)."""

    def backlog(self, key: WorkerKey) -> int:
        """*key*'s ready backlog (0 for a key that is not registered)."""


class LendPolicy(ABC):
    """When and how many idle cores a worker lends."""

    #: registry key (``RuntimeConfig.lend_policy`` / ``--lend-policy``)
    name: ClassVar[str] = ""

    @abstractmethod
    def lend_count(self, view: LendView) -> int:
        """How many of ``view.idle_owned_cores`` to lend right now
        (clamped by the mechanism to ``[0, idle_owned_cores]``)."""

    @abstractmethod
    def lend_released(self, view: CoreGrantView) -> bool:
        """Whether a released core nobody could start on should be
        marked lent (only honoured when LeWI is enabled)."""


class ReclaimPolicy(ABC):
    """In which order a released core is offered to workers."""

    #: registry key (``RuntimeConfig.reclaim_policy``)
    name: ClassVar[str] = ""

    @abstractmethod
    def grant_order(self, view: CoreGrantView) -> Iterable[WorkerKey]:
        """Candidate worker keys, most-preferred first.

        The mechanism consumes the iterable lazily: it tries each key in
        turn (skipping ineligible ones) and stops at the first that
        starts a task, so a generator pays only for the candidates
        actually reached. Duplicates are ignored."""


def _ranked_others(view: CoreGrantView) -> list[WorkerKey]:
    """Workers other than the owner and the releaser, busiest backlog
    first (the seed arbiter's deterministic ``(-backlog, key)`` order)."""
    def sort_key(key: WorkerKey) -> tuple[int, Any]:
        return (-view.backlog(key), key)

    return sorted((key for key in view.keys
                   if key != view.owner and key != view.releaser),
                  key=sort_key)


class EagerLend(LendPolicy):
    """The paper's LeWI behaviour (the default): lend everything idle
    immediately, and lend a released core whenever its owner has nothing
    ready."""

    name = "eager"

    def lend_count(self, view: LendView) -> int:
        """Lend every idle owned core."""
        return view.idle_owned_cores

    def lend_released(self, view: CoreGrantView) -> bool:
        """Lend unless the owner (still registered) has ready work."""
        return view.owner is None or not view.has_ready(view.owner)


class HoardLend(LendPolicy):
    """Never lend voluntarily — an ablation baseline isolating the value
    of LeWI's lending half while reclaim stays active."""

    name = "hoard"

    def lend_count(self, view: LendView) -> int:
        """Lend nothing."""
        return 0

    def lend_released(self, view: CoreGrantView) -> bool:
        """Keep released cores unlent."""
        return False


class ReserveOneLend(LendPolicy):
    """Lend all idle cores but one, keeping a warm core for the owner's
    next task (trades utilisation for reclaim latency)."""

    name = "reserve-one"

    def lend_count(self, view: LendView) -> int:
        """Lend all but one idle owned core."""
        return max(0, view.idle_owned_cores - 1)

    def lend_released(self, view: CoreGrantView) -> bool:
        """Same tail rule as :class:`EagerLend`."""
        return view.owner is None or not view.has_ready(view.owner)


class OwnerFirstReclaim(ReclaimPolicy):
    """The seed arbiter's order (the default): owner first (the LeWI
    reclaim path), then the releasing worker, then other workers by
    descending backlog."""

    name = "owner-first"

    def grant_order(self, view: CoreGrantView) -> Iterator[WorkerKey]:
        """owner → releaser → others by ``(-backlog, key)``; the others
        are ranked only if neither of the first two takes the core."""
        owner, releaser = view.owner, view.releaser
        if owner is not None:
            yield owner
        if releaser != owner:
            yield releaser
        yield from _ranked_others(view)


class ReleaserFirstReclaim(ReclaimPolicy):
    """Work-conserving variant: the releasing worker keeps its warm core
    when it still has work, deferring the owner's reclaim by one task —
    fewer reclaim round-trips at the cost of slower ownership
    convergence."""

    name = "releaser-first"

    def grant_order(self, view: CoreGrantView) -> Iterator[WorkerKey]:
        """releaser → owner → others by ``(-backlog, key)``."""
        owner, releaser = view.owner, view.releaser
        yield releaser
        if owner is not None and owner != releaser:
            yield owner
        yield from _ranked_others(view)

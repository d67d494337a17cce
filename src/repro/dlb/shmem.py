"""Per-node DLB arbiter — the simulated "shared memory" coordination point.

On a real system DLB processes coordinate through a shared-memory segment;
here one :class:`NodeArbiter` per node plays that role. It owns the core
state machine used by both modules:

* **LeWI** (fine-grained, §5.3): a worker with no ready work *lends* its
  idle cores; other workers *borrow* them; the owner *reclaims* at the
  borrower's next task boundary;
* **DROM** (coarse-grained, §5.4): ownership reassignment; busy cores
  transfer at their current task's completion (malleability happens at task
  boundaries in OmpSs-2/OpenMP).

Workers register with a small duck-typed interface (:class:`WorkerPort`):
``key``, ``has_ready()``, ``ready_count()`` and ``start_next_on(core)``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Collection, Optional, Protocol

from ..cluster.node import Core, Node, WorkerKey
from ..errors import DlbError
from ..policies import (EagerLend, LendPolicy, OwnerFirstReclaim,
                        ReclaimPolicy)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs import Observability
    from ..validate import Sanitizer

__all__ = ["NodeArbiter", "WorkerPort"]


class WorkerPort(Protocol):
    """What the arbiter needs from a worker (implemented by nanos.Worker)."""

    key: WorkerKey

    def has_ready(self) -> bool:
        """Whether the worker has a runnable task waiting for a core."""
        ...

    def ready_count(self) -> int:
        """Ready backlog size (the borrow-prioritisation signal)."""
        ...

    def start_next_on(self, core: Core) -> bool:
        """Start the next ready task on *core*; False if nothing started."""
        ...


class _LendView:
    """The :class:`~repro.policies.LendView` of one arbiter.

    Built once over the arbiter's live ``workers`` dict; the arbiter
    re-points ``worker_key``/``idle_owned_cores`` at each voluntary lend.
    """

    __slots__ = ("node_id", "worker_key", "idle_owned_cores", "_workers")

    def __init__(self, node_id: int,
                 workers: dict[WorkerKey, WorkerPort]) -> None:
        self.node_id = node_id
        self.worker_key: WorkerKey = None
        self.idle_owned_cores = 0
        self._workers = workers

    @property
    def backlog(self) -> int:
        worker = self._workers.get(self.worker_key)
        return 0 if worker is None else worker.ready_count()


class _GrantView:
    """The :class:`~repro.policies.CoreGrantView` of one arbiter.

    Built once over the arbiter's live ``workers`` dict; the arbiter
    re-points ``core_index``/``owner``/``releaser`` at each release.
    """

    __slots__ = ("node_id", "core_index", "owner", "releaser", "_workers")

    def __init__(self, node_id: int,
                 workers: dict[WorkerKey, WorkerPort]) -> None:
        self.node_id = node_id
        self.core_index = -1
        self.owner: Optional[WorkerKey] = None
        self.releaser: WorkerKey = None
        self._workers = workers

    @property
    def keys(self) -> Collection[WorkerKey]:
        return self._workers.keys()

    def has_ready(self, key: WorkerKey) -> bool:
        worker = self._workers.get(key)
        return worker is not None and worker.has_ready()

    def backlog(self, key: WorkerKey) -> int:
        worker = self._workers.get(key)
        return 0 if worker is None else worker.ready_count()


class NodeArbiter:
    """Core arbitration for one node."""

    def __init__(self, node: Node, lewi_enabled: bool = True,
                 on_ownership_change: Optional[Callable[[int], None]] = None,
                 obs: Optional["Observability"] = None,
                 lend_policy: Optional[LendPolicy] = None,
                 reclaim_policy: Optional[ReclaimPolicy] = None,
                 validator: Optional["Sanitizer"] = None) -> None:
        self.node = node
        self.lewi_enabled = lewi_enabled
        self.on_ownership_change = on_ownership_change
        self.obs = obs
        self.validator = validator
        #: lend/grant decision strategies (see :mod:`repro.policies.lewi`);
        #: the defaults reproduce the paper's LeWI behaviour
        self.lend_policy: LendPolicy = lend_policy or EagerLend()
        self.reclaim_policy: ReclaimPolicy = reclaim_policy or OwnerFirstReclaim()
        self.workers: dict[WorkerKey, WorkerPort] = {}
        #: the read-only views every lend / grant decision is handed
        self._lend = _LendView(node.node_id, self.workers)
        self._grant = _GrantView(node.node_id, self.workers)
        #: set by :meth:`fail_node` — a failed node's cores never run again
        self.dead = False
        # LeWI statistics (used by tests and by the DLB facade objects)
        self.lends = 0
        self.borrows = 0
        self.reclaims = 0
        # DROM statistics
        self.ownership_changes = 0
        self.cores_moved = 0
        # Fault statistics
        self.retires = 0

    # -- registration / initialisation ------------------------------------

    def register_worker(self, worker: WorkerPort) -> None:
        """Attach a worker process to this node's DLB shared state."""
        if self.dead:
            raise DlbError(f"node {self.node.node_id} has failed; cannot "
                           "register new workers")
        if worker.key in self.workers:
            raise DlbError(f"worker {worker.key!r} registered twice on node "
                           f"{self.node.node_id}")
        self.workers[worker.key] = worker

    def initialize_ownership(self, counts: dict[WorkerKey, int]) -> None:
        """Assign initial owners contiguously (t=0, nothing running)."""
        self._check_counts(counts)
        cursor = 0
        for worker_key, count in counts.items():
            for _ in range(count):
                self.node.cores[cursor].set_owner(worker_key)
                cursor += 1
        if self.validator is not None:
            self.validator.check_node(self)

    def _check_counts(self, counts: dict[WorkerKey, int]) -> None:
        for worker_key, count in counts.items():
            if worker_key not in self.workers:
                raise DlbError(f"unknown worker {worker_key!r} in ownership map")
            if count < 1:
                raise DlbError(
                    f"worker {worker_key!r} must own >= 1 core (DLB minimum)")
        total = sum(counts.values())
        if total != self.node.num_cores:
            raise DlbError(
                f"ownership totals {total} != {self.node.num_cores} cores")
        if set(counts) != set(self.workers):
            raise DlbError("ownership map must cover every registered worker")

    # -- ownership queries ---------------------------------------------------

    def owned_count(self, worker_key: WorkerKey) -> int:
        """Cores currently owned by *worker_key* on this node."""
        return self.node.count_owned(worker_key)

    def ownership_counts(self) -> dict[WorkerKey, int]:
        """Current owned-core count per registered worker."""
        owned = self.node.cols.owned_counts
        return {key: owned.get(key, 0) for key in self.workers}

    def effective_counts(self) -> dict[WorkerKey, int]:
        """Ownership with pending DROM transfers counted at their target.

        This is the view :meth:`set_ownership` validates against; callers
        composing a new ownership map must start from it, or an in-flight
        transfer makes a floor-owning worker look core-less.
        """
        counts = {key: 0 for key in self.workers}
        cols = self.node.cols
        owner_col, pending_col = cols.owner, cols.pending
        for i in range(self.node.num_cores):
            effective = pending_col[i] or owner_col[i]
            if effective is not None:
                counts[effective] += 1
        return counts

    def lent_idle_count(self) -> int:
        """Cores currently available to borrowers."""
        cols = self.node.cols
        occ_col = cols.occupant
        return sum(1 for i, lent in enumerate(cols.lent)
                   if lent and occ_col[i] is None)

    def available_idle_count(self, worker_key: WorkerKey) -> int:
        """Idle cores *worker_key* could start on right now: its own idle
        cores plus — with LeWI — idle cores lent by others."""
        cols = self.node.cols
        owner_col, lent_col = cols.owner, cols.lent
        lewi = self.lewi_enabled
        count = 0
        for i, occupant in enumerate(cols.occupant):
            if occupant is not None:
                continue
            if owner_col[i] == worker_key:
                count += 1
            elif lewi and lent_col[i]:
                count += 1
        return count

    # -- fault handling ----------------------------------------------------

    def retire_worker(self, worker_key: WorkerKey) -> int:
        """Remove a dead worker and reclaim everything it owned.

        Pending DROM transfers targeting the dead worker are dropped, and
        its owned cores are reassigned round-robin over the surviving
        workers (sorted for determinism) — this is the "reclaim from a dead
        borrower" path that keeps LeWI/DROM from deadlocking on a crash.
        The caller must have stopped the worker's tasks first (the cores
        must not be occupied by it). Returns the number of cores moved.
        """
        if worker_key not in self.workers:
            raise DlbError(f"retire of unknown worker {worker_key!r} on node "
                           f"{self.node.node_id}")
        del self.workers[worker_key]
        self.retires += 1
        survivors = sorted(self.workers)
        moved = 0
        cursor = 0
        for core in self.node.cores:
            if core.pending_owner == worker_key:
                core.pending_owner = None
            if core.owner != worker_key:
                continue
            if core.occupant == worker_key:
                raise DlbError(
                    f"retire_worker({worker_key!r}): core {core.index} still "
                    "running its task; kill the worker first")
            if survivors:
                core.set_owner(survivors[cursor % len(survivors)])
                cursor += 1
            else:
                core.owner = None
            core.lent = False
            moved += 1
        if self.obs is not None:
            self.obs.worker_retired(self.node.node_id, worker_key, moved)
        if moved:
            self.cores_moved += moved
            self._dispatch_idle_cores()
            if self.on_ownership_change is not None:
                self.on_ownership_change(self.node.node_id)
        if self.validator is not None:
            self.validator.check_node(self)
        return moved

    def fail_node(self) -> None:
        """Mark the whole node failed: no lends, grants, or DROM moves."""
        self.dead = True
        for core in self.node.cores:
            core.lent = False
            core.pending_owner = None

    # -- LeWI: acquire / lend / release ---------------------------------------

    def acquire_core(self, worker: WorkerPort) -> Optional[Core]:
        """A core *worker* may start a task on right now, or None.

        Preference order: an idle core it owns (taking back ones it lent),
        then — with LeWI — an idle core another worker has lent.
        """
        if self.dead:
            return None
        cols = self.node.cols
        owner_col, occ_col, lent_col = cols.owner, cols.occupant, cols.lent
        cores = self.node.cores
        key = worker.key
        for i in range(len(cores)):
            if occ_col[i] is None and owner_col[i] == key:
                lent_col[i] = False
                return cores[i]
        if self.lewi_enabled:
            for i in range(len(cores)):
                if occ_col[i] is None and lent_col[i] and owner_col[i] != key:
                    self.borrows += 1
                    if self.obs is not None:
                        self.obs.lewi_borrow(self.node.node_id, key)
                    return cores[i]
        return None

    def lend_idle_cores(self, worker_key: WorkerKey) -> int:
        """LeWI lend: mark (some of) the worker's idle cores borrowable.

        Called by a worker that has run out of ready tasks. No-op unless
        LeWI is enabled. How many of the idle owned cores are lent is the
        :class:`~repro.policies.LendPolicy`'s decision (the default lends
        all of them). Returns the number of cores newly lent.
        """
        if not self.lewi_enabled or self.dead:
            return 0
        cols = self.node.cols
        owner_col, occ_col, lent_col = cols.owner, cols.occupant, cols.lent
        idle = [i for i in range(self.node.num_cores)
                if owner_col[i] == worker_key and occ_col[i] is None
                and not lent_col[i]]
        if not idle:
            return 0
        view = self._lend
        view.worker_key = worker_key
        view.idle_owned_cores = len(idle)
        lent = max(0, min(self.lend_policy.lend_count(view), len(idle)))
        for i in idle[:lent]:
            lent_col[i] = True
        self.lends += lent
        if lent and self.obs is not None:
            self.obs.lewi_lend(self.node.node_id, worker_key, lent)
        if self.validator is not None:
            self.validator.check_node(self)
        return lent

    def release_core(self, core: Core, worker_key: WorkerKey) -> None:
        """A task just finished on *core*; decide who runs next.

        Applies any pending DROM transfer first, then offers the core to
        workers in the :class:`~repro.policies.ReclaimPolicy`'s grant
        order. The mechanism enforces the DLB rules regardless of policy:
        candidates without ready work are skipped, non-owners only get
        the core when LeWI is enabled, granting to the owner clears the
        lent flag, and the counters classify each grant (owner taking a
        core back from another releaser = *reclaim*, any non-owner grant
        = *borrow*). The default order — owner, releaser, then others by
        backlog — is the paper's behaviour. If nobody can use the core it
        goes idle, lent when LeWI is on and the
        :class:`~repro.policies.LendPolicy` agrees (by default: whenever
        the owner has nothing ready).
        """
        if core.busy:
            raise DlbError("release_core on a busy core (stop the task first)")
        if self.dead:
            return
        moved = core.apply_pending_owner()
        if moved:
            self.cores_moved += 1
        owner = core.owner
        view = self._grant
        view.core_index = core.index
        view.owner = owner
        view.releaser = worker_key
        offered: set[WorkerKey] = set()
        for key in self.reclaim_policy.grant_order(view):
            if key in offered:
                continue
            offered.add(key)
            worker = self.workers.get(key)
            if worker is None:
                continue
            is_owner = key == owner
            if not is_owner and not self.lewi_enabled:
                continue
            if not worker.has_ready():
                continue
            if is_owner:
                if key != worker_key:
                    self.reclaims += 1
                    if self.obs is not None:
                        self.obs.lewi_reclaim(self.node.node_id, owner)
                core.lent = False
            else:
                self.borrows += 1
                if self.obs is not None:
                    self.obs.lewi_borrow(self.node.node_id, key)
            if worker.start_next_on(core):
                return
        # Nobody can use it: idle. Lend it if the lend policy says so.
        lend = self.lewi_enabled and self.lend_policy.lend_released(view)
        core.lent = lend
        if lend:
            self.lends += 1
            if self.obs is not None and owner is not None:
                self.obs.lewi_lend(self.node.node_id, owner, 1)
        if self.validator is not None:
            self.validator.check_node(self)

    # -- DROM: ownership reassignment -------------------------------------

    def set_ownership(self, counts: dict[WorkerKey, int]) -> int:
        """DROM reassignment towards *counts*.

        Idle cores move immediately; busy cores get a pending transfer
        applied at their current task's completion. Returns the number of
        cores whose (current or pending) owner changed.
        """
        if self.dead:
            raise DlbError(f"node {self.node.node_id} has failed; DROM "
                           "ownership is frozen")
        self._check_counts(counts)
        current: dict[WorkerKey, list[Core]] = {key: [] for key in self.workers}
        for core in self.node.cores:
            effective = core.pending_owner or core.owner
            if effective is None:
                raise DlbError("set_ownership before initialize_ownership")
            current[effective].append(core)
        surplus: list[Core] = []
        deficit: list[tuple[WorkerKey, int]] = []
        for worker_key in self.workers:
            have = current[worker_key]
            want = counts[worker_key]
            if len(have) > want:
                # Donate idle cores first so transfers take effect now.
                have_sorted = sorted(have, key=lambda c: (c.busy, c.index))
                surplus.extend(have_sorted[want:])
            elif len(have) < want:
                deficit.append((worker_key, want - len(have)))
        moved = 0
        surplus.sort(key=lambda c: (c.busy, c.index))
        it = iter(surplus)
        for worker_key, needed in deficit:
            for _ in range(needed):
                core = next(it)
                moved += 1
                if core.busy:
                    core.pending_owner = worker_key
                else:
                    core.set_owner(worker_key)
        self.ownership_changes += 1
        self.cores_moved += moved
        if moved:
            self._dispatch_idle_cores()
            if self.on_ownership_change is not None:
                self.on_ownership_change(self.node.node_id)
        if self.validator is not None:
            self.validator.check_node(self)
        return moved

    def _dispatch_idle_cores(self) -> None:
        """After ownership moves, put newly idle-owned cores to work."""
        cols = self.node.cols
        owner_col, occ_col, lent_col = cols.owner, cols.occupant, cols.lent
        cores = self.node.cores
        for i in range(len(cores)):
            if occ_col[i] is not None:
                continue
            owner_key = owner_col[i]
            owner = self.workers.get(owner_key) if owner_key is not None else None
            if owner is not None and owner.has_ready():
                lent_col[i] = False
                owner.start_next_on(cores[i])

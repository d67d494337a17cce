"""Built-in offload policies.

``tentative`` is the paper's §5.5 rule, extracted verbatim from the seed
scheduler (the default — parity-tested bit-identical). ``locality`` and
``work-sharing`` are the two ablation variants the paper could not test:
one weights the choice by bytes resident per node's
:class:`~repro.nanos.locality.DataDirectory`, the other is a bounded
work-sharing baseline that only offloads once the home node saturates.
"""

from __future__ import annotations

from typing import Sequence

from .base import KEEP, QUEUE, Decision, OffloadPolicy, SchedulerView, TaskView

__all__ = ["TentativeImmediateOffload", "LocalityWeightedOffload",
           "BoundedWorkSharingOffload"]


class TentativeImmediateOffload(OffloadPolicy):
    """The paper's §5.5 tentative-immediate rule (the default).

    Walk the adjacent nodes best-locality-first (home wins ties) and take
    the first live node holding fewer than ``tasks_per_core`` unfinished
    tasks per *owned* core; otherwise spill. Queued tasks are retried in
    FIFO order (the inherited :meth:`~OffloadPolicy.drain_order`).
    """

    name = "tentative"

    def choose_worker(self, task: TaskView, view: SchedulerView) -> Decision:
        """First under-threshold node in §5.5 locality order, else QUEUE."""
        limit = view.tasks_per_core
        for node_id in task.by_locality():
            # the load test first: it is what rejects most candidates (a
            # crashed worker not yet unregistered is skipped as well)
            if view.load_ratio(node_id) < limit and view.alive(node_id):
                return KEEP if node_id == view.home_node else node_id
        return QUEUE


class LocalityWeightedOffload(OffloadPolicy):
    """Data-gravity variant: weight §5.5 by bytes resident per node.

    Among live under-threshold nodes, pick the one maximising
    ``bytes_present / (1 + active_tasks)`` — resident input data
    discounted by the work already bound there — so a node holding the
    task's inputs attracts it even when a closer-to-idle node exists,
    trading queueing delay for transfer avoidance. Ties fall back to the
    §5.5 home-first order. The spill queue drains biggest-input tasks
    first: they gain the most from placement freedom.
    """

    name = "locality"

    def choose_worker(self, task: TaskView, view: SchedulerView) -> Decision:
        """Best data-per-pending-task node under the threshold, else QUEUE."""
        best_id: int | None = None
        best_key: tuple[float, bool, int] | None = None
        for node in view.nodes:
            if not node.alive or node.load_ratio >= view.tasks_per_core:
                continue
            key = (-(node.bytes_present / (1.0 + node.active_tasks)),
                   node.node_id != view.home_node, node.node_id)
            if best_key is None or key < best_key:
                best_id, best_key = node.node_id, key
        if best_id is None:
            return QUEUE
        return KEEP if best_id == view.home_node else best_id

    def drain_order(self, queue: Sequence[TaskView],
                    view: SchedulerView) -> Sequence[int]:
        """Retry spilled tasks biggest input footprint first (stable)."""
        return sorted(range(len(queue)),
                      key=lambda i: (-queue[i].input_bytes, i))


class BoundedWorkSharingOffload(OffloadPolicy):
    """Bounded work-sharing baseline: share only when home saturates.

    Keep every task home while the home node is under the §5.5
    threshold; once it saturates, push to the least-loaded live adjacent
    node still under the threshold (lowest load ratio, node id as the
    tie-break), ignoring data locality entirely; otherwise spill. This
    is classic receiver-blind work sharing bounded by the same
    two-per-owned-core limit, isolating how much of the paper's win
    comes from locality ordering versus from offloading per se.
    """

    name = "work-sharing"

    def choose_worker(self, task: TaskView, view: SchedulerView) -> Decision:
        """KEEP under home threshold; else least-loaded helper; else QUEUE."""
        home = view.node(view.home_node)
        if home.alive and home.load_ratio < view.tasks_per_core:
            return KEEP
        best_id: int | None = None
        best_key: tuple[float, int] | None = None
        for node in view.nodes:
            if (node.node_id == view.home_node or not node.alive
                    or node.load_ratio >= view.tasks_per_core):
                continue
            key = (node.load_ratio, node.node_id)
            if best_key is None or key < best_key:
                best_id, best_key = node.node_id, key
        return QUEUE if best_id is None else best_id

"""ClusterRuntime: the whole MPI+OmpSs-2@Cluster+DLB stack for one run.

Assembles (Figure 2): the simulated cluster, the expander graph and worker
placement, one DLB arbiter per node with LeWI/DROM facades, one
:class:`~repro.nanos.apprank.AppRankRuntime` per application rank with its
workers, the selected core-allocation policy, TALP, optional
instrumentation (``obs``), and the simulated MPI world whose world
communicator plays the role of ``nanos6_app_communicator()``.

The application is an SPMD generator ``main(comm, rt, *args)`` — *comm* is
the apprank's MPI view, *rt* its runtime (``submit``/``taskwait``) — run to
completion with :meth:`ClusterRuntime.run_app`.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from ..balance.dynamic import DynamicSpreader
from ..balance.global_policy import GlobalLpPolicy
from ..balance.local_policy import LocalConvergencePolicy
from ..cluster.topology import Cluster, ClusterSpec
from ..dlb.drom import DromModule
from ..dlb.lewi import LewiModule
from ..dlb.shmem import NodeArbiter
from ..dlb.talp import TalpModule, TalpReport
from ..errors import (FaultError, NodeFailedError, RuntimeModelError,
                      SimulationError, TaskLostError)
from ..faults.injector import FaultInjector
from ..faults.plan import FaultPlan
from ..graph.cache import get_graph
from ..graph.placement import WorkerKey, build_placement
from ..mpisim.world import MpiWorld
from ..policies import (LEND_POLICIES, REALLOCATION_POLICIES,
                        RECLAIM_POLICIES, NodeReallocationPolicy)
from ..sim.engine import Simulator
from .apprank import AppRankRuntime
from .config import RuntimeConfig
from .task import Task, TaskState
from .worker import Worker

__all__ = ["ClusterRuntime"]

AppMain = Callable[..., Generator[Any, Any, Any]]


class ClusterRuntime:
    """One fully wired simulated execution environment."""

    def __init__(self, spec: ClusterSpec, num_appranks: int,
                 config: RuntimeConfig,
                 faults: Optional[FaultPlan] = None,
                 home_nodes: Optional[int] = None) -> None:
        self.spec = spec
        self.config = config
        self.num_appranks = num_appranks
        self.sim = Simulator()
        self.cluster = Cluster(spec)
        #: nodes participating in the static graph (homes + helpers);
        #: nodes beyond this are *spares*, reachable only by add_helper —
        #: the substrate for surviving a whole-node crash
        self.home_nodes = spec.num_nodes if home_nodes is None else home_nodes
        if not 1 <= self.home_nodes <= spec.num_nodes:
            raise RuntimeModelError(
                f"home_nodes={home_nodes} outside 1..{spec.num_nodes}")
        self.graph = get_graph(num_appranks, self.home_nodes,
                               config.offload_degree,
                               seed=config.graph_seed,
                               use_cache=config.use_graph_cache)
        self.placement = build_placement(self.graph,
                                         spec.machine.cores_per_node)
        #: structured instrumentation (event bus + metrics). The import is
        #: deliberately lazy: a disabled run never even loads repro.obs.
        self.obs = None
        if config.obs:
            from ..obs import Observability
            self.obs = Observability(self.sim)
            self.sim.tracer = self.obs
        #: invariant sanitizer (lazily imported like obs; purely passive)
        self.validator = None
        if config.validate:
            from ..validate import Sanitizer
            self.validator = Sanitizer(self.sim, obs=self.obs)
            self.sim.validator = self.validator
        self.talp = TalpModule(spec.total_cores)

        # One lend/reclaim policy instance per node mirrors the per-node
        # DLB shared-memory segments (policies are pure, but sharing one
        # instance across nodes would hide accidental state).
        self.arbiters: dict[int, NodeArbiter] = {
            node.node_id: NodeArbiter(
                node, lewi_enabled=config.lewi,
                on_ownership_change=self._ownership_changed,
                obs=self.obs,
                lend_policy=LEND_POLICIES.create(config.lend_policy),
                reclaim_policy=RECLAIM_POLICIES.create(config.reclaim_policy),
                validator=self.validator)
            for node in self.cluster.nodes
        }
        self.lewi = LewiModule(self.arbiters, enabled=config.lewi)
        self.drom = DromModule(self.arbiters, enabled=config.drom)

        self.appranks: list[AppRankRuntime] = []
        self.workers: dict[WorkerKey, Worker] = {}
        self._build_appranks()
        self._initialize_ownership()

        #: MPI world containing only the appranks (the app communicator);
        #: helper-rank control traffic is modelled directly on the network.
        self.world = MpiWorld(
            self.sim, self.cluster,
            rank_to_node=[self.graph.home_node(a) for a in range(num_appranks)])
        self.app_comm = self.world.world_comm
        # TALP intercepts the appranks' MPI calls (§3.3); world rank ==
        # apprank id in this wiring.
        self.world.talp_hook = self.talp.add_mpi
        self.world.obs = self.obs
        self.world.validator = self.validator

        self.policy = self._build_policy()
        self.spreader: Optional[DynamicSpreader] = (
            DynamicSpreader(self, period=config.dynamic_period,
                            patience=config.dynamic_patience,
                            max_degree=config.dynamic_max_degree,
                            spawn_latency=config.dynamic_spawn_latency)
            if config.dynamic_spreading else None)
        #: node -> appranks with a worker there (kept current as dynamic
        #: spreading adds helpers; the static graph only knows t=0)
        self._appranks_on_node: dict[int, set[int]] = {
            n: (set(self.graph.appranks_on(n))
                if n < self.graph.num_nodes else set())
            for n in range(spec.num_nodes)
        }
        self.elapsed: Optional[float] = None

        #: nodes that crashed mid-run (their cores never run again)
        self.dead_nodes: set[int] = set()
        #: crashed workers, kept for their execution counters
        self.dead_workers: list[Worker] = []
        self.tasks_recovered = 0
        self.faults: Optional[FaultInjector] = (
            FaultInjector(self, faults)
            if faults is not None and not faults.empty else None)

    # -- construction -------------------------------------------------------

    def _build_appranks(self) -> None:
        network = self.cluster.network
        for apprank_id in range(self.num_appranks):
            home = self.graph.home_node(apprank_id)
            worker_map: dict[int, Worker] = {}
            runtime = AppRankRuntime(self.sim, apprank_id, home, worker_map,
                                     network, self.config, obs=self.obs,
                                     validator=self.validator)
            for node_id in self.graph.nodes_of(apprank_id):
                worker = Worker(self.sim, (apprank_id, node_id),
                                self.cluster.node(node_id),
                                self.arbiters[node_id],
                                on_task_finished=runtime.on_task_finished,
                                talp=self.talp, obs=self.obs,
                                validator=self.validator)
                worker.apprank_runtime = runtime
                worker_map[node_id] = worker
                self.workers[worker.key] = worker
                self.arbiters[node_id].register_worker(worker)
            self.appranks.append(runtime)

    def _initialize_ownership(self) -> None:
        for node_id, workers_here in enumerate(self.placement.workers_by_node):
            counts = {key: self.placement.initial_cores[key]
                      for key in workers_here}
            self.arbiters[node_id].initialize_ownership(counts)

    def _build_policy(self):
        if self.config.policy is None:
            return None
        strategy = REALLOCATION_POLICIES.create(self.config.policy)
        node_cores = {n: self.spec.machine.cores_per_node
                      for n in range(self.spec.num_nodes)}
        # Per-node strategies ride the local convergence driver (its tick,
        # EMA and warmup); cluster-wide ones ride the global LP driver
        # (its gather/solve latency model and solver-failure fallback).
        if isinstance(strategy, NodeReallocationPolicy):
            workers_by_node = {
                node_id: [self.workers[key] for key in keys]
                for node_id, keys in enumerate(self.placement.workers_by_node)
            }
            return LocalConvergencePolicy(
                self.sim, self.drom, workers_by_node, node_cores,
                period=self.config.local_period, strategy=strategy)
        node_speed = {n: self.spec.node_speed(n)
                      for n in range(self.spec.num_nodes)}
        return GlobalLpPolicy(
            self.sim, self.graph, self.drom, self.workers, node_cores,
            node_speed, self.cluster.network,
            period=self.config.global_period,
            offload_penalty=self.config.offload_penalty,
            model_solver_cost=self.config.model_solver_cost,
            partition_nodes=self.config.global_partition_nodes,
            strategy=strategy)

    # -- hooks ---------------------------------------------------------------

    def _ownership_changed(self, node_id: int) -> None:
        """DROM moved cores on *node_id*: re-evaluate spill queues and traces."""
        for apprank_id in self._appranks_on_node[node_id]:
            self.appranks[apprank_id].scheduler.drain()
        if self.obs is not None:
            self.obs.ownership_sample(
                node_id, self.arbiters[node_id].ownership_counts())

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Arm policies, TALP, obs and faults; lend initially idle cores."""
        if self.faults is not None:
            self.faults.arm()
            if self.validator is not None:
                # Message losses legitimately reorder deliveries; the
                # sanitizer keeps conservation checks but drops FIFO.
                self.validator.relax_message_order()
        self.talp.start(self.sim.now)
        for key in self.placement.workers:
            self.arbiters[key[1]].lend_idle_cores(key)
        if self.policy is not None:
            self.policy.start()
        if self.spreader is not None:
            self.spreader.start()
        if self.obs is not None:
            for node_id, arbiter in self.arbiters.items():
                self.obs.ownership_sample(node_id,
                                          arbiter.ownership_counts())

    def stop(self) -> None:
        """Disarm policies and the spreader (idempotent)."""
        if self.policy is not None:
            self.policy.stop()
        if self.spreader is not None:
            self.spreader.stop()

    def add_helper(self, apprank_id: int, node_id: int) -> Worker:
        """Grow the spreading graph at runtime (§5.2's dynamic extension).

        Creates a helper worker for *apprank_id* on *node_id*, registers it
        with the node's DLB arbiter, seeds it with the one-core DROM floor
        (taken from the node's largest owner), and plugs it into the active
        allocation policy. The §5.5 scheduler sees the new node on the next
        placement decision.
        """
        apprank_rt = self.apprank(apprank_id)
        if node_id in apprank_rt.workers:
            raise RuntimeModelError(
                f"apprank {apprank_id} already reaches node {node_id}")
        if node_id in self.dead_nodes:
            raise RuntimeModelError(f"node {node_id} has failed")
        arbiter = self.arbiters[node_id]
        cores = self.spec.machine.cores_per_node
        if len(arbiter.workers) >= cores:
            raise RuntimeModelError(
                f"node {node_id} cannot host another one-core floor")
        worker = Worker(self.sim, (apprank_id, node_id),
                        self.cluster.node(node_id), arbiter,
                        on_task_finished=apprank_rt.on_task_finished,
                        talp=self.talp, obs=self.obs,
                        validator=self.validator)
        worker.apprank_runtime = apprank_rt
        arbiter.register_worker(worker)
        if len(arbiter.workers) == 1:
            # Virgin node (a spare outside the home graph, or one whose
            # workers all crashed and retired): the first helper owns it.
            apprank_rt.workers[node_id] = worker
            self.workers[worker.key] = worker
            self._appranks_on_node[node_id].add(apprank_id)
            arbiter.initialize_ownership({worker.key: cores})
            if self.obs is not None:
                self.obs.ownership_sample(node_id, arbiter.ownership_counts())
            arbiter.lend_idle_cores(worker.key)
            if self.policy is not None:
                self.policy.add_worker(worker)
            apprank_rt.scheduler.drain()
            return worker
        # Seed the DLB floor: take one core from the node's largest owner
        # (by effective ownership — in-flight DROM transfers count at their
        # target, or a floor-owning worker could be picked as donor).
        counts = arbiter.effective_counts()
        donor = max(counts, key=lambda key: (counts[key], key))
        if counts[donor] < 2:
            raise RuntimeModelError(
                f"node {node_id} has no spare core for a new helper")
        counts[donor] -= 1
        counts[worker.key] = 1
        apprank_rt.workers[node_id] = worker
        self.workers[worker.key] = worker
        self._appranks_on_node[node_id].add(apprank_id)
        arbiter.set_ownership(counts)
        if self.policy is not None:
            self.policy.add_worker(worker)
        apprank_rt.scheduler.drain()      # new capacity for the spill queue
        return worker

    def schedule_speed_change(self, at_time: float, node_id: int,
                              speed: float) -> None:
        """Inject a DVFS/thermal event: *node_id* runs at *speed* from
        *at_time* on (tasks started later take ``nominal/speed``).

        Call before :meth:`run_app`. This is the paper's motivating
        system-level imbalance (§1: "DVFS ... thermal and power
        management") made injectable; the policies are expected to react.
        """
        node = self.cluster.node(node_id)
        self.sim.schedule_at(at_time, lambda: node.set_speed(speed),
                             label=f"speed-change:n{node_id}")

    # -- fault handling ----------------------------------------------------

    def crash_worker(self, apprank_id: int, node_id: int) -> None:
        """A helper worker process dies at the current simulated time.

        The §5.5 contract says offloading is final — except here: tasks
        lost with the worker (running, queued, or still in flight to it)
        are re-submitted to the apprank's scheduler, bounded per task by
        ``config.max_retries``. The crash of an apprank's *main* worker
        (home node) is not survivable: the dependency graph and the
        application process live there.
        """
        apprank_rt = self.apprank(apprank_id)
        worker = apprank_rt.workers.get(node_id)
        if worker is None:
            raise FaultError(
                f"apprank {apprank_id} has no worker on node {node_id}")
        if node_id == apprank_rt.home_node:
            raise NodeFailedError(
                f"apprank {apprank_id}'s main worker (home node {node_id}) "
                "crashed; its dependency graph and application process are "
                "not recoverable")
        lost = self._take_down(worker)
        self.arbiters[node_id].retire_worker(worker.key)
        apprank_rt.directory.drop_node(node_id)
        if self.obs is not None:
            self.obs.fault("worker-crash", node=node_id, apprank=apprank_id,
                           tasks_lost=len(lost))
        self._recover_tasks(lost)

    def crash_node(self, node_id: int) -> None:
        """A whole node dies: kill its workers, freeze its cores, recover.

        Only survivable for nodes hosting no apprank home — run with
        ``home_nodes < spec.num_nodes`` and grow onto the spares via
        :meth:`add_helper` to model crash-tolerant deployments.
        """
        if node_id in self.dead_nodes:
            raise FaultError(f"node {node_id} crashed twice")
        victims = [self.appranks[a].workers[node_id]
                   for a in sorted(self._appranks_on_node[node_id])]
        for worker in victims:
            if self.appranks[worker.apprank].home_node == node_id:
                raise NodeFailedError(
                    f"node {node_id} hosts apprank {worker.apprank}'s home; "
                    "a home-node crash is not recoverable (use spare nodes "
                    "via home_nodes= for survivable node crashes)")
        lost: list[Task] = []
        for worker in victims:
            lost.extend(self._take_down(worker))
        self.arbiters[node_id].fail_node()
        self.dead_nodes.add(node_id)
        for worker in victims:
            self.appranks[worker.apprank].directory.drop_node(node_id)
        if self.policy is not None and hasattr(self.policy, "remove_node"):
            self.policy.remove_node(node_id)
        if self.obs is not None:
            self.obs.fault("node-crash", node=node_id, tasks_lost=len(lost))
        self._recover_tasks(lost)

    def _take_down(self, worker: Worker) -> list[Task]:
        """Common crash bookkeeping for one worker; returns its lost tasks."""
        apprank_rt = self.appranks[worker.apprank]
        lost = worker.kill()
        apprank_rt.workers.pop(worker.node_id, None)
        self.workers.pop(worker.key, None)
        self._appranks_on_node[worker.node_id].discard(worker.apprank)
        lost.extend(apprank_rt.scheduler.recover_dispatches(worker.node_id))
        if self.policy is not None:
            self.policy.remove_worker(worker)
        self.dead_workers.append(worker)
        return lost

    def _recover_tasks(self, tasks: list[Task]) -> None:
        """Re-submit lost tasks to their appranks' schedulers."""
        for task in sorted(tasks, key=lambda t: t.task_id):
            task.retries += 1
            if task.retries > self.config.max_retries:
                raise TaskLostError(
                    f"{task!r} lost {task.retries} times "
                    f"(max_retries={self.config.max_retries})", task=task)
            task.state = TaskState.READY
            task.assigned_node = None
            task.start_time = None
            self.tasks_recovered += 1
            if self.faults is not None:
                self.faults.note_recovered(task)
            if self.obs is not None:
                self.obs.fault("task-recovered", apprank=task.apprank,
                               task_id=task.task_id, retry=task.retries)
            self.appranks[task.apprank].scheduler.on_ready(task)

    def apprank(self, apprank_id: int) -> AppRankRuntime:
        """The per-apprank runtime handle (range-checked)."""
        if not 0 <= apprank_id < self.num_appranks:
            raise RuntimeModelError(f"apprank {apprank_id} out of range")
        return self.appranks[apprank_id]

    def run_app(self, main: AppMain, args: tuple = ()) -> list[Any]:
        """Run ``main(comm, rt, *args)`` SPMD across the appranks.

        Returns each apprank's return value; ``self.elapsed`` holds the
        simulated time-to-solution.
        """
        self.start()
        remaining = self.num_appranks
        results: list[Any] = [None] * self.num_appranks

        processes = []
        for apprank_id in range(self.num_appranks):
            comm = self.app_comm.view(apprank_id)
            gen = main(comm, self.appranks[apprank_id], *args)
            processes.append(self.sim.spawn(gen, name=f"apprank{apprank_id}"))

        def on_done(_value: Any) -> None:
            nonlocal remaining
            remaining -= 1

        for process in processes:
            process._subscribe(self.sim, on_done)

        sim = self.sim
        if sim._validator is None:
            # Inlined drain: same loop as Simulator.run's fast path,
            # with the apprank-completion counter as the stop test.
            queue = sim._queue
            pop = queue.pop
            fired = 0
            try:
                while remaining > 0:
                    if not queue._live:
                        stuck = [p.name for p in processes if not p.done]
                        raise SimulationError(
                            "deadlock: appranks never finished: "
                            f"{', '.join(stuck)}")
                    event = pop()
                    sim._now = event.time
                    fired += 1
                    event.callback()
            finally:
                sim.events_fired += fired
        else:
            step = sim.step
            while remaining > 0:
                if not step():
                    stuck = [p.name for p in processes if not p.done]
                    raise SimulationError(
                        f"deadlock: appranks never finished: "
                        f"{', '.join(stuck)}")
        self.stop()
        self.sim.run()   # drain task completions of fire-and-forget apps
        self.elapsed = self.sim.now
        if self.obs is not None:
            self.obs.finish(self.elapsed)
        if self.validator is not None:
            self.validator.finish(self)
        for i, process in enumerate(processes):
            results[i] = process.result
        return results

    # -- reporting --------------------------------------------------------

    def talp_report(self) -> TalpReport:
        """Live TALP efficiency snapshot at the current sim time."""
        return self.talp.snapshot(self.sim.now)

    def total_offloaded(self) -> int:
        """Tasks executed away from their apprank's home node, so far."""
        return sum(rt.scheduler.tasks_offloaded for rt in self.appranks)

    def stats(self) -> dict[str, Any]:
        """Run-level counters (tasks, offloads, DLB activity, messages)."""
        stats = {
            "elapsed": self.elapsed,
            "events": self.sim.events_fired,
            "tasks": sum(rt.tasks_submitted for rt in self.appranks),
            "executed": (sum(w.tasks_executed for w in self.workers.values())
                         + sum(w.tasks_executed for w in self.dead_workers)),
            "offloaded": self.total_offloaded(),
            "lewi": self.lewi.stats(),
            "drom_changes": self.drom.total_changes,
            "drom_cores_moved": self.drom.total_cores_moved,
            "mpi_messages": self.world.messages_sent,
        }
        if self.faults is not None:
            stats["faults"] = self.faults.stats()
            stats["tasks_recovered"] = self.tasks_recovered
            stats["offload_resends"] = sum(
                rt.scheduler.offload_resends for rt in self.appranks)
        return stats

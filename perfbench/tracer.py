"""Outside-in layer tracing: spans around calls into each layer of ``repro``.

Nothing under ``src/`` knows about this module. :class:`Instrumentation`
replaces a fixed list of public entry points (class attributes and module
globals) with wrappers that record a span, and puts every original back
on :meth:`Instrumentation.uninstall`. A span is (name, start, end,
parent); spans are kept in memory in a :class:`SpanLog` and written out
at the end of the run. A layer's self time is the duration of its spans
minus the parts their child spans cover.

Event callbacks and process steps are private to the simulator, so they
are attributed from outside: the wrapped ``Simulator.schedule`` /
``schedule_at`` wrap each callback, and each fired callback is credited
to the layer of the module that defines it (a ``functools.partial`` or
bound method is unwrapped to its function first). ``Simulator.spawn``
wraps each process generator the same way, so a process step is credited
to the layer of the generator's module, while the layer calls it makes
(``submit``, ``taskwait``, MPI collectives) open child spans of their own.

``ClusterRuntime.run_app`` is credited to ``sim``: besides the handful of
setup calls it makes once, its own time is the inlined event-drain loop
(queue pops and the dispatch of each event).
"""

from __future__ import annotations

from functools import partial
from inspect import isfunction
from time import perf_counter
from typing import Any, Callable

import numpy as np

#: layers of ``repro`` with their own self time; any other module is
#: credited to "other", which counts as unattributed
LAYERS = ("runtime", "apps", "sim", "nanos", "dlb", "mpisim", "balance",
          "policies", "jobs")

#: span kinds the metrics count
ROOT, CALL, CALLBACK, PROCESS = "root", "call", "callback", "process"


def layer_of(module: str) -> str:
    """The layer a ``repro`` module belongs to (``repro.<layer>...``)."""
    parts = module.split(".")
    if len(parts) > 1 and parts[0] == "repro" and parts[1] in LAYERS:
        return parts[1]
    return "other"


class SpanLog:
    """Spans in parallel lists while recording; one array set per repeat."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layers: list[str] = []
        self.kinds: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.stack: list[int] = [-1]
        #: one dict of numpy arrays per finished repeat
        self.repeats: list[dict[str, np.ndarray]] = []

    def intern(self, name: str, layer: str, kind: str = CALL) -> int:
        """The id of span name *name*, registering it on first use."""
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
            self.kinds.append(kind)
        return nid

    def open(self, nid: int) -> int:
        i = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self.stack.pop()

    def finish_repeat(self) -> dict[str, np.ndarray]:
        """Freeze the spans recorded since the last call into arrays."""
        if len(self.stack) != 1:
            raise RuntimeError(f"unbalanced spans: {len(self.stack) - 1} open")
        arrays = {"name_id": np.asarray(self.name_id, dtype=np.int32),
                  "start": np.asarray(self.start),
                  "end": np.asarray(self.end),
                  "parent": np.asarray(self.parent, dtype=np.int64)}
        for column in (self.name_id, self.start, self.end, self.parent):
            column.clear()
        self.repeats.append(arrays)
        return arrays

    def save(self, path) -> None:
        """Write every repeat's spans (``repeat`` column = repeat id)."""
        cat = {key: np.concatenate([r[key] for r in self.repeats])
               for key in ("name_id", "start", "end", "parent")}
        cat["repeat"] = np.concatenate(
            [np.full(len(r["start"]), k, dtype=np.int32)
             for k, r in enumerate(self.repeats)])
        np.savez_compressed(path, names=np.asarray(self.names),
                            layers=np.asarray(self.layers),
                            kinds=np.asarray(self.kinds), **cat)


class _GenSpan:
    """A generator proxy whose every resume is one span."""

    __slots__ = ("_gen", "_nid", "_log")

    def __init__(self, gen, nid: int, log: SpanLog) -> None:
        self._gen = gen
        self._nid = nid
        self._log = log

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        log = self._log
        i = log.open(self._nid)
        try:
            return self._gen.send(value)
        finally:
            log.close(i)

    def throw(self, *args):
        log = self._log
        i = log.open(self._nid)
        try:
            return self._gen.throw(*args)
        finally:
            log.close(i)

    def close(self):
        return self._gen.close()


class Instrumentation:
    """Installs and removes the span wrappers; holds the counters that are
    not span counts."""

    def __init__(self, log: SpanLog) -> None:
        self.log = log
        self._undo: list[tuple[Any, str, Any]] = []
        self._callback_ids: dict[Any, int] = {}
        #: objects built while installed (for the fidelity checks)
        self.simulators: list[Any] = []
        self.runtimes: list[Any] = []
        self.reset_counters()

    def reset_counters(self) -> None:
        self.scheduled = 0
        self.cancelled = 0
        self.acquire_hits = 0
        self.reallocations = 0
        self.simulators.clear()
        self.runtimes.clear()

    # -- patching --------------------------------------------------------

    def _patch(self, owner: Any, attr: str,
               make: Callable[[Any], Any]) -> None:
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        setattr(owner, attr, make(original))
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put back every original, newest patch first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _span(self, name: str, layer: str) -> Callable[[Any], Any]:
        """Wrapper factory: each call of the wrapped function is a span."""
        log = self.log
        nid = log.intern(name, layer)

        def make(fn):
            def traced(*args, **kwargs):
                i = log.open(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    log.close(i)
            return traced
        return make

    def _gen_span(self, name: str, layer: str) -> Callable[[Any], Any]:
        """Wrapper factory for functions returning a generator: every
        resume of the returned generator is a span."""
        log = self.log
        nid = log.intern(name, layer)

        def make(fn):
            def traced(*args, **kwargs):
                return _GenSpan(fn(*args, **kwargs), nid, log)
            return traced
        return make

    def _wrap_callback(self, callback: Callable[[], Any]) -> Callable[[], Any]:
        fn = callback
        while isinstance(fn, partial):
            fn = fn.func
        fn = getattr(fn, "__func__", fn)
        code = getattr(fn, "__code__", fn)
        nid = self._callback_ids.get(code)
        if nid is None:
            module = getattr(fn, "__module__", "") or ""
            qualname = getattr(fn, "__qualname__", repr(fn))
            nid = self._callback_ids[code] = self.log.intern(
                f"callback:{module}.{qualname}", layer_of(module), CALLBACK)
        log = self.log

        def fired():
            i = log.open(nid)
            try:
                callback()
            finally:
                log.close(i)
        return fired

    def _wrap_process(self, gen):
        frame = getattr(gen, "gi_frame", None)
        module = frame.f_globals.get("__name__", "") if frame else ""
        name = f"process:{module}.{getattr(gen, '__qualname__', 'gen')}"
        nid = self.log.intern(name, layer_of(module), PROCESS)
        return _GenSpan(gen, nid, self.log)

    # -- the entry points ------------------------------------------------

    def install(self) -> None:
        """Wrap every traced entry point (see the module docstring)."""
        import repro.apps.micropp.workload as micropp
        import repro.apps.nbody.workload as nbody
        import repro.apps.synthetic as synthetic
        import repro.balance.global_policy as global_policy
        import repro.jobs.engine as jobs_engine
        from repro import policies
        from repro.dlb.shmem import NodeArbiter
        from repro.jobs.arbiter import JobsArbiter
        from repro.mpisim.comm import RankComm
        from repro.mpisim.world import MpiWorld
        from repro.nanos.apprank import AppRankRuntime
        from repro.nanos.runtime import ClusterRuntime
        from repro.sim.engine import Simulator

        log = self.log
        inst = self

        # sim: the clock owner, its callbacks and processes
        def sim_init(original):
            def traced(sim, *args, **kwargs):
                original(sim, *args, **kwargs)
                inst.simulators.append(sim)
            return traced

        def schedule(original):
            def traced(sim, delay, callback, *args, **kwargs):
                inst.scheduled += 1
                return original(sim, delay, inst._wrap_callback(callback),
                                *args, **kwargs)
            return traced

        def cancel(original):
            def traced(sim, event):
                if not event.cancelled and not event.fired:
                    inst.cancelled += 1
                return original(sim, event)
            return traced

        def spawn(original):
            def traced(sim, gen, *args, **kwargs):
                return original(sim, inst._wrap_process(gen), *args, **kwargs)
            return traced

        self._patch(Simulator, "__init__", sim_init)
        self._patch(Simulator, "schedule", schedule)
        self._patch(Simulator, "schedule_at", schedule)
        self._patch(Simulator, "cancel", cancel)
        self._patch(Simulator, "spawn", spawn)
        self._patch(Simulator, "run", self._span("Simulator.run", "sim"))
        self._patch(ClusterRuntime, "run_app",
                    self._span("ClusterRuntime.run_app", "sim"))

        # runtime construction (graph, workers, arbiters)
        build_nid = log.intern("ClusterRuntime.__init__", "runtime")

        def runtime_init(original):
            def traced(runtime, *args, **kwargs):
                i = log.open(build_nid)
                try:
                    original(runtime, *args, **kwargs)
                finally:
                    log.close(i)
                inst.runtimes.append(runtime)
            return traced

        self._patch(ClusterRuntime, "__init__", runtime_init)

        # apps: workload generation
        for module, fn in ((synthetic, "task_durations"),
                           (micropp, "subdomain_durations"),
                           (nbody, "block_durations")):
            self._patch(module, fn, self._span(f"apps.generate:{fn}", "apps"))

        # nanos: the programmer's model
        self._patch(AppRankRuntime, "submit",
                    self._span("AppRankRuntime.submit", "nanos"))
        self._patch(AppRankRuntime, "taskwait",
                    self._gen_span("AppRankRuntime.taskwait", "nanos"))

        # dlb: LeWI acquire/lend/release and DROM ownership
        acquire_nid = log.intern("NodeArbiter.acquire_core", "dlb")

        def acquire(original):
            def traced(arbiter, worker):
                i = log.open(acquire_nid)
                try:
                    core = original(arbiter, worker)
                finally:
                    log.close(i)
                if core is not None:
                    inst.acquire_hits += 1
                return core
            return traced

        self._patch(NodeArbiter, "acquire_core", acquire)
        for method in ("lend_idle_cores", "release_core", "set_ownership"):
            self._patch(NodeArbiter, method,
                        self._span(f"NodeArbiter.{method}", "dlb"))

        # mpisim: blocking calls and collectives, and each posted message
        for method in ("send", "recv", "sendrecv", "barrier", "bcast",
                       "reduce", "allreduce", "gather", "allgather",
                       "scatter", "alltoall", "scan", "exscan",
                       "reduce_scatter"):
            if method in RankComm.__dict__:
                self._patch(RankComm, method,
                            self._gen_span(f"RankComm.{method}", "mpisim"))
        for method in ("isend", "irecv"):
            self._patch(RankComm, method,
                        self._span(f"RankComm.{method}", "mpisim"))
        self._patch(MpiWorld, "_post_send",
                    self._span("MpiWorld.post_send", "mpisim"))

        # balance: the Eq. 1 LP entry points (one LP per call unless the
        # config partitions the cluster)
        for fn in ("solve_edge_allocation", "solve_core_allocation",
                   "solve_partitioned_allocation"):
            self._patch(global_policy, fn, self._span(f"balance.lp:{fn}",
                                                      "balance"))

        # policies: every public method of every registered strategy
        seen: set[tuple[type, str]] = set()
        for registry in (policies.OFFLOAD_POLICIES, policies.LEND_POLICIES,
                         policies.RECLAIM_POLICIES,
                         policies.REALLOCATION_POLICIES):
            for name in registry.names():
                for cls in registry.get(name).__mro__:
                    if not cls.__module__.startswith("repro.policies"):
                        continue
                    for attr, value in list(vars(cls).items()):
                        if (attr.startswith("_") or not isfunction(value)
                                or (cls, attr) in seen):
                            continue
                        seen.add((cls, attr))
                        self._patch(cls, attr, self._span(
                            f"policies:{cls.__name__}.{attr}", "policies"))

        # jobs: profiling and cross-job arbitration
        self._patch(jobs_engine, "profile_job",
                    self._span("jobs.profile_job", "jobs"))
        decide_nid = log.intern("JobsArbiter.decide", "jobs")

        def decide(original):
            def traced(arbiter, demand, busy, caps, curves=None):
                i = log.open(decide_nid)
                try:
                    alloc = original(arbiter, demand, busy, caps, curves)
                finally:
                    log.close(i)
                # the engine applies an allocation that changes any live
                # job's cores as one reallocation
                if any(alloc.get(j, 0) != busy.get(j, 0) for j in caps):
                    inst.reallocations += 1
                return alloc
            return traced

        self._patch(JobsArbiter, "decide", decide)


def self_times(arrays: dict[str, np.ndarray]) -> np.ndarray:
    """Per-span self time: duration minus the durations of its children."""
    duration = arrays["end"] - arrays["start"]
    parent = arrays["parent"]
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent],
                          minlength=len(duration))
    return duration - covered

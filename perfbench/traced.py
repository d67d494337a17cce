"""One traced repeat: run under the instrumentation, then turn its spans
into the per-layer metrics and check them against the program's own
counters."""

from __future__ import annotations

import numpy as np

from tracer import CALLBACK, LAYERS, ROOT, Instrumentation, SpanLog, self_times


class FidelityError(Exception):
    """The traced counts disagree with the program's own counters."""


def _require(ok: bool, what: str, traced, program) -> None:
    if not ok:
        raise FidelityError(f"{what}: traced {traced} != program {program}")


class TracedRepeat:
    """Runs repeats under :class:`tracer.Instrumentation`; one span log for
    all of them (the root span of each repeat is its first span)."""

    def __init__(self) -> None:
        self.log = SpanLog()
        self.instr = Instrumentation(self.log)
        self.root = self.log.intern("bench.repeat", "unattributed", ROOT)
        self.arrays: dict[str, np.ndarray] = {}
        #: why a metric reads 0 on this workload, by metric name
        self.notes: dict[str, str] = {}

    def run(self, fn, inputs):
        """``fn(inputs)`` inside the root span; returns (seconds, result)."""
        log = self.log
        self.instr.reset_counters()
        self.instr.install()
        try:
            i = log.open(self.root)
            try:
                result = fn(inputs)
            finally:
                log.close(i)
        finally:
            self.instr.uninstall()
            self.arrays = log.finish_repeat()
        return float(self.arrays["end"][0] - self.arrays["start"][0]), result

    def metrics(self, result) -> dict:
        """Per-layer metrics of the last repeat, after the fidelity checks."""
        a, log, instr = self.arrays, self.log, self.instr
        scheduled, cancelled = instr.scheduled, instr.cancelled
        hits, reallocations = instr.acquire_hits, instr.reallocations
        names = log.names
        span_self = self_times(a)
        nid = a["name_id"]
        self_by = np.bincount(nid, weights=span_self, minlength=len(names))
        count_by = np.bincount(nid, minlength=len(names))

        def count(prefix: str) -> int:
            return int(sum(count_by[i] for i, n in enumerate(names)
                           if n.startswith(prefix)))

        def self_s(prefix: str) -> float:
            return float(sum(self_by[i] for i, n in enumerate(names)
                             if n.startswith(prefix)))

        layer_s = {layer: 0.0 for layer in LAYERS + ("other", "unattributed")}
        for i, layer in enumerate(log.layers):
            layer_s[layer] += float(self_by[i])
        run_s = float(a["end"][0] - a["start"][0])
        if abs(sum(layer_s.values()) - run_s) > 1e-6 * run_s:
            raise FidelityError("span self times do not add up to the "
                                "traced run: spans are not nested")

        # fidelity: traced counts == the program's own counters
        stats = [rt.stats() for rt in instr.runtimes]
        submits = count("AppRankRuntime.submit")
        _require(submits == sum(s["tasks"] for s in stats),
                 "AppRankRuntime.submit calls vs stats tasks", submits,
                 sum(s["tasks"] for s in stats))
        fired = int(sum(count_by[i] for i, kind in enumerate(log.kinds)
                        if kind == CALLBACK))
        events = sum(sim.events_fired for sim in instr.simulators)
        _require(fired == events, "fired callbacks vs Simulator.events_fired",
                 fired, events)
        messages = count("MpiWorld.post_send")
        _require(messages == sum(s["mpi_messages"] for s in stats),
                 "posted messages vs stats mpi_messages", messages,
                 sum(s["mpi_messages"] for s in stats))
        drom = count("NodeArbiter.set_ownership")
        _require(drom == sum(s["drom_changes"] for s in stats),
                 "set_ownership calls vs stats drom_changes", drom,
                 sum(s["drom_changes"] for s in stats))
        if hasattr(result, "reallocations"):
            _require(reallocations == result.reallocations,
                     "jobs reallocations vs JobsResult.reallocations",
                     reallocations, result.reallocations)
        offloaded = sum(rt.total_offloaded() for rt in instr.runtimes)

        # jobs: a profile ran when profile_job built a runtime
        ids = {n: i for i, n in enumerate(names)}
        built = a["parent"][nid == ids["ClusterRuntime.__init__"]]
        built = built[built >= 0]
        profiles_run = int(np.sum(nid[built] == ids["jobs.profile_job"]))
        profile_calls = count("jobs.profile_job")

        acquires = count("NodeArbiter.acquire_core")
        lp_solves = count("balance.lp:")
        lp_s = self_s("balance.lp:")
        unattributed = layer_s["unattributed"] + layer_s["other"]
        self.notes = {}
        if not profile_calls:
            self.notes["jobs.*"] = "no profile_job calls on this workload"
        if not lp_solves:
            self.notes["balance.lp_ms_per_solve"] = "no LP solves"
        if not count("policies:"):
            self.notes["policies.*"] = ("no strategy calls: the default "
                                        "policies run as inlined twins")
        if unattributed >= 0.25 * run_s:
            self.notes["trace.unattributed_share"] = (
                "above 25%: a layer's entry points are missing from tracer.py")
        instr.reset_counters()          # drop the runtimes and simulators
        return {
            "runtime.build_s": layer_s["runtime"],
            "apps.generate_calls": count("apps.generate:"),
            "apps.generate_s": self_s("apps.generate:"),
            "apps.self_s": layer_s["apps"],
            "sim.events": fired,
            "sim.cancelled": cancelled,
            "sim.cancel_ratio": cancelled / scheduled if scheduled else 0.0,
            "sim.self_s": layer_s["sim"],
            "nanos.tasks": submits,
            "nanos.offloaded": offloaded,
            "nanos.offload_ratio": offloaded / submits if submits else 0.0,
            "nanos.us_per_task": (layer_s["nanos"] / submits * 1e6
                                  if submits else 0.0),
            "nanos.self_s": layer_s["nanos"],
            "dlb.acquire_calls": acquires,
            "dlb.acquire_hit_ratio": hits / acquires if acquires else 0.0,
            "dlb.lend_calls": count("NodeArbiter.lend_idle_cores"),
            "dlb.release_calls": count("NodeArbiter.release_core"),
            "dlb.drom_changes": drom,
            "dlb.self_s": layer_s["dlb"],
            "mpisim.messages": messages,
            "mpisim.self_s": layer_s["mpisim"],
            "balance.lp_solves": lp_solves,
            "balance.lp_s": lp_s,
            "balance.lp_ms_per_solve": (lp_s / lp_solves * 1e3
                                        if lp_solves else 0.0),
            "balance.self_s": layer_s["balance"],
            "policies.calls": count("policies:"),
            "policies.self_s": layer_s["policies"],
            "jobs.profiles_run": profiles_run,
            "jobs.profile_hit_ratio": (1.0 - profiles_run / profile_calls
                                       if profile_calls else 0.0),
            "jobs.profile_s": self_s("jobs.profile_job"),
            "jobs.arbitrations": count("JobsArbiter.decide"),
            "jobs.arbitrate_s": self_s("JobsArbiter.decide"),
            "jobs.reallocations": reallocations,
            "jobs.self_s": layer_s["jobs"],
            "trace.unattributed_share": unattributed / run_s,
        }

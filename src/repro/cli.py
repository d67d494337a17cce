"""Command-line entry point: regenerate the paper's tables and figures.

Usage::

    repro-experiments <target> [--scale small|medium|paper] [--csv DIR]

where *target* is one of ``fig05``, ``fig06``, ``fig07``, ``fig08``,
``fig09``, ``fig10``, ``fig11``, ``headline``, ``resilience`` or ``all``.
Every run prints the paper-style series; ``--csv`` additionally writes one
CSV per table. The ``resilience`` target accepts ``--faults`` (the
:meth:`repro.faults.FaultPlan.parse` syntax) and ``--seed`` to replace the
built-in fault sweep with a custom plan::

    python -m repro resilience --faults "crash:apprank=0,node=1,t=0.5" --seed 7

The ``trace`` target records one fully instrumented run (see
:mod:`repro.obs`) instead of a sweep, prints the critical-path makespan
breakdown, and exports a Chrome trace-event JSON loadable in Perfetto
(https://ui.perfetto.dev) and/or a Paraver triple::

    python -m repro trace headline --out trace.json --paraver trace

``--obs`` turns the same instrumentation on for any ordinary target and
reports how much was recorded — useful for overhead checks and for
driving the obs API from the harness.

``--policy`` / ``--lend-policy`` swap registered policy-kernel strategies
(:mod:`repro.policies`) into any target's runs; ``policies`` lists what
is registered, and ``ablation`` sweeps every offload policy over the
headline MicroPP workload::

    python -m repro policies
    python -m repro fig08 --policy locality
    python -m repro ablation --scale small --policy work-sharing

The ``check`` target runs the invariant sanitizer and differential/
metamorphic oracles (:mod:`repro.validate`) over a conformance workload
(defaults to the fast ``small`` scale), and ``--check`` arms the same
sanitizer on every run of any ordinary target::

    python -m repro check headline
    python -m repro check resilience --faults "crash:apprank=0,node=1,t=0.5"
    python -m repro fig08 --check

The ``campaign`` target shards a sweep grid across a fault-tolerant
master/worker process pool (:mod:`repro.campaign`) with a crash-safe
journal: an interrupted or killed campaign resumes from the same
``--out`` directory, skipping completed cells. ``--chaos`` arms the
built-in self-test (a worker is SIGKILLed, a cell is wedged past its
timeout) to prove the recovery paths::

    python -m repro campaign --grid "app=synthetic;nodes=2,4;seed=0..9" \\
        --out sweep --workers 8
    python -m repro campaign --grid @imbalance-sweep --out sweep8
    python -m repro campaign --grid @smoke --out /tmp/c --chaos --seed 1

On Ctrl-C the campaign terminates its workers, flushes the journal,
prints the exact resume command, and exits 130.

The ``jobs`` target simulates a whole cluster of jobs arriving over
time and sharing nodes under cross-job DROM reallocation
(:mod:`repro.jobs`): ``--trace`` picks a seeded arrival trace
(``poisson:...``, ``bursty:...``, ``diurnal:...``, ``single:...``) and
``--realloc-policy`` the arbitration rule (any registered reallocation
policy — ``local``, ``global``, ``gavel``). ``--check`` arms the
cross-job sanitizer, ``--obs`` the event bus; the ``multijob`` figure
target sweeps offered load against all three policies::

    python -m repro jobs --trace poisson:seed=1,rate=0.5,n=8 \\
        --realloc-policy gavel --check
    python -m repro multijob --scale small
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from contextlib import ExitStack
from pathlib import Path
from typing import Iterable

from .errors import CampaignError, FaultError
from .experiments import (CAMPAIGN_GRIDS, MEDIUM, PAPER, SMALL, TINY,
                          ResultTable, Scale, fig05_policies,
                          fig06_applications, fig07_local, fig08_sweep,
                          fig09_traces, fig10_slownode, fig11_convergence,
                          fig_policies_ablation, force_observability,
                          force_policies, force_validation, headline,
                          resilience, traced)
from .faults import FaultPlan
from .ioutil import atomic_write_text
from .nanos.config import RuntimeConfig
from .policies import LEND_POLICIES, OFFLOAD_POLICIES

__all__ = ["main"]

_SCALES = {"tiny": TINY, "small": SMALL, "medium": MEDIUM, "paper": PAPER}


def _run_target(target: str, scale: Scale, faults: str | None = None,
                fault_seed: int = 0,
                policies: list[str] | None = None) -> list[ResultTable]:
    if target == "fig05":
        return [fig05_policies.run(scale)]
    if target == "fig06":
        micropp, nbody = fig06_applications.run(scale)
        return [micropp, nbody]
    if target == "fig07":
        micropp, nbody = fig07_local.run(scale)
        return [micropp, nbody]
    if target == "fig08":
        return [fig08_sweep.run(scale)]
    if target == "fig09":
        return [fig09_traces.run(scale)]
    if target == "fig10":
        return [fig10_slownode.run(scale)]
    if target == "fig11":
        return [fig11_convergence.run(scale)]
    if target == "headline":
        return [headline.run(scale)]
    if target == "resilience":
        return [resilience.run(scale, faults=faults, fault_seed=fault_seed)]
    if target == "ablation":
        return [fig_policies_ablation.run(scale, policies=policies)]
    if target == "multijob":
        from .experiments import fig_multijob
        return [fig_multijob.run(scale)]
    raise ValueError(f"unknown target {target!r}")


TARGETS = ("fig05", "fig06", "fig07", "fig08", "fig09", "fig10", "fig11",
           "headline", "resilience", "ablation", "multijob")

#: flags that only make sense for the ``campaign`` target
_CAMPAIGN_FLAGS = ("--grid", "--workers", "--chaos", "--cell-timeout",
                   "--max-failures", "--max-requeues")


def _fail(message: str) -> int:
    """One-line CLI error (no usage dump, no traceback); exits 2."""
    print(f"repro-experiments: error: {message}", file=sys.stderr)
    return 2


def _campaign_progress(event: dict) -> None:
    """Render orchestration events as compact stderr progress lines."""
    kind = event.get("event")
    if kind == "resume":
        print(f"# campaign: resuming — {event['resumed']}/{event['total']} "
              "cells already journalled", file=sys.stderr)
    elif kind == "done":
        pace = ""
        if event.get("cells_per_sec"):
            pace = f", {event['cells_per_sec']:.2f} cells/s"
            if event.get("eta") is not None:
                pace += f", ETA {event['eta']:.0f}s"
        print(f"# [{event['completed']}/{event['total']}] {event['cell']} "
              f"done (attempt {event['attempt']}, {event['wall']:.2f}s"
              f"{pace})", file=sys.stderr)
    elif kind == "failed":
        print(f"# cell {event['cell']} failed (attempt {event['attempt']}): "
              f"{event['error']}", file=sys.stderr)
    elif kind == "requeued":
        print(f"# cell {event['cell']} requeued ({event['reason']})",
              file=sys.stderr)
    elif kind == "quarantined":
        print(f"# cell {event['cell']} QUARANTINED", file=sys.stderr)
    elif kind in ("chaos-kill", "chaos-hang", "kill", "crash"):
        detail = event.get("cell") or f"worker {event.get('worker')}"
        print(f"# {kind}: {detail}", file=sys.stderr)


def _resume_command(args) -> str:
    """The exact invocation that resumes an interrupted campaign."""
    parts = ["python -m repro campaign", f"--grid '{args.grid}'",
             f"--out {args.out}"]
    if args.workers is not None:
        parts.append(f"--workers {args.workers}")
    if args.chaos:
        parts.append("--chaos")
    if args.check:
        parts.append("--check")
    return " ".join(parts)


def _run_campaign(args) -> int:
    """The ``campaign`` target: shard a grid across a worker pool."""
    from .campaign import CampaignGrid, run_campaign
    if args.grid is None:
        return _fail("campaign needs --grid (a sweep spec or @preset; "
                     f"presets: {', '.join(sorted(CAMPAIGN_GRIDS))})")
    spec = args.grid
    if spec.startswith("@"):
        preset = spec[1:]
        if preset not in CAMPAIGN_GRIDS:
            return _fail(f"unknown campaign preset {preset!r} "
                         f"(known: {', '.join(sorted(CAMPAIGN_GRIDS))})")
        spec = CAMPAIGN_GRIDS[preset]
        args.grid = spec        # resume command must name the real grid
    try:
        grid = CampaignGrid.parse(spec)
    except CampaignError as exc:
        return _fail(str(exc))
    workers = args.workers or max(1, (os.cpu_count() or 2) - 1)
    started = time.perf_counter()
    try:
        report = run_campaign(
            grid, args.out, workers=workers,
            cell_timeout=args.cell_timeout,
            max_failures=args.max_failures,
            max_requeues=args.max_requeues,
            check=args.check, chaos=bool(args.chaos),
            chaos_seed=args.seed, progress=_campaign_progress)
    except CampaignError as exc:
        return _fail(str(exc))
    if report.interrupted:
        print("# campaign interrupted — journal flushed; resume with:",
              file=sys.stderr)
        print(f"#   {_resume_command(args)}", file=sys.stderr)
        return 130
    print(report.format())
    print(f"# wall time: {time.perf_counter() - started:.1f} s")
    print(f"# journal: {report.out_dir / 'journal.jsonl'}")
    print(f"# results: {report.csv_path}")
    if args.csv is not None:
        args.csv.mkdir(parents=True, exist_ok=True)
        path = args.csv / "campaign.csv"
        atomic_write_text(path, report.table.to_csv() + "\n")
        print(f"# wrote {path}")
    return report.exit_code


def _print_policies() -> None:
    """The ``policies`` target: registered strategies and the defaults."""
    defaults = RuntimeConfig()
    default_by_kind = {
        "offload": defaults.offload_policy,
        "lend": defaults.lend_policy,
        "reclaim": defaults.reclaim_policy,
        "reallocation": defaults.policy,
    }
    from .policies import _REGISTRIES
    print("Registered policy-kernel strategies (repro.policies):")
    for kind, registry in _REGISTRIES.items():
        names = ", ".join(
            f"{name}*" if name == default_by_kind[kind] else name
            for name in registry.names())
        print(f"  {kind:<12} {names}")
    print("(* = RuntimeConfig default; select with --policy/--lend-policy,"
          " or register more via the repro.<kind>_policies entry points)")


def main(argv: Iterable[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the tables/figures of 'Transparent load "
                    "balancing of MPI programs using OmpSs-2@Cluster and "
                    "DLB' (ICPP 2022) on the simulator.")
    parser.add_argument("target", choices=TARGETS + ("all", "trace",
                                                     "policies", "check",
                                                     "campaign", "jobs"),
                        help="which figure/table to regenerate, 'trace' "
                             "to record one instrumented run, 'policies' "
                             "to list the registered policy-kernel "
                             "strategies, 'check' to run the invariant "
                             "sanitizer over a conformance workload, "
                             "'campaign' to shard a sweep grid across a "
                             "fault-tolerant worker pool, or 'jobs' to run "
                             "a multi-job arrival trace under cross-job "
                             "DROM reallocation")
    parser.add_argument("experiment", nargs="?", default=None,
                        help="trace/check only: which workload to run "
                             f"(trace: {', '.join(traced.TRACE_TARGETS)}; "
                             "check: headline, synthetic, nbody, "
                             "resilience)")
    parser.add_argument("--scale", choices=sorted(_SCALES), default=None,
                        help="experiment sizing; 'paper' uses the published "
                             "parameters (48-core nodes, 100 tasks/core) "
                             "and is slow (default: medium; check: small)")
    parser.add_argument("--csv", type=Path, default=None, metavar="DIR",
                        help="also write each table as CSV into DIR")
    parser.add_argument("--faults", default=None, metavar="SPEC",
                        help="resilience/trace/check: custom fault plan in "
                             "the FaultPlan.parse syntax, e.g. "
                             "'crash:apprank=0,node=1,t=0.5;msg:loss=0.01'")
    parser.add_argument("--seed", type=int, default=0,
                        help="resilience/trace/check: seed for the fault "
                             "plan's stochastic draws")
    parser.add_argument("--out", type=Path, default=None, metavar="PATH",
                        help="trace: write the Chrome trace-event JSON here "
                             "(load it at https://ui.perfetto.dev); "
                             "campaign: the output directory holding the "
                             "journal, results.csv and report.json "
                             "(default: campaign-out)")
    parser.add_argument("--paraver", type=Path, default=None, metavar="BASE",
                        help="trace only: also write BASE.prv/.pcf/.row "
                             "Paraver files")
    parser.add_argument("--obs", action="store_true",
                        help="instrument every run of an ordinary target "
                             "with the repro.obs event bus and report what "
                             "was recorded")
    parser.add_argument("--check", action="store_true",
                        help="arm the repro.validate invariant sanitizer on "
                             "every run of an ordinary target and report "
                             "what was checked")
    parser.add_argument("--policy", default=None, metavar="NAME",
                        help="offload placement policy for every run "
                             "(ablation: restrict the sweep to NAME plus "
                             "the tentative reference); see 'policies'")
    parser.add_argument("--lend-policy", default=None, metavar="NAME",
                        help="LeWI lending policy for every run; see "
                             "'policies'")
    parser.add_argument("--grid", default=None, metavar="SPEC",
                        help="campaign only: the sweep grid, e.g. "
                             "'app=synthetic;nodes=2,4;seed=0..9', or a "
                             "preset via @name "
                             f"({', '.join(sorted(CAMPAIGN_GRIDS))})")
    parser.add_argument("--workers", type=int, default=None, metavar="N",
                        help="campaign only: worker processes "
                             "(default: cores - 1)")
    parser.add_argument("--chaos", action="store_true",
                        help="campaign only: arm the chaos self-test "
                             "(SIGKILL a worker and wedge a cell mid-run "
                             "to prove the recovery paths; seeded by "
                             "--seed)")
    parser.add_argument("--cell-timeout", type=float, default=300.0,
                        metavar="SEC",
                        help="campaign only: per-cell wall-clock budget "
                             "before the worker is killed and the cell "
                             "requeued (default: 300)")
    parser.add_argument("--max-failures", type=int, default=3, metavar="N",
                        help="campaign only: cell errors before quarantine "
                             "(default: 3)")
    parser.add_argument("--max-requeues", type=int, default=10, metavar="N",
                        help="campaign only: crash/hang interruptions of "
                             "one cell before quarantine (default: 10)")
    parser.add_argument("--trace", default=None, metavar="SPEC",
                        help="jobs only: the arrival trace, e.g. "
                             "'poisson:seed=1,rate=0.5,n=8', "
                             "'bursty:seed=2,n=6,burst=3,gap=2.0', "
                             "'diurnal:seed=3,n=8,period=20', or "
                             "'single:app=synthetic,nodes=2'")
    parser.add_argument("--realloc-policy", default=None, metavar="NAME",
                        help="jobs only: the cross-job reallocation policy "
                             "(default: gavel); see 'policies'")
    parser.add_argument("--cluster-nodes", type=int, default=None,
                        metavar="N",
                        help="jobs only: nodes in the shared cluster "
                             "(default: the trace's largest job, min 2)")
    args = parser.parse_args(list(argv) if argv is not None else None)
    try:
        return _dispatch(parser, args)
    except KeyboardInterrupt:
        # campaign handles its own interrupt (workers reaped, journal
        # flushed, resume command printed); everything else just exits
        # with the conventional SIGINT status.
        print("# interrupted", file=sys.stderr)
        return 130


def _dispatch(parser: argparse.ArgumentParser, args) -> int:
    """Validate cross-flag constraints and run the selected target."""

    if args.policy is not None and args.policy not in OFFLOAD_POLICIES:
        parser.error(f"unknown offload policy {args.policy!r}; registered: "
                     f"{', '.join(OFFLOAD_POLICIES.names())}")
    if args.lend_policy is not None and args.lend_policy not in LEND_POLICIES:
        parser.error(f"unknown lend policy {args.lend_policy!r}; registered: "
                     f"{', '.join(LEND_POLICIES.names())}")
    if args.target == "policies":
        _print_policies()
        return 0

    if args.target != "jobs":
        if args.trace is not None:
            parser.error("--trace only applies to the 'jobs' target")
        if args.realloc_policy is not None:
            parser.error("--realloc-policy only applies to the 'jobs' "
                         "target")
        if args.cluster_nodes is not None:
            parser.error("--cluster-nodes only applies to the 'jobs' "
                         "target")
    if args.target != "campaign":
        for flag in _CAMPAIGN_FLAGS:
            name = flag.lstrip("-").replace("-", "_")
            default = {"cell_timeout": 300.0, "max_failures": 3,
                       "max_requeues": 10}.get(name)
            if getattr(args, name) not in (None, False, default):
                parser.error(f"{flag} only applies to the 'campaign' target")
    if args.target == "campaign":
        if args.experiment is not None:
            parser.error("campaign does not take an experiment name")
        if args.out is None:
            args.out = Path("campaign-out")
        return _run_campaign(args)

    if args.faults is not None and args.target not in ("resilience", "trace",
                                                       "check"):
        parser.error("--faults only applies to 'resilience', 'trace' and "
                     "'check'")
    plan = None
    if args.faults:
        try:    # reject a malformed spec before any experiment runs
            plan = FaultPlan.parse(args.faults, seed=args.seed)
        except FaultError as exc:
            return _fail(f"bad --faults spec: {exc}")
    if args.scale is not None:
        scale = _SCALES[args.scale]
    else:   # checks and jobs favour quick feedback; the rest paper sizing
        scale = SMALL if args.target in ("check", "jobs") else MEDIUM

    if args.target == "jobs":
        from .errors import AllocationError, JobsError, ValidationError
        from .jobs import JobTrace, run_trace
        if args.experiment is not None:
            parser.error("jobs does not take an experiment name")
        if args.trace is None:
            parser.error("jobs needs --trace (e.g. "
                         "'poisson:seed=1,rate=0.5,n=8')")
        started = time.perf_counter()
        try:
            result = run_trace(JobTrace.parse(args.trace),
                               policy=args.realloc_policy or "gavel",
                               scale=scale,
                               cluster_nodes=args.cluster_nodes,
                               check=args.check, obs=args.obs)
        except (JobsError, AllocationError, ValidationError) as exc:
            return _fail(str(exc))
        print(result.table().format())
        if result.sanitizer is not None:
            checked = result.sanitizer.summary()
            print(f"# check: {checked['allocations']} allocations, "
                  f"{checked['grants']} grants, "
                  f"{checked['progress']} progress updates, "
                  f"{checked['finishes']} finishes — all cross-job "
                  "invariants held")
        if result.obs is not None:
            summary = result.obs.bus.summary()
            print(f"# obs: {summary['spans']} spans, "
                  f"{summary['instants']} instants, "
                  f"{summary['counter_samples']} counter samples")
        if args.csv is not None:
            args.csv.mkdir(parents=True, exist_ok=True)
            path = args.csv / f"jobs_{scale.name}.csv"
            atomic_write_text(path, result.table().to_csv() + "\n")
            print(f"# wrote {path}")
        print(f"# wall time: {time.perf_counter() - started:.1f} s")
        return 0

    if args.target == "check":
        from .validate import CHECK_TARGETS, run_check
        if args.check:
            parser.error("--check is implied by the 'check' target")
        if args.experiment not in CHECK_TARGETS:
            parser.error("check needs an experiment to validate: "
                         f"one of {', '.join(CHECK_TARGETS)}")
        started = time.perf_counter()
        with ExitStack() as stack:
            if args.policy is not None or args.lend_policy is not None:
                stack.enter_context(force_policies(offload=args.policy,
                                                   lend=args.lend_policy))
            report = run_check(args.experiment, scale, faults=args.faults,
                               fault_seed=args.seed)
        print(report.format())
        print(f"# wall time: {time.perf_counter() - started:.1f} s")
        return 0

    if args.target == "trace":
        if args.obs:
            parser.error("--obs is implied by the 'trace' target")
        if args.experiment not in traced.TRACE_TARGETS:
            parser.error("trace needs an experiment to record: "
                         f"one of {', '.join(traced.TRACE_TARGETS)}")
        started = time.perf_counter()
        trace_run = traced.run(args.experiment, scale, out=args.out,
                               paraver=args.paraver, faults=plan)
        print(trace_run.format())
        print(f"# wall time: {time.perf_counter() - started:.1f} s")
        return 0
    if args.experiment is not None:
        parser.error("an experiment name only applies to the 'trace' and "
                     "'check' targets")
    if args.out is not None or args.paraver is not None:
        parser.error("--out/--paraver only apply to the 'trace' target")

    targets = TARGETS if args.target == "all" else (args.target,)
    for target in targets:
        started = time.perf_counter()
        # The ablation sweeps the offload policy itself: --policy narrows
        # its sweep instead of forcing one name over every run.
        restrict = ([args.policy] if target == "ablation" and args.policy
                    else None)
        offload_override = None if target == "ablation" else args.policy
        with ExitStack() as stack:
            observed = (stack.enter_context(force_observability())
                        if args.obs else [])
            validated = (stack.enter_context(force_validation())
                         if args.check else [])
            if offload_override is not None or args.lend_policy is not None:
                stack.enter_context(force_policies(offload=offload_override,
                                                   lend=args.lend_policy))
            tables = _run_target(target, scale, faults=args.faults,
                                 fault_seed=args.seed, policies=restrict)
        elapsed = time.perf_counter() - started
        for i, table in enumerate(tables):
            print(table.format())
            print(f"# wall time: {elapsed:.1f} s")
            print()
            if args.csv is not None:
                suffix = f"_{i}" if len(tables) > 1 else ""
                path = args.csv / f"{target}{suffix}_{scale.name}.csv"
                # temp-file + rename: an interrupted run never leaves a
                # truncated CSV (same discipline as the campaign journal)
                atomic_write_text(path, table.to_csv() + "\n")
                print(f"# wrote {path}")
        if observed:
            totals = {"spans": 0, "instants": 0, "counter_samples": 0}
            for obs in observed:
                summary = obs.bus.summary()
                for key in totals:
                    totals[key] += summary[key]
            print(f"# obs: {len(observed)} runs instrumented, "
                  f"{totals['spans']} spans, {totals['instants']} instants, "
                  f"{totals['counter_samples']} counter samples")
            print()
        if validated:
            checked = {"events": 0, "messages": 0, "tasks": 0,
                       "dlb_checks": 0}
            for sanitizer in validated:
                summary = sanitizer.summary()
                for key in checked:
                    checked[key] += summary[key]
            print(f"# check: {len(validated)} runs validated, "
                  f"{checked['events']} events, "
                  f"{checked['messages']} messages, "
                  f"{checked['tasks']} tasks, "
                  f"{checked['dlb_checks']} DLB snapshots — all invariants "
                  "held")
            print()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

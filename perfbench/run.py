"""The repository benchmark: one command, three workloads, host timings.

Usage (from the repository root)::

    python3 perfbench/run.py --workload micropp-16n --seed 0 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --trace 0      # every workload
    python3 perfbench/run.py --workload jobs-800 --trace 1 # per-layer run

``--trace 0`` prints the end-to-end metrics: ``run_s`` (median timed
repeat after a warm-up, see ``measure.py``), ``setup_s`` (cold start:
``import repro`` plus building the inputs, the median of several fresh
interpreters) and ``peak_rss_mb`` (peak resident memory of the timed
process). Both times are host seconds rescaled to a reference host speed
(``gauge.py``); the host seconds are printed beside them. ``--trace 1``
prints the per-layer metrics of the traced run (see ``tracer.py``), each
with what it should move (``metrics.py``).
Metric names and units come from ``BENCHMARK.json``. Every tap of the
program (``perf``, ``obs``, ``validate``, ``trace``) stays off.

The program is imported from ``src/`` of the checkout this file sits in;
the benchmark reads and writes nothing outside that checkout. Its own
files (expander-graph cache, fingerprints of earlier runs, span dumps) go
to ``.bench_build/perfbench/``. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``. The
exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build" / "perfbench"
sys.path.insert(0, str(HERE))

from metrics import MOVES  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def _declared_metrics() -> tuple[list[str], list[str], dict[str, str]]:
    """End-to-end and per-layer metric names, and every unit, as declared
    in ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    return end_to_end, per_layer, units


END_TO_END, PER_LAYER, UNITS = _declared_metrics()

#: fresh interpreters spawned per run to time the cold start
SETUP_SPAWNS = 7
#: every process this run starts must end within this many seconds
RUN_BUDGET_S = 170.0
#: packages whose import cost the traced run reports
IMPORT_PACKAGES = ("scipy", "networkx", "repro")


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["OPENBLAS_NUM_THREADS"] = "1"       # one thread per process
    env["REPRO_GRAPH_CACHE"] = str(OUT / "graph-cache")
    return env


def _run_child(argv: list[str], deadline: float) -> subprocess.CompletedProcess:
    """Run a child to completion (killed and reaped at the deadline)."""
    timeout = max(1.0, deadline - perf_counter())
    return subprocess.run([sys.executable, *argv], cwd=HERE, env=_child_env(),
                          capture_output=True, text=True, timeout=timeout,
                          check=False)


def _import_seconds(stderr: str) -> dict[str, float]:
    """Self import time per top-level package from ``-X importtime``."""
    totals = dict.fromkeys(IMPORT_PACKAGES, 0.0)
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        try:
            self_us = int(fields[0])
        except ValueError:          # the header line
            continue
        package = fields[2].strip().split(".")[0]
        if package in totals:
            totals[package] += self_us / 1e6
    return totals


def measure_setup(name: str, seed: int, trace: bool, deadline: float):
    """Cold start in fresh interpreters: (rescaled setup seconds, host
    setup seconds, import seconds)."""
    setups, hosts, imports = [], [], []
    for _ in range(SETUP_SPAWNS):
        argv = (["-X", "importtime"] if trace else []) + [
            "cold.py", name, str(seed)]
        child = _run_child(argv, deadline)
        if child.returncode != 0:
            raise RuntimeError(f"cold start failed:\n{child.stderr[-2000:]}")
        probe = json.loads(child.stdout.splitlines()[-1])
        setups.append(probe["setup_s"])
        hosts.append(probe["host_s"])
        if trace:
            imports.append(_import_seconds(child.stderr))
    import_medians = {f"import.{p}_s": statistics.median(i[p] for i in imports)
                      for p in IMPORT_PACKAGES} if trace else {}
    return (statistics.median(setups), statistics.median(hosts),
            import_medians)


def _source_digest() -> str:
    """Content hash of the program's sources (keys the fingerprint store)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_against_earlier_runs(name: str, seed: int, fingerprint) -> list[str]:
    """Same sources and seed must give the same fingerprint in every run.

    Fingerprints are stored per checkout, never committed: a change to the
    program that legitimately moves a simulated outcome gets a fresh key.
    """
    store = OUT / "fingerprints.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    key = f"{name}:{seed}:{_source_digest()}"
    if key in known and known[key] != fingerprint:
        return [f"fingerprint {fingerprint} differs from an earlier run's "
                f"{known[key]} with the same sources and seed"]
    known[key] = fingerprint
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    tmp.replace(store)
    return []


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 deadline: float) -> dict:
    """Set-up probe plus the timed process for one workload."""
    setup_s, setup_host_s, import_s = measure_setup(name, seed, trace,
                                                    deadline)
    argv = ["measure.py", "--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace))]
    if trace:
        argv += ["--spans", str(OUT / f"spans-{name}-seed{seed}.npz")]
    child = _run_child(argv, deadline)
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        raise RuntimeError(f"workload process failed:\n{child.stderr[-3000:]}")
    result = json.loads(lines[-1])
    errors = list(result["errors"])
    if result["fingerprint"] is not None:
        errors += check_against_earlier_runs(name, seed,
                                             result["fingerprint"])
    failed = result["failed"] + (len(errors) - len(result["errors"]))
    if trace:
        values = dict(result.get("layers", {}), **import_s)
    else:
        values = {"run_s": result["run_s"], "setup_s": setup_s,
                  "peak_rss_mb": result["peak_rss_mb"]}
    wanted = PER_LAYER if trace else END_TO_END
    missing = [m for m in wanted if values.get(m) is None]
    if missing:
        errors.append(f"no value for {', '.join(missing)}")
    return {"workload": name, "seed": seed, "attempted": result["attempted"],
            "failed": failed, "errors": errors,
            "correct": not errors and failed == 0,
            "fingerprint": result["fingerprint"],
            "setup_host_s": setup_host_s,
            "repeats_s": result.get("repeats_s", []),
            "host_repeats_s": result.get("host_repeats_s", []),
            "traced_repeats_s": result.get("traced_repeats_s", []),
            "notes": result.get("notes", {}),
            "metrics": {m: values[m] for m in wanted
                        if values.get(m) is not None}}


def report(outcome: dict, trace: bool) -> None:
    """Human-readable lines (everything but the final JSON line)."""
    print(f"== {outcome['workload']} (seed {outcome['seed']}): "
          f"{outcome['attempted']} repeats attempted, "
          f"{outcome['failed']} failed")
    print(f"   fingerprint {json.dumps(outcome['fingerprint'])}")
    for label, key in (("rescaled", "repeats_s"),
                       ("host", "host_repeats_s")):
        if outcome[key]:
            times = ", ".join(f"{t:.4f}" for t in outcome[key])
            print(f"   untraced repeats [s, {label}]: {times}")
    print(f"   setup median [s, host]: {outcome['setup_host_s']:.4f}")
    if trace:
        traced = ", ".join(f"{t:.4f}" for t in outcome["traced_repeats_s"])
        print(f"   traced repeats [s]: {traced}")
    for name, value in outcome["metrics"].items():
        moves = f"  -> {MOVES[name]}" if name in MOVES else ""
        print(f"   {name:<26} {value:>14.6g} {UNITS[name]:<8}{moves}")
    for topic, note in outcome["notes"].items():
        print(f"   note ({topic}): {note}")
    for error in outcome["errors"]:
        print(f"   FAILED CHECK: {error}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the repository benchmark (see module docstring).")
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=24.0,
                        help="length of the timed window per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    trace = bool(args.trace)
    start = perf_counter()
    outcomes = []
    for name in names:
        deadline = perf_counter() + RUN_BUDGET_S
        outcome = run_workload(name, args.seed, args.seconds, trace, deadline)
        report(outcome, trace)
        outcomes.append(outcome)
    prefix = len(outcomes) > 1
    metrics = {(f"{o['workload']}/{m}" if prefix else m):
               {"value": v, "unit": UNITS[m]}
               for o in outcomes for m, v in o["metrics"].items()}
    correct = all(o["correct"] for o in outcomes)
    print(f"   total wall {perf_counter() - start:.1f} s")
    print(json.dumps({"correct": correct,
                      "attempted": sum(o["attempted"] for o in outcomes),
                      "failed": sum(o["failed"] for o in outcomes),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

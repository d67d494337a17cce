"""The timed workload process: a closed loop of in-process repeats.

Usage::

    python measure.py --workload W --seed N --seconds S --trace 0|1 \\
        [--spans PATH]

Each repeat starts when the previous one has finished, in this one
process (one thread of Python). The first repeat is a warm-up: it fills
the expander-graph cache and the interpreter's lazy state, and its time
is discarded. Then repeats run until starting another would overrun
``--seconds``, with at least two timed. Between repeats the garbage
collector runs a full collection; during them it stays enabled, as it
does in a user's run.

``--trace 0`` reports the median of the timed repeats (``run_s``) and
the process's peak resident memory. Each untraced repeat is timed by
``gauge.HostClock``, which rescales its host time to a reference host
speed: on a shared 2-vCPU host one core's speed moves by up to 2x in
steps of seconds to minutes, and in ten-run sets the spread of the raw
median was 0.17-0.42 (IQR/median) against 0.03-0.06 rescaled. The
median, not the fastest repeat, because the fastest repeat spread more
in the same sets. ``--trace 1`` alternates traced and untraced repeats
and reports the per-layer metrics, in host seconds, of the fastest
traced repeat, after asserting that the traced counts equal the
program's own counters and that tracing left the simulated outcome
unchanged; the overhead ratio compares the host-time medians.

Every repeat's simulated fingerprint must equal the warm-up's; a repeat
that raises or fails a check counts as failed. The result is one JSON
object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import traceback
from time import perf_counter

from gauge import HostClock
from workloads import WORKLOADS

#: timed repeats a run makes at least, whatever ``--seconds`` says
MIN_TIMED = 2


class Loop:
    """Runs repeats of one workload and keeps the outcome ledger."""

    def __init__(self, name: str, seed: int) -> None:
        self.workload = WORKLOADS[name]
        self.inputs = self.workload.build(seed)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.fingerprint = None

    def repeat(self, traced=None):
        """One repeat; returns (host seconds, rescaled seconds, result), or
        None if it failed.

        *traced* is a :class:`traced.TracedRepeat` that wraps the run in
        the instrumentation; a traced repeat has no rescaled time, since
        the gauge's sampling would run inside the layers' spans.
        """
        self.workload.before_repeat()
        gc.collect()
        self.attempted += 1
        try:
            if traced is None:
                with HostClock() as clock:
                    result = self.workload.run(self.inputs)
                host_s, seconds = clock.host_s, clock.seconds
            else:
                host_s, result = traced.run(self.workload.run, self.inputs)
                seconds = None
            fingerprint, errors = self.workload.check(self.inputs, result)
        except Exception:  # a crashed repeat is a failed operation
            self.fail(traceback.format_exc(limit=8))
            return None
        if self.fingerprint is None:
            self.fingerprint = fingerprint
        elif fingerprint != self.fingerprint:
            errors.append(f"fingerprint {fingerprint} differs from "
                          f"the first repeat's {self.fingerprint}")
        if errors:
            self.fail("; ".join(errors))
            return None
        return host_s, seconds, result

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)


def _window_open(t_start: float, times: list[float], seconds: float) -> bool:
    """Whether another timed repeat fits in the measurement window."""
    if len(times) < MIN_TIMED:
        return True
    return perf_counter() - t_start + statistics.median(times) <= seconds


def measure_untraced(loop: Loop, seconds: float) -> dict:
    loop.repeat()                                   # warm-up
    host: list[float] = []
    rescaled: list[float] = []
    t_start = perf_counter()
    while _window_open(t_start, host, seconds):
        outcome = loop.repeat()
        if outcome is None:
            if loop.failed >= 3:
                break
            continue
        host.append(outcome[0])
        rescaled.append(outcome[1])
        del outcome
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"run_s": statistics.median(rescaled) if rescaled else None,
            "repeats_s": rescaled, "host_repeats_s": host,
            "peak_rss_mb": peak_kib / 1024.0}


def measure_traced(loop: Loop, seconds: float, spans_path) -> dict:
    from traced import FidelityError, TracedRepeat
    loop.repeat()                                   # warm-up, untraced
    traced = TracedRepeat()
    plain: list[float] = []
    layered: list[tuple[float, dict]] = []
    t_start = perf_counter()
    while (len(plain) < 1 or len(layered) < 1
           or _window_open(t_start, plain + [t for t, _ in layered],
                           seconds)):
        if len(layered) <= len(plain):
            outcome = loop.repeat(traced)
            if outcome is not None:
                try:
                    layered.append((outcome[0],
                                    traced.metrics(outcome[2])))
                except FidelityError as exc:
                    loop.fail(f"traced-run fidelity: {exc}")
        else:
            outcome = loop.repeat()
            if outcome is not None:
                plain.append(outcome[0])
        del outcome
        if loop.failed >= 3:
            break
    result = {"host_repeats_s": plain,
              "traced_repeats_s": [t for t, _ in layered]}
    if plain and layered:
        _t, best = min(layered, key=lambda pair: pair[0])
        best["trace.overhead_ratio"] = (
            statistics.median(t for t, _ in layered)
            / statistics.median(plain))
        result["layers"] = best
        result["notes"] = traced.notes
        counts = {k: v for k, v in best.items() if isinstance(v, int)}
        for _t, other in layered:
            drift = {k: (v, other[k]) for k, v in counts.items()
                     if other[k] != v}
            if drift:
                loop.fail(f"traced counts differ between repeats: {drift}")
    if spans_path:
        traced.log.save(spans_path)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None,
                        help="where the traced run writes its spans (.npz)")
    args = parser.parse_args(argv)
    loop = Loop(args.workload, args.seed)
    if args.trace:
        result = measure_traced(loop, args.seconds, args.spans)
    else:
        result = measure_untraced(loop, args.seconds)
    result.update(attempted=loop.attempted, failed=loop.failed,
                  errors=loop.errors, fingerprint=loop.fingerprint)
    print(json.dumps(result, default=repr))
    return 0


if __name__ == "__main__":
    sys.exit(main())

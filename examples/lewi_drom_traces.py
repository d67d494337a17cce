#!/usr/bin/env python3
"""Figure 9 in your terminal: LeWI/DROM ablation traces for MicroPP.

Runs MicroPP on four simulated nodes with offloading degree 2 under the
four mechanism combinations of §7.4 and renders the busy-core and
owned-core timelines as ASCII art — the textual version of the paper's
trace figures. Watch LeWI borrow idle cores within the static ownership,
and DROM converge the ownership itself.

Run:  python examples/lewi_drom_traces.py
"""

from repro.experiments import Scale
from repro.experiments.fig09_traces import run
from repro.metrics import render_trace

SCALE = Scale(name="demo", cores_per_node=8, tasks_per_core=8, iterations=4,
              micropp_subdomains_per_core=4, local_period=0.02,
              global_period=0.2)


def main() -> None:
    table = run(SCALE)
    print(table.format())
    print()
    for config in ("baseline", "lewi", "drom", "lewi+drom"):
        runtime = table.runtimes[config]
        print("#" * 72)
        print(f"# {config}: elapsed {runtime.elapsed:.3f} s")
        print("#" * 72)
        print(render_trace(runtime.obs.trace, "busy", 0.0, runtime.elapsed,
                           width=64, peak=SCALE.cores_per_node))
        print()
        if config != "baseline":
            print(render_trace(runtime.obs.trace, "owned", 0.0, runtime.elapsed,
                               width=64, peak=SCALE.cores_per_node))
            print()


if __name__ == "__main__":
    main()

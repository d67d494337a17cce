"""Paraver trace export (.prv / .pcf / .row).

The paper's timelines (Figures 5 and 9) are Paraver views; this module
writes a :class:`~repro.metrics.trace.TraceRecorder` (``runtime.obs.trace``)
as a loadable Paraver trace triple:

* one Paraver *task* per apprank, one *thread* per (apprank, node) worker;
* event type 90000001 carries the worker's busy-core count at each change
  point, 90000002 the DROM-owned core count;
* event type 90000003 carries point events (faults, recoveries, ...):
  the :mod:`repro.obs` bus instants passed as *events* (a run's
  ``obs.bus.instants_of(CAT_FAULT)``), with the event kinds enumerated as
  values in the .pcf so Paraver renders them as named flags;
* state records mark a thread Running (1) while it has any busy core and
  Idle (0) otherwise — giving the familiar coloured timeline.

Times are nanoseconds (Paraver's unit), scaled from simulated seconds.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from ..errors import ReproError
from .trace import TraceRecorder

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.events import Instant

__all__ = ["export_paraver", "BUSY_EVENT_TYPE", "OWNED_EVENT_TYPE",
           "POINT_EVENT_TYPE"]

BUSY_EVENT_TYPE = 90000001
OWNED_EVENT_TYPE = 90000002
POINT_EVENT_TYPE = 90000003

_PCF_TEMPLATE = """DEFAULT_OPTIONS

LEVEL               THREAD
UNITS               NANOSEC
LOOK_BACK           100
SPEED               1
FLAG_ICONS          ENABLED
NUM_OF_STATE_COLORS 1000
YMAX_SCALE          37


DEFAULT_SEMANTIC

THREAD_FUNC          State As Is


STATES
0    Idle
1    Running


EVENT_TYPE
9    {busy}    Busy cores (repro simulator)
9    {owned}    DROM-owned cores (repro simulator)
"""

_PCF_POINT_TEMPLATE = """

EVENT_TYPE
9    {point}    Point events (repro simulator)
VALUES
{values}
"""


def _threads(trace: TraceRecorder) -> list[tuple[int, int]]:
    """(apprank, node) pairs with any busy series, apprank-major order."""
    pairs = sorted(
        {(apprank, node)
         for node in trace.nodes("busy")
         for apprank in trace.appranks_on_node("busy", node)})
    if not pairs:
        raise ReproError("trace holds no busy series to export")
    return pairs


def export_paraver(trace: TraceRecorder, end_time: float, basename: Path,
                   events: Iterable["Instant"] = ()) -> dict[str, Path]:
    """Write ``basename``.prv/.pcf/.row; returns the paths written.

    *end_time* is the simulated duration covered (usually
    ``runtime.elapsed``); *events* are the point events, in emission
    order.
    """
    if end_time <= 0:
        raise ReproError("end_time must be positive")
    basename = Path(basename)
    pairs = _threads(trace)
    appranks = sorted({a for a, _n in pairs})
    nodes = sorted({n for _a, n in pairs})
    threads_of: dict[int, list[int]] = {a: [] for a in appranks}
    for a, n in pairs:
        threads_of[a].append(n)

    def ns(t: float) -> int:
        return int(round(t * 1e9))

    duration = ns(end_time)
    # Header: ftime:nNodes(cpus):nAppl:appl(tasks(threads:node))
    node_cpus = ",".join(["1"] * len(nodes))
    task_list = ",".join(
        f"{len(threads_of[a])}:{nodes.index(threads_of[a][0]) + 1}"
        for a in appranks)
    header = (f"#Paraver (01/01/2022 at 00:00):{duration}_ns:"
              f"{len(nodes)}({node_cpus}):1:{len(appranks)}({task_list})")

    records: list[tuple[int, str]] = []
    for a, n in pairs:
        task_no = appranks.index(a) + 1
        thread_no = threads_of[a].index(n) + 1
        cpu_no = nodes.index(n) + 1
        ident = f"{cpu_no}:1:{task_no}:{thread_no}"
        busy = trace.series("busy", n, a)
        points = busy.change_points()
        # state records: Running while busy > 0
        for i, (t, value) in enumerate(points):
            t_end = points[i + 1][0] if i + 1 < len(points) else end_time
            state = 1 if value > 0 else 0
            if ns(t_end) > ns(t):
                records.append(
                    (ns(t), f"1:{ident}:{ns(t)}:{ns(t_end)}:{state}"))
            records.append(
                (ns(t), f"2:{ident}:{ns(t)}:{BUSY_EVENT_TYPE}:{int(value)}"))
        if trace.has_series("owned", n, a):
            for t, value in trace.series("owned", n, a).change_points():
                records.append(
                    (ns(t),
                     f"2:{ident}:{ns(t)}:{OWNED_EVENT_TYPE}:{int(value)}"))

    def thread_ident(apprank: int, node: int) -> str:
        """Paraver object for a point event (best-effort placement)."""
        if (apprank, node) in pairs:
            task_no = appranks.index(apprank) + 1
            thread_no = threads_of[apprank].index(node) + 1
            return f"{nodes.index(node) + 1}:1:{task_no}:{thread_no}"
        if apprank in threads_of:
            home = threads_of[apprank][0]
            return (f"{nodes.index(home) + 1}:1:"
                    f"{appranks.index(apprank) + 1}:1")
        return "1:1:1:1"

    events = list(events)
    kinds = sorted({i.name for i in events})
    kind_values = {kind: i + 1 for i, kind in enumerate(kinds)}
    for instant in events:
        ident = thread_ident(instant.args.get("apprank", -1),
                             instant.track.node)
        records.append(
            (ns(instant.time),
             f"2:{ident}:{ns(instant.time)}:{POINT_EVENT_TYPE}:"
             f"{kind_values[instant.name]}"))
    records.sort(key=lambda r: r[0])

    prv = basename.with_suffix(".prv")
    prv.write_text(header + "\n" + "\n".join(line for _t, line in records)
                   + "\n")
    pcf = basename.with_suffix(".pcf")
    pcf_text = _PCF_TEMPLATE.format(busy=BUSY_EVENT_TYPE,
                                    owned=OWNED_EVENT_TYPE)
    if kinds:
        value_lines = "\n".join(f"{v}   {kind}"
                                for kind, v in kind_values.items())
        pcf_text += _PCF_POINT_TEMPLATE.format(point=POINT_EVENT_TYPE,
                                               values=value_lines)
    pcf.write_text(pcf_text)
    row = basename.with_suffix(".row")
    row_lines = [f"LEVEL THREAD SIZE {len(pairs)}"]
    row_lines += [f"apprank{a}@node{n}" for a, n in pairs]
    row.write_text("\n".join(row_lines) + "\n")
    return {"prv": prv, "pcf": pcf, "row": row}

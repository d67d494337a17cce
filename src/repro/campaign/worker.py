"""Campaign worker process: run cells, heartbeat, report, repeat.

Each worker is one OS process (spawned, so it holds no master state).
It consumes task messages from its private queue, runs each cell with
:func:`repro.campaign.cells.run_cell`, and reports on its private result
pipe. A daemon heartbeat thread beats every ``heartbeat_interval``
seconds even while a cell is running, so the master can tell a *slow*
worker (beating, within its cell deadline) from a *wedged* one (no
beats: swapped out, deadlocked, or SIGSTOPped) — the latter is killed
and its cell requeued.

Workers ignore SIGINT: on Ctrl-C the whole foreground process group
gets the signal, and shutdown must stay the master's decision so the
journal is flushed and the resume command printed exactly once.

Both threads send through one in-process lock. Nothing is shared with
other processes, so a SIGKILL that lands mid-send breaks this
incarnation's pipe and no one else's.

Message protocol (tuples on the result pipe, worker uid first):

* ``("beat", uid)`` — liveness, also sent while a cell runs
* ``("started", uid, cell_id, attempt)``
* ``("done", uid, cell_id, attempt, row, wall_seconds)``
* ``("failed", uid, cell_id, attempt, error)``
* ``("exiting", uid)`` — acknowledges the poison pill

A task message is ``{"cell": <Cell.to_json()>, "attempt": n}`` plus an
optional ``"hang"`` duration the chaos self-test uses to wedge the cell
*before* it computes anything — the master's per-cell timeout must
detect and kill it, and the clean retry proves results are unaffected.
``None`` is the poison pill.
"""

from __future__ import annotations

import signal
import threading
import time
from typing import Any, Callable

__all__ = ["worker_main"]


def _heartbeat(send: Callable[[tuple], None], uid: int, interval: float,
               stop: threading.Event) -> None:
    while not stop.wait(interval):
        try:
            send(("beat", uid))
        except (OSError, ValueError):  # pragma: no cover - master gone
            return


def worker_main(uid: int, task_queue: Any, results: Any,
                check: bool = False,
                heartbeat_interval: float = 0.5) -> None:
    """Entry point of one worker process (see module doc).

    *results* is the write end of this incarnation's result pipe.
    """
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except ValueError:  # pragma: no cover - non-main thread (tests)
        pass
    lock = threading.Lock()

    def send(message: tuple) -> None:
        with lock:
            results.send(message)

    stop = threading.Event()
    beat = threading.Thread(target=_heartbeat, daemon=True,
                            args=(send, uid, heartbeat_interval, stop))
    beat.start()
    # imported here so a worker that dies on import still reports cleanly
    from .cells import run_cell
    from .grid import Cell
    try:
        while True:
            message = task_queue.get()
            if message is None:
                send(("exiting", uid))
                return
            cell = Cell.from_json(message["cell"])
            attempt = int(message["attempt"])
            send(("started", uid, cell.cell_id, attempt))
            hang = float(message.get("hang") or 0.0)
            if hang > 0:
                time.sleep(hang)    # chaos: wedge until the master kills us
            begun = time.monotonic()
            try:
                row = run_cell(cell, check=check)
            except Exception as exc:
                send(("failed", uid, cell.cell_id, attempt,
                      f"{type(exc).__name__}: {exc}"))
            else:
                send(("done", uid, cell.cell_id, attempt, row,
                      time.monotonic() - begun))
    finally:
        stop.set()

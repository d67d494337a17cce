"""A gauge of the host's speed, sampled while a timed region runs.

On a shared host one core's speed moves by up to 2x, in steps that last
from a fraction of a second to minutes, so the same repeat reads 0.6 s or
0.9 s depending on when it runs. :class:`HostClock` times a region and
also, every :data:`PERIOD_S` of it, times a fixed toy event loop that
shares no code with the program (:func:`kernel`), from a ``SIGALRM``
handler in the timed thread. The kernel's time tells how fast the host
runs at that moment. The region's time, less the handler's own, is then
rescaled to the reference speed at which the kernel takes
:data:`REFERENCE_S`: each sampling interval counts ``REFERENCE_S /
sample`` seconds per second it lasted. A change to the program moves the
rescaled time as it moves the host time; a change in the host's speed
moves the kernel too and cancels out.

The kernel runs with the collector paused (and its state restored), so
its time does not depend on the size of the program's heap, and touches
no state of the program.
"""

from __future__ import annotations

import gc
import heapq
import signal
from time import perf_counter

#: host seconds between two samples of the kernel
PERIOD_S = 0.1
#: events in one run of the kernel (about 3 ms on a 2-vCPU cloud host)
KERNEL_EVENTS = 2500
#: the kernel's time at the reference speed that rescaled times refer to
REFERENCE_S = 0.003


class _Job:
    __slots__ = ("node", "work")

    def __init__(self, node: int, work: float) -> None:
        self.node = node
        self.work = work


def kernel(events: int = KERNEL_EVENTS, nodes: int = 64) -> float:
    """Host seconds for a fixed toy event loop: heap pushes and pops,
    small objects and dict updates, the operations the simulator spends
    its time on."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        load = dict.fromkeys(range(nodes), 0.0)
        queue = [(i * 0.25, i, _Job(i % nodes, 1.0)) for i in range(nodes)]
        heapq.heapify(queue)
        seq = nodes
        while seq < events:
            now, _n, job = heapq.heappop(queue)
            load[job.node] += job.work
            seq += 1
            node = (job.node * 7 + seq) % nodes
            heapq.heappush(queue, (now + 1.0 / (1.0 + load[node] % 5.0),
                                   seq, _Job(node, job.work * 0.5 + 0.5)))
        return perf_counter() - t0
    finally:
        if collecting:
            gc.enable()


class HostClock:
    """Context manager timing one region, in host and rescaled seconds.

    After the ``with`` block, :attr:`host_s` is the region's host time
    without the sampling handler's, and :attr:`seconds` the same time at
    the reference speed. Only the main thread can use it (``SIGALRM``).
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.handler_s = 0.0
        self.host_s = 0.0
        self.seconds = 0.0
        self._t0 = 0.0
        self._previous = None

    def _sample(self, _signum, _frame) -> None:
        t0 = perf_counter()
        self.samples.append(kernel())
        self.handler_s += perf_counter() - t0

    def __enter__(self) -> HostClock:
        self.samples.clear()
        self.handler_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._t0 = perf_counter()
        # the first sample right away, so even a short region has one
        signal.setitimer(signal.ITIMER_REAL, 1e-6, PERIOD_S)
        return self

    def __exit__(self, *_exc) -> None:
        wall = perf_counter() - self._t0
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.host_s = max(wall - self.handler_s, 0.0)
        if not self.samples:
            self._sample(signal.SIGALRM, None)
        speed = sum(REFERENCE_S / s for s in self.samples) / len(self.samples)
        self.seconds = self.host_s * speed

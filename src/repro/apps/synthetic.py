"""The paper's synthetic benchmark (§6.2).

"Each iteration of the program has 100 tasks per core, of average duration
50 ms. The task durations are different on the different appranks to meet
the target imbalance. The execution time of the tasks on the worst-case
rank is 50 ms multiplied by the target imbalance. The other execution
times are uniformly distributed over the space of values respecting the
constraints."

The slow-node variant (§7.5) keeps all cluster nodes at full speed and
*emulates* a slow node by multiplying the slow apprank's task durations —
"it is not actually a slow node, just emulated by the task durations".
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Generator, Optional

import numpy as np

from ..errors import WorkloadError
from ..mpisim.comm import RankComm
from ..nanos.apprank import AppRankRuntime
from ..nanos.task import AccessType, DataAccess

__all__ = ["SyntheticSpec", "task_durations", "apprank_loads",
           "synthetic_main", "make_synthetic_app"]

#: default task payload: 64 KiB in + out per task (small vs 50 ms of work)
DEFAULT_TASK_BYTES = 64 * 1024


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of one synthetic run."""

    num_appranks: int
    imbalance: float                    # Eq. 2 target, >= 1
    cores_per_apprank: int              # tasks per iteration = 100 * this
    tasks_per_core: int = 100
    mean_duration: float = 0.050        # seconds
    iterations: int = 3
    seed: int = 1234
    task_bytes: int = DEFAULT_TASK_BYTES
    #: §7.5 emulation: multiply this apprank's durations by slow_factor
    slow_rank: Optional[int] = None
    slow_factor: float = 3.0
    #: where the *application* imbalance puts its heaviest rank relative to
    #: the slow rank: "most" = slow rank has the most work (right side of
    #: Figure 10), "least" = the least (left side)
    slow_has: str = "most"

    def __post_init__(self) -> None:
        if self.num_appranks < 1:
            raise WorkloadError("need at least one apprank")
        if self.imbalance < 1.0:
            raise WorkloadError(f"imbalance must be >= 1.0, got {self.imbalance}")
        if self.imbalance > self.num_appranks:
            raise WorkloadError(
                f"imbalance {self.imbalance} impossible with "
                f"{self.num_appranks} appranks (max is the apprank count)")
        if self.tasks_per_core < 1 or self.cores_per_apprank < 1:
            raise WorkloadError("need at least one task per iteration")
        if self.mean_duration <= 0:
            raise WorkloadError("mean duration must be positive")
        if self.slow_rank is not None and not (
                0 <= self.slow_rank < self.num_appranks):
            raise WorkloadError(f"slow rank {self.slow_rank} out of range")
        if self.slow_has not in ("most", "least"):
            raise WorkloadError(f"slow_has must be 'most' or 'least'")

    @property
    def tasks_per_apprank(self) -> int:
        return self.tasks_per_core * self.cores_per_apprank


def task_durations(spec: SyntheticSpec) -> np.ndarray:
    """Per-apprank *nominal* task duration meeting the target imbalance.

    The worst-case rank gets ``mean * imbalance``; the other ranks' durations
    are uniform over {x : sum(x) = budget, 0 <= x_i <= worst}, the §6.2
    "space of values respecting the constraints". Two exact stages on one
    ``default_rng(spec.seed)`` stream draw them:

    1. up to 1000 flat-Dirichlet draws, keeping the first that respects the
       bound (uniform on the constrained set, given that it is accepted);
    2. if none fits, Stafford's randfixedsum (:func:`_randfixedsum`).

    Both stages are uniform on the set, so the result is too. Three specs
    are exact without sampling: one other rank gets the whole budget,
    imbalance 1.0 gives every rank ``mean``, and imbalance == appranks gives
    the other ranks zero. Every result is checked (sum, bounds, maximum on
    the worst rank) and a violation raises :class:`WorkloadError`.

    The vector is computed once per spec and memoised; the returned array
    is shared and read-only. The §7.5 slow-factor multiplier is NOT
    included — it emulates hardware, not application work; apply it via
    :func:`emulated_durations`.
    """
    return _durations(spec)


#: flat-Dirichlet draws tried before falling back to randfixedsum
_REJECTION_DRAWS = 1000
#: relative tolerance of the checks on a sampled duration vector
_CHECK_RTOL = 1e-9


@functools.lru_cache(maxsize=1024)
def _durations(spec: SyntheticSpec) -> np.ndarray:
    """Body of :func:`task_durations`, memoised: one sample per spec."""
    a = spec.num_appranks
    mean = spec.mean_duration
    worst = mean * spec.imbalance
    durations = np.empty(a)
    worst_rank = _worst_rank(spec)
    others = [r for r in range(a) if r != worst_rank]
    durations[worst_rank] = worst
    durations[others] = _other_shares(spec, worst)
    if (spec.slow_rank is not None and spec.slow_has == "least"
            and spec.slow_rank != worst_rank):
        # The slow rank must carry the least application work: swap its
        # share with the minimum among the non-worst ranks.
        least = min(others, key=lambda r: durations[r])
        durations[[spec.slow_rank, least]] = durations[[least, spec.slow_rank]]
    _check_durations(spec, durations, worst_rank)
    durations.setflags(write=False)
    return durations


def _other_shares(spec: SyntheticSpec, worst: float) -> np.ndarray:
    """Durations of the non-worst ranks: uniform, summing to the budget."""
    a = spec.num_appranks
    rest = a - 1
    budget = a * spec.mean_duration - worst
    if rest == 1:
        return np.array([budget])
    if spec.imbalance == 1.0:
        return np.full(rest, spec.mean_duration)
    if spec.imbalance == a:
        return np.zeros(rest)
    rng = np.random.default_rng(spec.seed)
    for _ in range(_REJECTION_DRAWS):
        shares = rng.dirichlet(np.ones(rest)) * budget
        if np.all(shares <= worst + 1e-12):
            return shares
    return worst * _randfixedsum(rng, rest, budget / worst)


def _randfixedsum(rng: np.random.Generator, n: int,
                  total: float) -> np.ndarray:
    """One point uniform on {x in [0, 1]^n : sum(x) = total}, 0 < total < n.

    Stafford's randfixedsum (2006). The hyperplane section of the unit cube
    is a union of simplices; ``k = floor(total)`` picks the slab it cuts.
    A table built by the volume recursion ``w`` over leading coordinates
    gives, for each coordinate, the probability of stepping to the next
    slab down. Walking that table chooses a simplex with probability
    proportional to its volume, the simplex is sampled uniformly with the
    ``u ** (1/i)`` construction, and a random permutation makes the
    coordinates exchangeable. O(n^2) to build the table, O(n) per draw.
    """
    k = min(int(total), n - 1)
    s = min(max(total, float(k)), float(k + 1))
    # distances of s to the slab boundaries k, k-1, ... and k+1, k+2, ...
    below = s - np.arange(k, k - n, -1)
    above = np.arange(k + n, k, -1) - s
    # w[i, j] is a scaled volume; start at the largest double so deep
    # recursions stay representable, and guard 0/0 with the tiniest one
    w = np.zeros((n, n + 1))
    w[0, 1] = np.finfo(float).max
    tiny = np.nextafter(0.0, 1.0)
    step_down = np.zeros((n - 1, n))
    for i in range(2, n + 1):
        from_below = w[i - 2, 1:i + 1] * below[:i] / i
        from_above = w[i - 2, :i] * above[n - i:] / i
        w[i - 1, 1:i + 1] = from_below + from_above
        scale = w[i - 1, 1:i + 1] + tiny
        step_down[i - 2, :i] = np.where(above[n - i:] > below[:i],
                                        from_above / scale,
                                        1.0 - from_below / scale)
    choose = rng.random(n - 1)
    place = rng.random(n - 1)
    x = np.empty(n)
    column = k
    acc, prod = 0.0, 1.0
    for i in range(n - 1, 0, -1):
        down = float(choose[n - 1 - i] <= step_down[i - 1, column])
        root = place[n - 1 - i] ** (1.0 / i)
        acc += (1.0 - root) * prod * s / (i + 1)
        prod *= root
        x[n - 1 - i] = acc + prod * down
        s -= down
        column -= int(down)
    x[n - 1] = acc + prod * s
    return x[rng.permutation(n)]


def _check_durations(spec: SyntheticSpec, durations: np.ndarray,
                     worst_rank: int) -> None:
    """Raise :class:`WorkloadError` unless *durations* meets §6.2."""
    total = spec.num_appranks * spec.mean_duration
    problems = []
    if abs(durations.sum() - total) > _CHECK_RTOL * total:
        problems.append(f"sum {durations.sum()!r} != {total!r}")
    if durations.min() < 0.0:
        problems.append(f"negative duration {durations.min()!r}")
    if durations.max() > durations[worst_rank] * (1.0 + _CHECK_RTOL):
        problems.append(f"max {durations.max()!r} above the worst rank's "
                        f"{durations[worst_rank]!r}")
    if problems:
        raise WorkloadError(f"synthetic durations for {spec} violate §6.2: "
                            + "; ".join(problems))


def _worst_rank(spec: SyntheticSpec) -> int:
    """Which apprank carries the maximum load."""
    if spec.slow_rank is not None and spec.slow_has == "most":
        return spec.slow_rank
    if spec.slow_rank is not None and spec.slow_has == "least":
        # Heaviest rank far from the slow rank.
        return (spec.slow_rank + spec.num_appranks // 2) % spec.num_appranks \
            if spec.num_appranks > 1 else 0
    return 0


def emulated_durations(spec: SyntheticSpec) -> np.ndarray:
    """Wall durations including the §7.5 slow-node emulation factor."""
    durations = task_durations(spec)
    if spec.slow_rank is not None:
        durations = durations.copy()
        durations[spec.slow_rank] *= spec.slow_factor
    return durations


def apprank_loads(spec: SyntheticSpec) -> np.ndarray:
    """Per-apprank work per iteration in core·seconds (application work)."""
    return task_durations(spec) * spec.tasks_per_apprank


def emulated_loads(spec: SyntheticSpec) -> np.ndarray:
    """Per-apprank wall work per iteration including slow-node emulation."""
    return emulated_durations(spec) * spec.tasks_per_apprank


def synthetic_main(comm: RankComm, rt: AppRankRuntime,
                   spec: SyntheticSpec) -> Generator[Any, Any, dict]:
    """SPMD main: iterations of independent tasks + taskwait + barrier."""
    durations = emulated_durations(spec)
    my_duration = float(durations[comm.rank])
    bytes_per_task = spec.task_bytes
    iteration_times: list[float] = []
    for _iteration in range(spec.iterations):
        t0 = comm.sim.now
        for i in range(spec.tasks_per_apprank):
            accesses = ()
            if bytes_per_task > 0:
                base = i * bytes_per_task
                accesses = (DataAccess(AccessType.INOUT, base,
                                       base + bytes_per_task),)
            rt.submit(work=my_duration, accesses=accesses,
                      label=f"synthetic-{i}")
        yield from rt.taskwait()
        yield from comm.barrier()
        iteration_times.append(comm.sim.now - t0)
    return {"iteration_times": iteration_times, "stats": rt.stats()}


def make_synthetic_app(spec: SyntheticSpec):
    """Bind *spec* for :meth:`ClusterRuntime.run_app`."""
    def main(comm: RankComm, rt: AppRankRuntime):
        result = yield from synthetic_main(comm, rt, spec)
        return result
    return main

"""Integer core allocation from continuous weights.

Both policies end with the same sub-problem: split ``total`` integer cores
over workers proportionally to non-negative weights, giving every worker at
least ``minimum`` (DLB requires one core per process). Largest-remainder
(Hamilton) apportionment keeps the result within one core of the real
proportion and is deterministic.
"""

from __future__ import annotations

from typing import Hashable, Mapping, TypeVar

from ..errors import AllocationError

__all__ = ["proportional_allocation", "round_allocation"]

K = TypeVar("K", bound=Hashable)

#: decimal digits kept when ranking fractional parts in
#: :func:`round_allocation` (LP noise is ~1e-15; HiGHS bounds hold to ~1e-9)
_TIE_DIGITS = 9


def proportional_allocation(weights: Mapping[K, float], total: int,
                            minimum: int = 1) -> dict[K, int]:
    """Split *total* units proportionally to *weights* with a floor.

    Keys are processed in sorted order so equal inputs give equal outputs
    regardless of mapping iteration order. Zero/negative weights are
    treated as zero and receive the floor.
    """
    keys = sorted(weights.keys())
    if not keys:
        raise AllocationError("no workers to allocate to")
    if total < minimum * len(keys):
        raise AllocationError(
            f"cannot give {len(keys)} workers >= {minimum} cores from {total}")
    clean = {k: max(0.0, float(weights[k])) for k in keys}
    weight_sum = sum(clean.values())
    distributable = total - minimum * len(keys)
    if weight_sum <= 0.0 or distributable == 0:
        # No signal: floor everyone, spread the remainder round-robin.
        counts = {k: minimum for k in keys}
        for i in range(distributable):
            counts[keys[i % len(keys)]] += 1
        return counts
    shares = {k: distributable * clean[k] / weight_sum for k in keys}
    counts = {k: minimum + int(shares[k]) for k in keys}
    assigned = sum(counts.values())
    remainders = sorted(keys, key=lambda k: (-(shares[k] - int(shares[k])), k))
    i = 0
    while assigned < total:
        counts[remainders[i % len(keys)]] += 1
        assigned += 1
        i += 1
    if sum(counts.values()) != total:
        raise AllocationError("apportionment accounting error")
    return counts


def round_allocation(continuous: Mapping[K, float], total: int) -> dict[K, int]:
    """Round an LP solution (values >= 1, sum <= total) to integers summing
    to *total*, staying as close to the continuous values as possible.

    Unlike :func:`proportional_allocation` this preserves the solution's
    structure: each worker gets at least ``floor(value)`` (never below 1),
    and the leftover cores go to the largest fractional parts — the paper's
    "round to an integer number of owned cores per worker that sums to the
    total number of physical cores" (§5.4.2).
    """
    keys = sorted(continuous.keys())
    if not keys:
        raise AllocationError("no workers to allocate to")
    # LP solvers satisfy bounds only to their own tolerance (HiGHS ~1e-7);
    # clamp near-floor values rather than reject them.
    values = {k: max(1.0, float(continuous[k])) for k in keys}
    for k in keys:
        if float(continuous[k]) < 1.0 - 1e-5:
            raise AllocationError(
                f"LP value {continuous[k]} for {k!r} below the 1-core floor")
    counts = {k: max(1, int(values[k] + 1e-9)) for k in keys}
    assigned = sum(counts.values())
    if assigned > total:
        raise AllocationError(
            f"floors sum to {assigned} > {total}; infeasible LP solution")
    # Largest fraction first, then largest value, then key. Both are
    # quantised first: solvers return equal-demand workers an ulp or so
    # apart, and that noise must not decide who gets the spare core.
    order = sorted(keys, key=lambda k: (
        -round(values[k] - counts[k], _TIE_DIGITS),
        -round(values[k], _TIE_DIGITS), k))
    i = 0
    while assigned < total:
        counts[order[i % len(keys)]] += 1
        assigned += 1
        i += 1
    return counts

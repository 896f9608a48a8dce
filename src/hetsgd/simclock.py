"""Simulated wall-clock accounting for communication rounds.

Every worker's round time is ``tau * iter_cost``; the round ends when the
slowest worker reaches the aggregation barrier, after which a flat
aggregation cost is paid by everyone.  Blocking time is the idle gap a
worker spends waiting at the barrier.  Simulated time is fully decoupled
from host execution time — nothing here measures real clocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["CostModel", "RoundTiming", "clock", "clock_end", "round_timing"]

# rounds per running-sum chunk in clock_end: 512 KiB of float64
_CHUNK = 2**16


@dataclass(frozen=True)
class CostModel:
    """Per-iteration costs by speed class plus a flat per-aggregation cost."""

    iter_cost_fast: float
    iter_cost_slow: float
    agg_cost: float = 0.0


@dataclass
class RoundTiming:
    compute_time: np.ndarray  # per worker, seconds
    blocking_time: np.ndarray  # per worker, seconds
    round_wall: float


def round_timing(workers, cost: CostModel) -> RoundTiming:
    """Timing decomposition of a single communication round."""
    compute = np.array([w.tau * w.iter_cost for w in workers])
    barrier = float(compute.max())
    # blocking from the barrier directly: exact zero for the slowest worker,
    # never a negative ulp from adding and subtracting agg_cost
    blocking = barrier - compute
    return RoundTiming(compute, blocking, barrier + cost.agg_cost)


def _per_round(workers, cost: CostModel) -> tuple:
    """One round's wall and blocking summed over workers."""
    timing = round_timing(workers, cost)
    return timing.round_wall, float(timing.blocking_time.sum())


def clock(workers, cost: CostModel, rounds: int) -> tuple:
    """Cumulative simulated wall and blocking (summed over workers) after each round.

    Returns two float64 arrays of ``rounds`` entries.  ``np.cumsum`` adds in
    sequence, so entry r has the bits of a running sum over rounds 0..r.  A
    cost that overflows gives inf or nan entries, for the caller to check.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return tuple(np.cumsum(np.full(rounds, value)) for value in _per_round(workers, cost))


def clock_end(workers, cost: CostModel, rounds: int) -> tuple:
    """The last entries of :func:`clock`'s two arrays, in memory independent of ``rounds``.

    The same running sum, taken ``_CHUNK`` rounds at a time with the total
    so far carried into the next chunk, so the bits are the last entry's.
    Every round adds the same nonnegative value, so the sums never fall:
    the last entry is finite exactly when every entry is.  0.0 for no
    rounds.
    """
    ends = []
    with np.errstate(over="ignore", invalid="ignore"):
        for value in _per_round(workers, cost):
            total, left = 0.0, rounds
            while left:
                chunk = np.full(min(left, _CHUNK) + 1, value)
                chunk[0] = total
                total = float(np.cumsum(chunk)[-1])
                left -= chunk.shape[0] - 1
            ends.append(total)
    return tuple(ends)

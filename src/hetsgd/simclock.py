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

__all__ = ["CostModel", "RoundTiming", "TimelineTotals", "round_timing", "run_timeline"]


@dataclass(frozen=True)
class CostModel:
    """Per-iteration costs by speed class plus a flat per-aggregation cost."""

    iter_cost_fast: float
    iter_cost_slow: float
    agg_cost: float = 0.0

    def __post_init__(self):
        if self.iter_cost_fast < 0 or self.iter_cost_slow < 0 or self.agg_cost < 0:
            raise ValueError("costs must be nonnegative")
        if self.iter_cost_slow < self.iter_cost_fast:
            raise ValueError("slow iter cost must be >= fast iter cost")


@dataclass
class RoundTiming:
    compute_time: np.ndarray  # per worker, seconds
    blocking_time: np.ndarray  # per worker, seconds
    round_wall: float


@dataclass
class TimelineTotals:
    total_wall: float
    total_blocking: np.ndarray  # per worker
    total_agg_count: int


def round_timing(workers, cost: CostModel) -> RoundTiming:
    """Timing decomposition of a single communication round."""
    if len(workers) == 0:
        raise ValueError("need at least one worker")
    compute = np.array([w.tau * w.iter_cost for w in workers])
    barrier = float(compute.max())
    # blocking from the barrier directly: exact zero for the slowest worker,
    # never a negative ulp from adding and subtracting agg_cost
    blocking = barrier - compute
    return RoundTiming(compute, blocking, barrier + cost.agg_cost)


def run_timeline(rounds: int, workers, cost: CostModel) -> TimelineTotals:
    """Totals over a fixed number of identical rounds."""
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    per_round = round_timing(workers, cost)
    return TimelineTotals(
        total_wall=rounds * per_round.round_wall,
        total_blocking=rounds * per_round.blocking_time,
        total_agg_count=rounds,
    )

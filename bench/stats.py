"""Benchmark arithmetic: reference ratios, the tail-percentile rule and the
failed-op tally."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

MIN_BEYOND = 10  # samples a reported tail percentile must have beyond it


def tail_percentile(samples):
    """The highest whole percentile with at least ten samples beyond it.

    Nearest rank: the p-th percentile of n sorted samples is the one at rank
    ceil(p * n / 100), which leaves n - rank samples beyond it.  Returns
    ``(p, value, beyond)``, or None when fewer than eleven samples exist.
    """
    n = len(samples)
    p = (100 * (n - MIN_BEYOND)) // n if n else 0
    if p < 1:
        return None
    rank = math.ceil(p * n / 100)
    return p, sorted(samples)[rank - 1], n - rank


def paired_ratios(times, refs):
    """Each time over the mean of the reference times taken around it.

    Runs alternate ``refs[0], times[0], refs[1], times[1], ..., refs[n]``, so
    ``refs`` has one entry more than ``times``.  A ``None`` time (a failed op)
    gives no ratio.
    """
    if len(refs) != len(times) + 1:
        raise ValueError(f"{len(times)} times need {len(times) + 1} reference times")
    return [t / ((before + after) / 2)
            for t, before, after in zip(times, refs, refs[1:]) if t is not None]


@dataclass
class Tally:
    """Attempted and failed ops; an op fails if it raised or its bytes differ."""

    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)

    def check(self, hashes, expected, error=None) -> bool:
        """Count one op; True when it neither raised nor mismatched."""
        self.attempted += 1
        if error is None and hashes == expected:
            return True
        self.failed += 1
        if error is not None:
            self.reasons.append(f"raised {error}")
        else:
            self.reasons.append(f"metrics.csv sha256 {hashes} != expected {expected}")
        return False

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

"""Deterministic numeric primitives shared by every other module.

Model parameters and gradients live in flat 1-D float64 arrays ("param
vectors").  All randomness flows through :class:`RngStream`, numpy's
``Generator`` over a counter-based Philox keyed by ``(seed, stream_id)``, so
that per-worker streams are reproducible regardless of scheduling order.
Accumulation is done in 64-bit floats throughout.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ParamVector",
    "RngStream",
    "rng_choose_without_replacement",
    "round_half_up",
]

# A param vector is a plain 1-D float64 ndarray, not wrapped in a class.
ParamVector = np.ndarray

_MASK64 = (1 << 64) - 1

# A run's stream ids per seed.  Fast worker j's epoch cursor takes CURSOR_BASE + j
# and worker i WORKER_BASE + i; config.validate keeps the cursors below the workers.
STREAM_DATA = 11
STREAM_SPLIT = 12
STREAM_INIT = 13
STREAM_SAMPLER = 20
STREAM_CURSOR_BASE = 40
STREAM_WORKER_BASE = 1000


class RngStream(np.random.Generator):
    """numpy's ``Generator`` over Philox keyed ``(stream_id mod 2**64) << 64 | (seed mod 2**64)``.

    Equal ``(seed, stream_id)`` give identical call sequences and distinct
    ``stream_id`` values independent streams, whatever the creation or
    scheduling order.  ``choose`` is the one method added to ``Generator``'s.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        key = (self.stream_id & _MASK64) << 64 | (self.seed & _MASK64)
        super().__init__(np.random.Philox(key=key))

    def choose(self, n: int, k: int) -> np.ndarray:
        return rng_choose_without_replacement(self, n, k)


def round_half_up(x: float) -> int:
    """Round to nearest integer, halves away from zero (x >= 0 here)."""
    return int(np.floor(x + 0.5))


def rng_choose_without_replacement(stream: RngStream, n: int, k: int) -> np.ndarray:
    """k distinct indices drawn uniformly from [0, n)."""
    if k > n:
        raise ValueError(f"cannot choose {k} from {n} without replacement")
    if k < 0:
        raise ValueError("k must be nonnegative")
    return stream.choice(n, size=k, replace=False)

"""Deterministic numeric primitives shared by every other module.

Model parameters and gradients live in flat 1-D float64 arrays ("param
vectors").  All randomness flows through :class:`RngStream`, a counter-based
generator keyed by ``(seed, stream_id)`` so that per-worker streams are
reproducible regardless of scheduling order.  Accumulation is done in 64-bit
floats throughout.
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


class RngStream:
    """A named, independent random stream.

    Two streams with the same ``(seed, stream_id)`` produce identical call
    sequences; distinct ``stream_id`` values give statistically independent
    streams.  Backed by the counter-based Philox generator, so stream
    identity does not depend on creation or scheduling order.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        key = (self.stream_id & _MASK64) << 64 | (self.seed & _MASK64)
        self.gen = np.random.Generator(np.random.Philox(key=key))

    def permutation(self, n: int) -> np.ndarray:
        return self.gen.permutation(n)

    def shuffle(self, x: np.ndarray) -> None:
        """Shuffle ``x`` in place: ``x[:] = x[permutation(len(x))]``, same draws."""
        self.gen.shuffle(x)

    def choose(self, n: int, k: int) -> np.ndarray:
        return rng_choose_without_replacement(self, n, k)

    def uniform(self, low: float, high: float, size) -> np.ndarray:
        return self.gen.uniform(low, high, size)

    def normal(self, loc: float, scale: float, size) -> np.ndarray:
        return self.gen.normal(loc, scale, size)

    def integers(self, low: int, high: int, size=None):
        return self.gen.integers(low, high, size=size)


def round_half_up(x: float) -> int:
    """Round to nearest integer, halves away from zero (x >= 0 here)."""
    return int(np.floor(x + 0.5))


def rng_choose_without_replacement(stream: RngStream, n: int, k: int) -> np.ndarray:
    """k distinct indices drawn uniformly from [0, n)."""
    if k > n:
        raise ValueError(f"cannot choose {k} from {n} without replacement")
    if k < 0:
        raise ValueError("k must be nonnegative")
    return stream.gen.choice(n, size=k, replace=False)

"""Round-boundary model combination rules.

Three rules map P local models (and their per-round update counts) to one
global model:

- ``balanced``: plain average, weight 1/P each — the unbiased choice.
- ``tau_weighted``: weight tau_i / sum(tau), biasing the global model toward
  workers that performed more local updates.
- ``fednova``: the opposite bias — local deltas from the round-start model
  are rescaled by normalized inverse update counts (1/tau_i) / sum(1/tau_j)
  and added back.  This is a deliberately simplified inverse-tau reading of
  update normalization, kept as an ablation baseline; it is known to slow
  convergence when workers sample IID data.
"""

from __future__ import annotations

import numpy as np

from .core import ParamVector, axpy, weighted_sum

__all__ = ["RULES", "aggregation_weights", "aggregate"]

RULES = ("balanced", "tau_weighted", "fednova")


def aggregation_weights(rule: str, taus) -> np.ndarray:
    """Normalized per-worker weights for a rule; nonnegative, summing to 1."""
    taus = list(taus)
    if rule not in RULES:
        raise ValueError(f"unknown aggregation rule {rule!r}")
    if len(taus) == 0:
        raise ValueError("need at least one worker")
    if any(t < 1 for t in taus):
        raise ValueError("update counts must be >= 1")
    p = len(taus)
    if rule == "balanced":
        return np.full(p, 1.0 / p)
    if rule == "tau_weighted":
        total = sum(taus)  # integer sum, then one division: exact ratios
        return np.array([t / total for t in taus])
    inv = [1.0 / t for t in taus]
    total = sum(inv)
    return np.array([v / total for v in inv])


def aggregate(rule: str, models: list, taus, round_start: ParamVector | None = None) -> ParamVector:
    """Combine local models into the next global model.

    ``round_start`` (the model all workers started the round from) is
    required for the fednova rule, which reweights deltas rather than the
    models themselves.
    """
    if len(models) == 0:
        raise ValueError("no models to aggregate")
    if len(models) != len(list(taus)):
        raise ValueError("models and taus disagree on worker count")
    weights = aggregation_weights(rule, taus)
    if rule in ("balanced", "tau_weighted"):
        return weighted_sum(models, weights)
    if round_start is None:
        raise ValueError("fednova aggregation needs the round-start model")
    deltas = [m - round_start for m in models]
    return axpy(1.0, weighted_sum(deltas, weights), round_start)

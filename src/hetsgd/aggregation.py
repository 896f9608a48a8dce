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

:func:`aggregate` is the one place models are combined: it takes its weights
from :func:`aggregation_weights` and accumulates in worker order.
"""

from __future__ import annotations

import numpy as np

from .core import ParamVector

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


def aggregate(rule: str, models, taus, round_start: ParamVector | None = None) -> ParamVector:
    """Combine the round's local models into the next global model.

    ``models`` is a list of param vectors or a ``(P, n_params)`` stack, in
    the order of ``taus``.  The result accumulates ``w_i * m_i`` in that
    order; fednova accumulates ``w_i * (m_i - round_start)`` and then adds
    ``round_start``, the model all workers started the round from, which
    it requires.  Raises ValueError on a worker-count or shape mismatch and
    on a non-finite result.
    """
    taus = list(taus)
    if len(models) != len(taus):
        raise ValueError("models and taus disagree on worker count")
    weights = aggregation_weights(rule, taus)
    fednova = rule == "fednova"
    if fednova and round_start is None:
        raise ValueError("fednova aggregation needs the round-start model")
    shape = np.shape(models[0])
    for m in [*models, round_start] if fednova else models:
        if np.shape(m) != shape:
            raise ValueError(f"length mismatch: {np.shape(m)} vs {shape}")
    out = np.zeros(shape)
    with np.errstate(over="ignore", invalid="ignore"):
        for w, m in zip(weights, models):
            out += w * (m - round_start if fednova else m)
        if fednova:
            out += round_start
    if not np.isfinite(out).all():
        raise ValueError("aggregation produced non-finite entries")
    return out

"""Per-worker local training loops and learning-rate schedules.

Each communication round, a worker clones the global model and runs ``tau``
plain-SGD steps on mini-batches drawn from a stream-shuffled permutation of
its assigned sample indices (reshuffling and cycling when it runs out; a
short batch at the epoch boundary is used as-is).  Fast workers run
``tau_F`` steps; slow workers run ``tau_S = max(1, round(tau_F / alpha))``
where ``alpha`` is the slow/fast per-iteration cost ratio.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import ParamVector, RngStream, round_half_up
from .data import Dataset
from .models import Batch, ModelSpec, loss_and_grad

__all__ = [
    "WorkerSpec",
    "SystemProfile",
    "LrSchedule",
    "derive_tau_s",
    "measure_alpha",
    "local_train",
    "lr_at",
]

SAMPLER_MODES = ("separated", "unified", "uniform")


@dataclass(frozen=True)
class WorkerSpec:
    """One simulated worker: identity, speed class, and per-round workload."""

    id: int
    role: str  # "fast" | "slow"
    tau: int  # local updates per communication round
    iter_cost: float  # simulated seconds per local update
    batch_size: int

    def __post_init__(self):
        if self.role not in ("fast", "slow"):
            raise ValueError(f"unknown worker role {self.role!r}")
        if self.tau < 1:
            raise ValueError("tau must be >= 1")
        if self.iter_cost <= 0:
            raise ValueError("iter_cost must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


def derive_tau_s(tau_f: int, alpha: float) -> int:
    """Slow-worker update count: tau_F scaled down by the cost ratio, min 1."""
    if tau_f < 1:
        raise ValueError("tau_F must be >= 1")
    if alpha < 1:
        raise ValueError("alpha must be >= 1 (fold the ratio so slow/fast >= 1)")
    return max(1, round_half_up(tau_f / alpha))


def measure_alpha(iter_costs_fast, iter_costs_slow) -> float:
    """Cost ratio from measured average iteration times: mean(slow)/mean(fast)."""
    fast = np.asarray(iter_costs_fast, dtype=np.float64)
    slow = np.asarray(iter_costs_slow, dtype=np.float64)
    if fast.size == 0 or slow.size == 0:
        raise ValueError("need at least one measurement per class")
    if np.any(fast <= 0) or np.any(slow <= 0):
        raise ValueError("iteration costs must be positive")
    return float(slow.mean() / fast.mean())


@dataclass
class SystemProfile:
    """The heterogeneity description driving sampling and update counts."""

    alpha: float
    p_s: int
    p_f: int
    lam: float
    tau_f: int
    sampler_mode: str = "separated"
    tau_s: int = field(init=False)

    def __post_init__(self):
        if self.alpha < 1:
            raise ValueError("alpha must be >= 1")
        if self.p_s < 1 or self.p_f < 1:
            raise ValueError("need at least one slow and one fast worker")
        if self.lam < 1:
            raise ValueError("lam must be >= 1")
        if self.sampler_mode not in SAMPLER_MODES:
            raise ValueError(f"sampler_mode must be one of {SAMPLER_MODES}")
        self.tau_s = derive_tau_s(self.tau_f, self.alpha)

    @property
    def num_workers(self) -> int:
        return self.p_s + self.p_f


@dataclass(frozen=True)
class LrSchedule:
    """constant | multistep (decay at milestones) | cosine annealing."""

    kind: str
    base_lr: float
    milestones: tuple = ()
    decay: float = 0.1
    total_rounds: int = 0

    def __post_init__(self):
        if self.kind not in ("constant", "multistep", "cosine"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.base_lr <= 0:
            raise ValueError("base_lr must be positive")
        ms = tuple(self.milestones)
        if any(b >= a for a, b in zip(ms[1:], ms)):
            raise ValueError("milestones must be strictly increasing")
        object.__setattr__(self, "milestones", ms)
        if self.kind == "cosine" and self.total_rounds < 1:
            raise ValueError("cosine schedule needs total_rounds >= 1")


def lr_at(schedule: LrSchedule, round_idx: int) -> float:
    """Learning rate for a communication round (schedules are round-indexed)."""
    if round_idx < 0:
        raise ValueError("round index must be nonnegative")
    if schedule.kind == "constant":
        return schedule.base_lr
    if schedule.kind == "multistep":
        hits = sum(1 for m in schedule.milestones if m <= round_idx)
        return schedule.base_lr * schedule.decay ** hits
    if round_idx >= schedule.total_rounds:
        raise ValueError(
            f"round {round_idx} beyond cosine horizon {schedule.total_rounds}"
        )
    return 0.5 * schedule.base_lr * (1.0 + np.cos(np.pi * round_idx / schedule.total_rounds))


def local_train(spec: ModelSpec, start_params: ParamVector, dataset: Dataset,
                assigned: np.ndarray, tau: int, lr: float, batch_size: int,
                stream: RngStream, weight_decay: float = 0.0):
    """Run ``tau`` SGD steps over the assigned samples.

    Mini-batches walk a stream-shuffled permutation of ``assigned``; a short
    batch is used at the boundary, then the permutation is reshuffled.  Every
    per-sample loss observed (at the pre-step parameters) is returned as
    parallel (ids, losses) arrays, newest occurrence last.

    Returns (end_params, observed_ids, observed_losses, steps_done).
    """
    assigned = np.asarray(assigned, dtype=np.int64)
    if assigned.size == 0:
        raise ValueError("worker received an empty assignment")
    if tau < 1:
        raise ValueError("tau must be >= 1")

    params = start_params.copy()
    order = assigned[stream.permutation(assigned.shape[0])]
    pos = 0
    seen_ids, seen_losses = [], []
    for _ in range(tau):
        if pos >= order.shape[0]:
            order = assigned[stream.permutation(assigned.shape[0])]
            pos = 0
        ids = order[pos:pos + batch_size]
        pos += ids.shape[0]
        batch = Batch(dataset.features[ids], dataset.labels[ids], ids)
        _, per_sample, grad = loss_and_grad(spec, params, batch)
        if weight_decay:
            grad = grad + weight_decay * params
        params -= lr * grad
        seen_ids.append(ids)
        seen_losses.append(per_sample)
    if not np.all(np.isfinite(params)):
        raise ValueError("local training diverged to non-finite parameters")
    return params, np.concatenate(seen_ids), np.concatenate(seen_losses), tau

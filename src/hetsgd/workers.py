"""Local training rounds, update-count derivation and learning-rate schedules.

Each communication round, every worker starts from the global model and
runs ``tau`` plain-SGD steps on mini-batches drawn from a stream-shuffled
permutation of its assigned sample indices (reshuffling and cycling when it
runs out; a short batch at the permutation boundary is used as-is).  Fast
workers run ``tau_F`` steps; slow workers run ``tau_S = max(1, round(tau_F /
alpha))`` where ``alpha`` is the slow/fast per-iteration cost ratio.

:func:`train_round` is the one training kernel.  It steps all of a round's
workers in lockstep, in the run plan's worker-id order (slow first, so taus
never decrease): parameters stacked as ``(P, n_params)``, the step-t
batches gathered as ``(G, b, input_dim)``, one stacked gradient call per
distinct batch length.  All P workers step for the first ``tau_S`` steps,
then only the fast ones, a suffix of the stack.  Each worker's stream
still drives only its own permutations, so the bits match stepping the
workers one by one; one worker is a one-element call.  A non-finite loss,
gradient or parameter raises :class:`DivergenceError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import ParamVector, RngStream, round_half_up
from .data import Dataset
from .models import ModelSpec, stacked_loss_and_grad

__all__ = [
    "DivergenceError",
    "WorkerSpec",
    "SystemProfile",
    "LrSchedule",
    "derive_tau_s",
    "measure_alpha",
    "train_round",
    "lr_at",
]

SAMPLER_MODES = ("separated", "unified", "uniform")


class DivergenceError(ValueError):
    """Local training produced a non-finite loss, gradient or parameter.

    ``harness.run`` sets ``records`` to the list of rounds it finished
    before this one, in output order.
    """

    records = ()


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


def _batch_schedule(assigned: np.ndarray, tau: int, batch_size: int, stream: RngStream,
                    ids: np.ndarray, lens: np.ndarray) -> None:
    """Write one worker's ``tau`` batches into ``ids[:tau]`` and ``lens[:tau]``.

    Batches walk a stream-shuffled permutation of ``assigned``; the last
    batch of a permutation is short when ``batch_size`` does not divide it,
    and the next step draws a fresh permutation.  Draws happen exactly where
    a step-by-step walk would make them.
    """
    n = assigned.shape[0]
    per_perm = -(-n // batch_size)
    full_per_perm = n // batch_size
    t = 0
    while t < tau:
        order = assigned[stream.permutation(n)]
        k = min(per_perm, tau - t)
        full = min(k, full_per_perm)
        ids[t:t + full] = order[:full * batch_size].reshape(full, batch_size)
        lens[t:t + full] = batch_size
        if k > full:
            rest = n - full * batch_size
            ids[t + full, :rest] = order[full * batch_size:]
            lens[t + full] = rest
        t += k


def _step_groups(lens: np.ndarray, first: int):
    """(rows, batch length) for each length among slots ``first:`` of one step.

    One length gives a slice, so the caller updates a view of the stack.
    """
    active = lens[first:]
    sizes = np.unique(active)
    if sizes.shape[0] == 1:
        return [(slice(first, None), int(sizes[0]))]
    return [(first + np.flatnonzero(active == size), int(size)) for size in sizes]


def train_round(spec: ModelSpec, start_params: ParamVector, dataset: Dataset,
                assignments, taus, lr: float, batch_size: int, streams,
                weight_decay: float = 0.0):
    """Run one communication round of local SGD for every worker at once.

    Worker i (named by its position in ``assignments``, ``taus`` and
    ``streams``) takes ``taus[i]`` plain-SGD steps from ``start_params`` on
    mini-batches of ``assignments[i]``, shuffled by ``streams[i]`` alone (see
    :func:`_batch_schedule`).  ``taus`` must not decrease, as in a run
    plan's worker order, so the workers still stepping at step t are always
    a suffix of the ``(P, n_params)`` stack; each step makes one
    :func:`~hetsgd.models.stacked_loss_and_grad` call per batch length
    among them.  Every row does the arithmetic a lone worker would, so the
    result is bit-identical to running the workers one after another.

    Returns ``(end_params, observed_ids, observed_losses, steps)``:
    ``end_params`` is ``(P, n_params)``, the observed arrays are per-worker
    lists of every sample id and loss seen (at the pre-step parameters,
    newest last) and ``steps`` counts the gradient steps taken.  Errors
    name the worker and its 0-based local step; a non-finite loss, gradient
    or parameter raises :class:`DivergenceError`.
    """
    p = len(taus)
    if p == 0:
        raise ValueError("need at least one worker")
    if min(taus) < 1:
        raise ValueError("tau must be >= 1")
    if any(b < a for a, b in zip(taus, taus[1:])):
        raise ValueError("taus must not decrease: order the workers slow first")
    tau_max = taus[-1]
    # negative padding keeps unused entries distinct from real ids and each other
    ids = np.broadcast_to(-1 - np.arange(batch_size), (p, tau_max, batch_size)).copy()
    lens = np.zeros((p, tau_max), dtype=np.int64)
    for i in range(p):
        assigned = np.asarray(assignments[i], dtype=np.int64)
        if assigned.size == 0:
            raise ValueError(f"worker {i}: received an empty assignment")
        _batch_schedule(assigned, taus[i], batch_size, streams[i], ids[i], lens[i])
    ragged = ((lens > 0) & (lens < batch_size)).any(axis=1).tolist()
    ordered = np.sort(ids, axis=-1)
    repeats = np.flatnonzero((ordered[..., 1:] == ordered[..., :-1]).any(axis=-1))
    if repeats.size:
        i, t = divmod(int(repeats[0]), tau_max)
        raise ValueError(f"worker {i} step {t}: sample ids must be distinct within a batch")

    params = np.repeat(start_params[None, :], p, axis=0)
    losses = np.empty(ids.shape)
    features, labels = dataset.features, dataset.labels
    first, steps = 0, 0
    # overflow is caught by the finiteness checks below, not reported by numpy
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(tau_max):
            while taus[first] <= t:
                first += 1
            steps += p - first
            groups = (_step_groups(lens[:, t], first) if any(ragged[first:])
                      else [(slice(first, None), batch_size)])
            for rows, size in groups:
                batch_ids = ids[rows, t, :size]
                current = params[rows]
                per_sample, grad = stacked_loss_and_grad(spec, current, features[batch_ids],
                                                         labels[batch_ids])
                if not (np.isfinite(per_sample).all() and np.isfinite(grad).all()):
                    bad = ~(np.isfinite(per_sample).all(axis=1) & np.isfinite(grad).all(axis=1))
                    worker = int(np.arange(p)[rows][bad][0])
                    raise DivergenceError(f"worker {worker} step {t}: "
                                          "non-finite loss or gradient")
                losses[rows, t, :size] = per_sample
                if weight_decay:
                    grad += weight_decay * current
                grad *= lr
                if isinstance(rows, slice):
                    current -= grad  # a view: updates the stack in place
                else:
                    params[rows] = current - grad
    diverged = np.flatnonzero(~np.isfinite(params).all(axis=1))
    if diverged.size:
        raise DivergenceError(f"worker {int(diverged[0])}: local training diverged to "
                              "non-finite parameters")

    seen = np.arange(batch_size) < lens[..., None]
    observed_ids = [ids[i][seen[i]] for i in range(p)]
    observed_losses = [losses[i][seen[i]] for i in range(p)]
    return params, observed_ids, observed_losses, steps


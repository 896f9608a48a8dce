"""Local training rounds, update-count derivation and the learning-rate schedule.

Each communication round, every worker starts from the global model and
runs ``tau`` plain-SGD steps on mini-batches drawn from a stream-shuffled
permutation of its assigned sample indices (reshuffling and cycling when it
runs out; a short batch at the permutation boundary is used as-is).  Fast
workers run ``tau_F`` steps; slow workers run ``tau_S = max(1, round(tau_F /
alpha))`` where ``alpha`` is the slow/fast per-iteration cost ratio.

:func:`train_round` is the one training kernel.  It takes a stack of
rows in any order, one row per worker, and steps them in lockstep sorted
by tau: parameters stacked as ``(P, n_params)``, the step-t batches
gathered as ``(G, b, input_dim)``, one stacked gradient call per distinct
batch length, on the rows still stepping, a suffix of that order.  A run
stacks the workers of several seeds, each row with its own start and its
own row map into one shared feature source.  Each row's stream drives only
its own permutations and every row does the arithmetic a lone worker
would, so the bits match stepping the rows one by one; one worker is a
one-element call.  What stays fixed within a round is paid once per round:
the batch schedule, and the layer views and gradient buffer of each suffix
of rows still stepping.  Finiteness is screened once too, at the round's
end; a round that fails the screen replays with every step screened, and
the first stacked call with a non-finite loss or gradient raises
:class:`DivergenceError`, as do non-finite end parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import RngStream, round_half_up
from .data import Dataset
from .models import ModelSpec, stack_views, stacked_loss_and_grad

__all__ = [
    "DivergenceError",
    "WorkerSpec",
    "SystemProfile",
    "derive_tau_s",
    "train_round",
    "lr_schedule",
    "multistep_rates",
]

SAMPLER_MODES = ("separated", "unified", "uniform")
SCHEDULE_KINDS = ("constant", "multistep", "cosine")


class DivergenceError(ValueError):
    """Local training produced a non-finite loss, gradient or parameter.

    ``harness.run`` also raises it for a training loss or an aggregate that
    overflows, and sets ``records`` to the list of rounds it finished
    before the failure, in output order.
    """

    def __init__(self, message: str, records=()):
        super().__init__(message)
        self.records = records


@dataclass(frozen=True)
class WorkerSpec:
    """One simulated worker: identity, speed class, and per-round workload."""

    id: int
    role: str  # "fast" | "slow"
    tau: int  # local updates per communication round
    iter_cost: float  # simulated seconds per local update
    batch_size: int


def derive_tau_s(tau_f: int, alpha: float) -> int:
    """Slow-worker update count: tau_F scaled down by the cost ratio, min 1."""
    return max(1, round_half_up(tau_f / alpha))


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
        self.tau_s = derive_tau_s(self.tau_f, self.alpha)


def lr_schedule(kind: str, base_lr: float, milestones, decay: float, rounds: int) -> np.ndarray:
    """The learning rate of each of ``rounds`` rounds, as a float64 array.

    constant: ``base_lr``; multistep: ``base_lr * decay ** k`` from the k-th
    milestone on, one Python product per milestone the run reaches (a rate
    that overflows is inf); cosine: ``0.5 * base_lr * (1 + cos(pi r / rounds))``.
    """
    if kind == "constant":
        return np.full(rounds, base_lr)
    if kind == "cosine":
        return 0.5 * base_lr * (1.0 + np.cos(np.pi * np.arange(rounds) / rounds))
    return np.repeat(*multistep_rates(base_lr, milestones, decay, rounds))


def multistep_rates(base_lr: float, milestones, decay: float, rounds: int) -> tuple:
    """A multistep schedule as ``(rates, lengths)``: rate k lasts ``lengths[k]`` rounds.

    Rate k is ``base_lr * decay ** k``, inf where it overflows; a length is
    0 where milestones at or below 0 coincide.
    """
    starts = [max(m, 0) for m in milestones if m < rounds]
    rates = []
    for k in range(len(starts) + 1):
        try:
            rates.append(base_lr * decay ** k)
        except OverflowError:  # float ** int raises where float * float gives inf
            rates.append(math.inf)
    return rates, np.diff([0, *starts, rounds])


def _batch_schedule(assigned: np.ndarray, tau: int, batch_size: int, stream: RngStream,
                    ids: np.ndarray, lens: np.ndarray) -> None:
    """Write one worker's ``tau`` batches into ``ids[:tau]`` and ``lens[:tau]``.

    Batches walk a copy of ``assigned`` shuffled in place by the stream,
    which makes the draws of ``stream.permutation(n)``; the last
    batch of a permutation is short when ``batch_size`` does not divide it,
    and the next step draws a fresh permutation.  Draws happen exactly where
    a step-by-step walk would make them.
    """
    n = assigned.shape[0]
    per_perm = -(-n // batch_size)
    full_per_perm = n // batch_size
    t = 0
    while t < tau:
        order = assigned.copy()
        stream.shuffle(order)
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


def train_round(spec: ModelSpec, start_params: np.ndarray, dataset: Dataset,
                assignments, taus, lr: float, batch_size: int, streams,
                weight_decay: float = 0.0, row_maps=None):
    """Run one communication round of local SGD for a stack of rows at once.

    Row i takes ``taus[i]`` plain-SGD steps from its start, ``start_params``
    if that is one vector or ``start_params[i]`` of a ``(P, n_params)``
    stack, on mini-batches of ``assignments[i]``, shuffled by ``streams[i]``
    alone (see :func:`_batch_schedule`).  Sample ids address
    ``dataset``'s rows directly or, with ``row_maps``, through
    ``row_maps[i]``: id j of row i is dataset row ``row_maps[i][j]``, so
    rows of different seeds share one read-only feature source.  Rows come
    in any order and step sorted stably by tau, so the rows still stepping
    at step t are a suffix; each step makes one call of this module's
    ``stacked_loss_and_grad`` per batch length among them, looked up at
    call time, and uses the arrays it returns.  A step where every row
    takes a full batch passes the suffix's :func:`~hetsgd.models.stack_views`,
    built once per suffix.  Every row does the arithmetic a lone worker
    would, so the result is bit-identical to running the rows one after
    another.

    Returns ``(end_params, observed_ids, observed_losses, steps)`` in the
    caller's row order: ``end_params`` is ``(P, n_params)``, the observed
    arrays are per-row lists of every sample id and loss seen (at the
    pre-step parameters, newest last) and ``steps`` counts the gradient
    steps taken.  Errors name the caller's row i as worker i, with its
    0-based local step; where several rows fail at once, the lowest i.
    The first stacked call with a non-finite loss or gradient raises
    :class:`DivergenceError`, as do non-finite end parameters.  Steps are
    not screened one by one: a non-finite gradient always leaves non-finite
    end parameters, so the end parameters and every observed loss are
    checked once, and only a round that fails that check reruns its
    schedule from the start with each call screened.
    """
    p = len(taus)
    if p == 0:
        raise ValueError("need at least one worker")
    if min(taus) < 1:
        raise ValueError("tau must be >= 1")
    tau_max = max(taus)
    # negative padding keeps unused entries distinct from real ids and each other
    ids = np.broadcast_to(-1 - np.arange(batch_size), (p, tau_max, batch_size)).copy()
    lens = np.zeros((p, tau_max), dtype=np.int64)
    for i in range(p):
        assigned = np.asarray(assignments[i], dtype=np.int64)
        if assigned.size == 0:
            raise ValueError(f"worker {i}: received an empty assignment")
        _batch_schedule(assigned, taus[i], batch_size, streams[i], ids[i], lens[i])
    ordered = np.sort(ids, axis=-1)
    repeats = np.flatnonzero((ordered[..., 1:] == ordered[..., :-1]).any(axis=-1))
    if repeats.size:
        i, t = divmod(int(repeats[0]), tau_max)
        raise ValueError(f"worker {i} step {t}: sample ids must be distinct within a batch")
    # step slot j holds caller row order[j], ascending in tau: the sort is
    # stable, and the rows still stepping at step t are a suffix of the slots
    order = np.array(sorted(range(p), key=taus.__getitem__), dtype=np.intp)
    taus = [taus[i] for i in order]
    ids, lens = ids[order], lens[order]
    ragged = ((lens > 0) & (lens < batch_size)).any(axis=1).tolist()
    # padding entries clip to a valid row; no step reads them
    data_rows = ids if row_maps is None else np.stack(
        [np.take(row_maps[i], ids[j], mode="clip") for j, i in enumerate(order)])
    start = start_params[order] if start_params.ndim > 1 else start_params

    params = np.empty((p, start.shape[-1]))
    losses = np.zeros(ids.shape)
    features, labels = dataset.features, dataset.labels
    # the replay reruns the drawn schedule, so it draws no random numbers
    for checked in (False, True):
        params[...] = start
        first, views = 0, None
        # overflow is caught by the finiteness checks, not reported by numpy
        with np.errstate(over="ignore", invalid="ignore"):
            for t in range(tau_max):
                while taus[first] <= t:
                    first, views = first + 1, None
                if any(ragged[first:]):
                    groups, step_views = _step_groups(lens[:, t], first), None
                else:  # the common case: one call on the suffix, its views built once
                    views = views or stack_views(spec, params[first:], batch_size)
                    groups, step_views = [(slice(first, None), batch_size)], views
                for rows, size in groups:
                    batch_rows = data_rows[rows, t, :size]
                    current = params[rows]
                    per_sample, grad = stacked_loss_and_grad(
                        spec, current, features.take(batch_rows, axis=0),
                        labels.take(batch_rows), step_views)
                    if checked:
                        bad = ~(np.isfinite(per_sample).all(axis=1)
                                & np.isfinite(grad).all(axis=1))
                        if bad.any():
                            worker = int(order[rows][bad].min())
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
        if not (checked or diverged.size) and np.isfinite(losses).all():
            break
        if checked and diverged.size:
            raise DivergenceError(f"worker {int(order[diverged].min())}: local training "
                                  "diverged to non-finite parameters")
    else:  # a round that failed its end screen must fault in the replay
        raise RuntimeError("a round that failed its end screen replayed without a fault")

    slots = np.empty(p, dtype=np.intp)  # caller row i is step slot slots[i]
    slots[order] = np.arange(p)
    seen = np.arange(batch_size) < lens[..., None]
    observed_ids = [ids[j][seen[j]] for j in slots]
    observed_losses = [losses[j][seen[j]] for j in slots]
    return params[slots], observed_ids, observed_losses, sum(taus)

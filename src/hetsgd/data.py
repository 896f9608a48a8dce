"""Datasets, the per-sample loss ledger, and the round samplers.

The sampling pipeline runs in three steps each communication round:

1. draw a candidate pool of ``lam * P_S * N / (P_S + alpha * P_F)`` indices
   uniformly without replacement;
2. keep the ``P_S * N / (P_S + alpha * P_F)`` pool members with the highest
   last-observed loss and split them evenly across the slow workers;
3. let each fast worker draw ``alpha * N / (P_S + alpha * P_F)`` indices.

In *separated* mode (the default) fast workers draw from the whole dataset,
so fast and slow assignments may overlap.  In *unified* mode fast workers
draw from the complement of the slow selection, giving a globally
duplicate-free assignment.  *uniform* mode drops step 2 entirely and is the
unbiased baseline.  :func:`share_sizes` is the one share rule: the pool,
slow and fast sizes for a dataset of N, and the errors for a profile that
leaves a worker without samples; ``config.check_shares`` and :func:`assign`
both call it.  :func:`assign` implements all three modes, switching on the
profile's ``sampler_mode``, and returns one index array per worker in
worker-id order (slow first).  To pin a mode, pass it
``replace(profile, sampler_mode=...)``, as ``sample_separated`` does.

Loss values come from a :class:`LossLedger` holding each sample's loss as
last observed during local training; never-seen samples carry a +inf
sentinel so they are selected first (switchable to a uniform cold start).
"""

from __future__ import annotations

import csv
import struct
import warnings
from dataclasses import dataclass, replace
from typing import NoReturn

import numpy as np

from .core import RngStream, rng_choose_without_replacement, round_half_up

__all__ = [
    "Dataset",
    "LossLedger",
    "InvalidLambdaError",
    "NEVER_SEEN",
    "pool_size",
    "pool_size_exact",
    "slow_total",
    "slow_total_exact",
    "fast_per_worker",
    "fast_per_worker_exact",
    "slow_share_sizes",
    "share_sizes",
    "assign",
    "sample_separated",
    "record_losses",
    "EpochCursor",
    "SyntheticSpec",
    "make_synthetic",
    "load_dataset",
    "save_csv",
    "val_size",
    "train_val_split",
]

NEVER_SEEN = np.inf  # ledger sentinel: unseen samples sort ahead of any real loss

_BINARY_MAGIC = b"HSGD"


class InvalidLambdaError(ValueError):
    """Pool-size scale too large: the candidate pool would exceed the dataset."""


@dataclass
class Dataset:
    features: np.ndarray  # (N, input_dim) float64
    labels: np.ndarray  # (N,) int64
    num_classes: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError("features and labels disagree on sample count")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise ValueError("labels out of range for num_classes")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def input_dim(self) -> int:
        return self.features.shape[1]


class LossLedger:
    """Last-observed training loss per sample, plus the round it was seen."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("ledger needs at least one sample")
        self.last_loss = np.full(n, NEVER_SEEN, dtype=np.float64)
        self.last_round = np.full(n, -1, dtype=np.int64)

    @property
    def n(self) -> int:
        return self.last_loss.shape[0]

    def seen_mask(self) -> np.ndarray:
        return self.last_round >= 0


# ---------------------------------------------------------------------------
# Share formulas
# ---------------------------------------------------------------------------

def pool_size_exact(n: int, p_s: int, p_f: int, alpha: float, lam: float) -> float:
    return lam * p_s * n / (p_s + alpha * p_f)


def slow_total_exact(n: int, p_s: int, p_f: int, alpha: float) -> float:
    return p_s * n / (p_s + alpha * p_f)


def fast_per_worker_exact(n: int, p_s: int, p_f: int, alpha: float) -> float:
    return alpha * n / (p_s + alpha * p_f)


def pool_size(n: int, p_s: int, p_f: int, alpha: float, lam: float) -> int:
    """Candidate-pool size; raises InvalidLambdaError when it would exceed N.

    Validity is decided on the unrounded value, via the equivalent exact
    comparison lam * P_S > P_S + alpha * P_F (no float-division slop).
    """
    _check_profile_args(p_s, p_f, alpha)
    if lam < 1:
        raise ValueError("lam must be >= 1")
    if lam * p_s > p_s + alpha * p_f:
        raise InvalidLambdaError(
            f"candidate pool {pool_size_exact(n, p_s, p_f, alpha, lam):.1f} "
            f"exceeds dataset size {n} (lam={lam})"
        )
    return min(n, round_half_up(pool_size_exact(n, p_s, p_f, alpha, lam)))


def slow_total(n: int, p_s: int, p_f: int, alpha: float) -> int:
    """Total high-loss samples kept for the slow workers each round."""
    _check_profile_args(p_s, p_f, alpha)
    return round_half_up(slow_total_exact(n, p_s, p_f, alpha))


def fast_per_worker(n: int, p_s: int, p_f: int, alpha: float) -> int:
    """Samples drawn by each fast worker each round."""
    _check_profile_args(p_s, p_f, alpha)
    return round_half_up(fast_per_worker_exact(n, p_s, p_f, alpha))


def _check_profile_args(p_s: int, p_f: int, alpha: float) -> None:
    if p_s < 1 or p_f < 1:
        raise ValueError("need P_S >= 1 and P_F >= 1")
    if alpha < 1:
        raise ValueError("alpha must be >= 1 (slow/fast cost ratio)")


def slow_share_sizes(total: int, p_s: int) -> list:
    """Even split of `total` across slow workers; earlier workers get the extra."""
    base, extra = divmod(total, p_s)
    return [base + 1 if i < extra else base for i in range(p_s)]


def share_sizes(n: int, profile) -> tuple:
    """The round's share rule for a dataset of ``n``: ``(pool, slow, fast)``.

    ``pool`` is the candidate-pool size (0 in uniform mode), ``slow`` the
    list of per-slow-worker sizes and ``fast`` the per-fast-worker size; in
    unified mode it is repaired downward so the fast draws fit in the
    complement of the slow selection.  Raises ValueError when a worker would
    get nothing and, failing that, InvalidLambdaError when the pool would
    exceed ``n``.
    """
    p_s, p_f, alpha = profile.p_s, profile.p_f, profile.alpha
    if n < p_s + p_f:
        raise ValueError(f"training split of {n} cannot cover {p_s + p_f} workers")
    k_slow = slow_total(n, p_s, p_f, alpha)
    slow = slow_share_sizes(k_slow, p_s)
    if min(slow) < 1:
        raise ValueError("profile leaves a slow worker without samples")
    # a fed slow worker bounds alpha * P_F by 2 * P_S * N, so neither the pool
    # nor the fast share below can overflow to inf
    biased = profile.sampler_mode != "uniform"
    pool = pool_size(n, p_s, p_f, alpha, profile.lam) if biased else 0
    # n >= P_S + P_F and alpha >= 1 make the exact fast share >= 1, so the
    # fast size and the unified remainder per fast worker are >= 1 as well
    fast = fast_per_worker(n, p_s, p_f, alpha)
    if profile.sampler_mode == "unified":
        fast = min(fast, (n - k_slow) // p_f)
    return pool, slow, fast


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------

def _top_loss_selection(ledger: LossLedger, pool: np.ndarray, k: int,
                        stream: RngStream, cold_start: str) -> np.ndarray:
    """Top-k pool members by (loss desc, index asc); sentinel sorts first."""
    losses = ledger.last_loss[pool]
    if cold_start == "uniform-first" and not ledger.seen_mask().any():
        picked = rng_choose_without_replacement(stream, pool.shape[0], k)
        return pool[np.sort(picked)]
    # only members at or above the k-th largest loss can be picked (its ties
    # and the +inf sentinels included); a stable sort of the id-sorted
    # survivors by loss desc orders them by (loss desc, index asc)
    kth = np.partition(losses, pool.shape[0] - k)[pool.shape[0] - k]
    survivors = np.sort(pool[losses >= kth])  # pool ids are distinct
    order = np.argsort(-ledger.last_loss[survivors], kind="stable")
    return survivors[order[:k]]


def assign(ledger: LossLedger, profile, stream: RngStream,
           cold_start: str = "unseen-first",
           epoch_cursors: list | None = None) -> list:
    """One round's assignment in the profile's ``sampler_mode``, by worker id.

    Returns ``P_S + P_F`` index arrays, slow workers first, sized by
    :func:`share_sizes`.  Biased modes (separated, unified) give the slow
    workers the top-loss pool members, round-robin; uniform mode gives each
    slow worker a uniform draw of its share size.  Fast workers then draw
    freely (separated, uniform; or from their epoch cursors, if provided) or
    from the complement of the slow selection (unified).  Stream consumption
    order: pool draw, then top-loss selection, then fast workers in
    ascending id.
    """
    n, p_s, p_f = ledger.n, profile.p_s, profile.p_f
    mode = profile.sampler_mode
    if mode == "unified" and epoch_cursors is not None:
        raise ValueError("epoch-wise fast draws are not defined for unified sampling")
    pool_k, slow_sizes, k_fast = share_sizes(n, profile)

    if mode == "uniform":
        shares = [rng_choose_without_replacement(stream, n, k) for k in slow_sizes]
    else:
        pool = rng_choose_without_replacement(stream, n, pool_k)
        selected = _top_loss_selection(ledger, pool, sum(slow_sizes), stream, cold_start)
        shares = [selected[i::p_s] for i in range(p_s)]

    if mode == "unified":
        in_slow = np.zeros(n, dtype=bool)
        in_slow[selected] = True
        remainder = np.flatnonzero(~in_slow)
        picked = rng_choose_without_replacement(stream, remainder.shape[0], k_fast * p_f)
        fast_indices = remainder[picked]
        shares += [fast_indices[j * k_fast:(j + 1) * k_fast] for j in range(p_f)]
    elif epoch_cursors is not None:
        shares += [epoch_cursors[j].take(k_fast) for j in range(p_f)]
    else:
        shares += [rng_choose_without_replacement(stream, n, k_fast) for _ in range(p_f)]
    return shares


def sample_separated(ledger: LossLedger, profile, stream: RngStream,
                     cold_start: str = "unseen-first",
                     epoch_cursors: list | None = None) -> list:
    """Slow workers split the top-loss pool members; fast workers draw freely."""
    return assign(ledger, replace(profile, sampler_mode="separated"), stream,
                  cold_start, epoch_cursors)


class EpochCursor:
    """Epoch-wise consumption of one worker's index permutation.

    Alternative to a fresh uniform draw each round: the worker walks a
    shuffled permutation of [0, N) and reshuffles when it runs out.
    """

    def __init__(self, n: int, stream: RngStream):
        self.n = n
        self.stream = stream
        self._perm = stream.permutation(n)
        self._pos = 0

    def take(self, k: int) -> np.ndarray:
        if k > self.n:
            raise ValueError(f"cannot take {k} distinct indices from {self.n}")
        avail = self.n - self._pos
        if k <= avail:
            out = self._perm[self._pos:self._pos + k]
            self._pos += k
            return out
        # cross an epoch boundary: finish this permutation, reshuffle, and
        # fill from the first entries of the fresh one not already taken
        head = self._perm[self._pos:]
        self._perm = self.stream.permutation(self.n)
        taken = np.zeros(self.n, dtype=bool)
        taken[head] = True
        picks = np.flatnonzero(~taken[self._perm])[:k - avail]
        self._pos = int(picks[-1]) + 1
        return np.concatenate([head, self._perm[picks]])


# ---------------------------------------------------------------------------
# Ledger updates
# ---------------------------------------------------------------------------

def record_losses(ledger: LossLedger, sample_ids, losses, round_idx: int) -> LossLedger:
    """Overwrite ledger entries with the newest observed losses.

    Duplicate ids within one call resolve to the *last* occurrence, so one
    call over several workers' observations concatenated in ascending
    worker id equals merging them one worker at a time in that order.
    """
    ids = np.asarray(sample_ids, dtype=np.int64)
    vals = np.asarray(losses, dtype=np.float64)
    if ids.shape != vals.shape:
        raise ValueError("sample_ids and losses disagree on length")
    if ids.ndim != 1:
        raise ValueError("sample_ids must be one-dimensional")
    if ids.size == 0:
        return ledger
    if ids.min() < 0 or ids.max() >= ledger.n:
        raise ValueError("sample id out of range")
    if not np.all(np.isfinite(vals)) or np.any(vals < 0):
        raise ValueError("losses must be finite and nonnegative")
    # keep the last write per id: the keys id * m + position are distinct,
    # so one unstable sort groups each id's writes in position order and
    # the end of each run is its last.  Keys stay below n * m < 2**63:
    # config.MAX_ELEMENTS (2**27) caps m, a round's padded batch ids, and a
    # synthetic n; a binary file's n is a u32, and a CSV file would need
    # 2**36 rows.
    m = ids.shape[0]
    sorted_ids, pos = np.divmod(np.sort(ids * m + np.arange(m)), m)
    last = np.append(sorted_ids[1:] != sorted_ids[:-1], True)
    ids = sorted_ids[last]
    ledger.last_loss[ids] = vals[pos[last]]
    ledger.last_round[ids] = round_idx
    return ledger


# ---------------------------------------------------------------------------
# Dataset construction and I/O
# ---------------------------------------------------------------------------

@dataclass
class SyntheticSpec:
    """Class-conditional Gaussian blobs with optional label noise.

    Class means sit on a circle of radius ``separation / 2`` in the first two
    feature dimensions (on a line for 1-D inputs); ``sigma`` scales an
    isotropic covariance.
    """

    n: int
    input_dim: int
    num_classes: int
    separation: float = 6.0
    sigma: float = 1.0
    label_noise: float = 0.0

    def class_means(self) -> np.ndarray:
        m = np.zeros((self.num_classes, self.input_dim))
        r = self.separation / 2.0
        angles = 2.0 * np.pi * np.arange(self.num_classes) / self.num_classes
        m[:, 0] = r * np.cos(angles)
        if self.input_dim > 1:
            m[:, 1] = r * np.sin(angles)
        return m


def make_synthetic(spec: SyntheticSpec, stream: RngStream) -> Dataset:
    if spec.n < spec.num_classes:
        raise ValueError("need at least one sample per class")
    means = spec.class_means()
    labels = np.arange(spec.n) % spec.num_classes
    # + 0.0 turns a sigma of -0.0, which numpy's normal rejects, into 0.0
    features = means[labels] + stream.normal(0.0, spec.sigma + 0.0, (spec.n, spec.input_dim))
    if spec.label_noise > 0:
        flip = stream.uniform(0.0, 1.0, spec.n) < spec.label_noise
        shift = stream.integers(1, spec.num_classes, size=spec.n)
        labels = np.where(flip, (labels + shift) % spec.num_classes, labels)
    return Dataset(features, labels, spec.num_classes)


def save_csv(dataset: Dataset, path: str) -> None:
    """Header ``label,f0,f1,...``; float features written in repr precision."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label"] + [f"f{i}" for i in range(dataset.input_dim)])
        for y, row in zip(dataset.labels, dataset.features):
            writer.writerow([int(y)] + [repr(float(v)) for v in row])


# how every CSV line is split: quoted fields, no comment character
_CSV_SYNTAX = dict(delimiter=",", comments=None, quotechar='"', ndmin=1)


class _CountedLines:
    """A text file's remaining lines, counted as ``np.loadtxt`` pulls them."""

    def __init__(self, fh):
        self.fh = fh
        self.count = 0

    def __iter__(self):
        for self.count, line in enumerate(self.fh, start=1):
            yield line


def _split_fields(line: str) -> list:
    """One CSV line's fields, split and unquoted as the data rows are."""
    if line == "\n":  # loadtxt would warn and return no fields
        return []
    return list(np.loadtxt([line], dtype=object, **_CSV_SYNTAX))


def _parse_rows(lines, row: np.dtype) -> np.ndarray:
    with warnings.catch_warnings():  # no rows at all is reported by the caller
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        return np.loadtxt(lines, dtype=row, **_CSV_SYNTAX)


def _raise_located(path: str, row: np.dtype) -> NoReturn:
    """Re-scan the data lines and raise the first one's error as ``path:line``.

    Runs only after the one-pass parse has failed or skipped a line, so a
    valid file never pays for it.
    """
    width = 1 + row["features"].shape[0]
    with open(path) as fh:
        fh.readline()
        for lineno, line in enumerate(fh, start=2):
            if len(_split_fields(line)) != width:
                raise ValueError(f"{path}:{lineno}: expected {width} fields")
            try:
                _parse_rows([line], row)
            except ValueError as exc:
                # numpy's own position counts rows of this one line
                raise ValueError(f"{path}:{lineno}: {str(exc).split(' at row ')[0]}") from None
    raise ValueError(f"{path}: data rows do not parse")


def _load_csv(path: str) -> Dataset:
    """Parse all data rows in one ``np.loadtxt`` pass: int64 label, f64 features.

    Every data line is one row: a blank line, a wrong field count or a field
    that does not parse is rejected as ``path:line``, found by re-scanning
    only after the parse fails.
    """
    with open(path) as fh:  # universal newlines: a line may end in \r\n or \r
        header = fh.readline()
        if not header:
            raise ValueError(f"{path}: empty dataset file")
        names = _split_fields(header)
        if not names or names[0] != "label":
            raise ValueError(f"{path}: expected header starting with 'label'")
        row = np.dtype([("label", np.int64), ("features", np.float64, (len(names) - 1,))])
        lines = _CountedLines(fh)
        try:
            table = _parse_rows(lines, row)
        except ValueError:
            table = None
    if table is None or table.shape[0] != lines.count:  # the parse skips blank lines
        _raise_located(path, row)
    if not lines.count:
        raise ValueError(f"{path}: no data rows")
    features = np.ascontiguousarray(table["features"])
    bad = np.flatnonzero(~np.isfinite(features).all(axis=1))
    if bad.size:
        raise ValueError(f"{path}:{int(bad[0]) + 2}: non-finite feature")
    labels = np.ascontiguousarray(table["label"])
    return _bounded(path, features, labels, int(labels.max()) + 1)


def _bounded(path: str, features: np.ndarray, labels: np.ndarray, num_classes: int) -> Dataset:
    """Both loaders' bounds on a parsed file, each error naming ``path``.

    The file needs a feature column, at least 2 classes, labels in
    ``[0, num_classes)`` and, as synthetic data does, no more classes than
    rows: the class count sizes the output layer, so this keeps the model
    about the size of the features.  Only a CSV can hold a negative label.
    """
    n, dim = features.shape
    if dim < 1:
        raise ValueError(f"{path}: no feature columns")
    negative = np.flatnonzero(labels < 0)
    if negative.size:
        raise ValueError(f"{path}:{int(negative[0]) + 2}: negative label")
    if num_classes < 2:
        raise ValueError(f"{path}: need at least 2 classes")
    if num_classes > n:
        raise ValueError(f"{path}: {n} rows cannot hold {num_classes} classes")
    if labels.max() >= num_classes:
        raise ValueError(f"{path}: label {labels.max()} out of range for {num_classes} classes")
    return Dataset(features, labels, num_classes)


def _load_binary(path: str) -> Dataset:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _BINARY_MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}, expected {_BINARY_MAGIC!r}")
        header = fh.read(12)
        if len(header) != 12:
            raise ValueError(f"{path}: truncated header")
        n, dim, classes = struct.unpack("<III", header)
        feat_bytes = fh.read(4 * n * dim)
        if len(feat_bytes) != 4 * n * dim:
            raise ValueError(f"{path}: truncated feature block")
        label_bytes = fh.read(4 * n)
        if len(label_bytes) != 4 * n:
            raise ValueError(f"{path}: truncated label block")
        feats = np.frombuffer(feat_bytes, dtype="<f4")
        labels = np.frombuffer(label_bytes, dtype="<u4")
    if not np.isfinite(feats).all():
        raise ValueError(f"{path}: non-finite feature")
    return _bounded(path, feats.astype(np.float64).reshape(n, dim),
                    labels.astype(np.int64), int(classes))


def load_dataset(path: str, format: str | None = None) -> Dataset:
    """Load a dataset file; format 'csv' or 'binary', sniffed when omitted."""
    if format is None:
        with open(path, "rb") as fh:
            format = "binary" if fh.read(4) == _BINARY_MAGIC else "csv"
    if format == "csv":
        return _load_csv(path)
    if format == "binary":
        return _load_binary(path)
    raise ValueError(f"unknown dataset format {format!r}")


def val_size(n: int, val_fraction: float) -> int:
    """Held-out rows of a dataset of ``n``: at least one, rounded half up."""
    return max(1, round_half_up(n * val_fraction))


def train_val_split(dataset: Dataset, val_fraction: float, stream: RngStream):
    """Random held-out split; returns (train, val) datasets."""
    if not 0.0 < val_fraction < 1.0:
        raise ValueError("val_fraction must be in (0, 1)")
    n_val = val_size(dataset.n, val_fraction)
    if n_val >= dataset.n:
        raise ValueError("validation split leaves no training data")
    perm = stream.permutation(dataset.n)
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    train = Dataset(dataset.features[train_idx], dataset.labels[train_idx], dataset.num_classes)
    val = Dataset(dataset.features[val_idx], dataset.labels[val_idx], dataset.num_classes)
    return train, val

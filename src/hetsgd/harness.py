"""Experiment orchestration: the communication-round driver and metrics.

The run plan that ``config.validate`` returns fixes the algorithm's workers,
sampler mode and aggregation rule once, and its worker-id order (slow first)
is the one order of a round from sampler to ledger.  A run trains its seeds
in lockstep, ``config.seed_group`` consecutive seeds at a time, and a
``_Group`` built once per group holds their state: one ``(seeds, n_params)``
model stack, a loss ledger per seed, the samplers and cursors, the rows'
taus, streams and row maps, the validation stack and the records.  One round
is a fixed sequence of this module's global calls: ``assign`` draws each
seed's sample assignment (loss-biased or uniform) at the share sizes
``data.share_sizes`` gave once per run; ``train_round`` runs every (seed,
worker) row's local updates; ``record_losses`` merges each seed's losses
into its own ledger in worker-id order; one ``aggregate`` call combines
every seed's local models; ``stacked_hits`` scores the model stack; and a
``RoundRecord`` per seed takes the learning rate and simulated clock that
``per_round`` also gave once per run.  Sampling and the ledger merge stay
per seed, in seed order; training, aggregation and evaluation take the
whole group in one call each, and compute each seed's bits alone, so each
seed computes the bits of a run of that seed alone.

The stack's rows are seed-major, each seed's in worker-id order, and
``train_round`` steps them in a tau order of its own.  A seed's training
rows are addressed through a row map into one feature source, never
copied: a data file, or the group's synthetic datasets stored one after
another.  Only the validation rows are copied, into one ``(seeds, rows, input_dim)``
stack.  The last dataset built stays in memory, read-only, until another is run;
so does the last group's layout on it, its row maps, validation stack and
``n_train``, until another layout is built.  Synthetic data is keyed by its spec
and seeds, a file by its stat fingerprint alone.  A file's dataset is kept only
if the file is settled (on POSIX, its inode unchanged for 2 s before the parse
began) and its fingerprint held through the parse; a run that finds it again
reads nothing, and any other file is parsed on every run.  Each :func:`run`
checks a file once against the plan with ``config.check_data``, and every seed
shares it read-only.

A run stops at its first divergence: a training row turns non-finite, or
a seed's training loss or aggregate overflows.  A group of several seeds
that diverges is trained again, with the rest of the run, one seed at a
time, so the run raises the error a seed-by-seed run raises: ``seed s
round r``, then the worker and step or what overflowed.  A
``DivergenceError`` carries the rounds finished before it, in output
order.  Only a diverging run pays for the rerun.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, fields
from importlib import resources

import numpy as np

from .aggregation import aggregate
from .config import (ExperimentConfig, RunPlan, check_data, config_hash, model_spec, per_round,
                     seed_group, validate)
from .core import (STREAM_CURSOR_BASE, STREAM_DATA, STREAM_INIT, STREAM_SAMPLER, STREAM_SPLIT,
                   STREAM_WORKER_BASE, RngStream)
from .data import (Dataset, EpochCursor, LossLedger, assign, make_synthetic, load_dataset,
                   record_losses, share_sizes, split_rows, SyntheticSpec, val_size)
from .models import init_params, stacked_hits
from .workers import DivergenceError, train_round

__all__ = ["RoundRecord", "SeedResult", "RunResult", "run", "render_csv",
           "write_outputs", "write_partial", "bundled_config_path", "CSV_HEADER"]


@dataclass
class RoundRecord:
    seed: int
    round: int
    epoch: int
    lr: float
    train_loss: float
    val_acc: float
    sim_wall_s: float  # cumulative simulated wall clock
    sim_block_s: float  # cumulative blocking, summed over workers
    agg_count: int
    grad_steps: int  # cumulative gradient steps across all workers


CSV_HEADER = ",".join(f.name for f in fields(RoundRecord))


@dataclass
class SeedResult:
    seed: int
    records: list
    final_params: np.ndarray

    @property
    def final_acc(self) -> float:
        return self.records[-1].val_acc


@dataclass
class RunResult:
    config: ExperimentConfig
    per_seed: list  # SeedResult, in config seed order
    summary: dict


# the last dataset a run used, read-only: {key: Dataset}, keyed by (repr of a
# SyntheticSpec, seeds) or by a settled file's (data.format, st_dev, st_ino,
# st_size, st_mtime_ns, st_ctime_ns)
_DATASET_CACHE = {}
_LAYOUT_CACHE = {}  # the last layout built: {(id of the dataset, n, val_fraction, seeds): layout}
# a file changed this recently is not cached: a write in the same ctime tick would not show
_SETTLE_NS = 2 * 10**9


def _cached(key, build, keep=lambda: True) -> Dataset:
    """The dataset cached under ``key``, else ``build()``'s, read-only and kept if ``keep()``."""
    if key in _DATASET_CACHE:
        return _DATASET_CACHE[key]
    _DATASET_CACHE.clear()  # never two datasets held at once, nor a layout beside a new one
    _LAYOUT_CACHE.clear()
    dataset = build()
    dataset.features.flags.writeable = False
    dataset.labels.flags.writeable = False
    if keep():
        _DATASET_CACHE[key] = dataset
    return dataset


def _load_file(cfg: ExperimentConfig) -> Dataset:
    """The config's data file, read-only: every seed of a run shares it.

    A settled file is cached under its stat fingerprint and not parsed again
    while the fingerprint holds; it is kept only if a stat after the parse
    still reads that fingerprint.  Any other file is parsed on every run.
    """
    def fingerprint():
        st = os.stat(cfg.data_path)
        return (cfg.data_format, st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns)

    key = fingerprint()
    # POSIX's st_ctime is the inode change time; Windows' is the creation time
    settled = os.name == "posix" and time.time_ns() - key[-1] >= _SETTLE_NS
    return _cached(key, lambda: load_dataset(cfg.data_path, cfg.data_format or None),
                   lambda: settled and fingerprint() == key)


def _synthesize(cfg: ExperimentConfig, seeds) -> Dataset:
    """The seeds' synthetic datasets, read-only, drawn unless the last dataset built was theirs.

    The spec is keyed by its repr, in which 0.0 and -0.0 differ.
    """
    spec = SyntheticSpec(n=cfg.data_n, input_dim=cfg.data_input_dim,
                         num_classes=cfg.data_classes, separation=cfg.data_separation,
                         sigma=cfg.data_sigma, label_noise=cfg.data_label_noise)
    return _cached((repr(spec), tuple(seeds)), lambda: _draw(spec, seeds))


def _draw(spec: SyntheticSpec, seeds) -> Dataset:
    """The seeds' datasets one after another: seed k's rows start at k x data.n."""
    if len(seeds) == 1:
        return make_synthetic(spec, RngStream(seeds[0], STREAM_DATA))
    n = spec.n
    features = np.empty((len(seeds) * n, spec.input_dim))
    labels = np.empty(len(seeds) * n, dtype=np.int64)
    for k, seed in enumerate(seeds):  # one seed's dataset at a time besides the stack
        part = make_synthetic(spec, RngStream(seed, STREAM_DATA))
        features[k * n:(k + 1) * n] = part.features
        labels[k * n:(k + 1) * n] = part.labels
    return Dataset(features, labels, spec.num_classes)


def _layout(dataset: Dataset, n: int, val_fraction: float, seeds: tuple) -> tuple:
    """The seeds' ``(row maps, val_x, val_y, n_train)``, read-only, kept while ``dataset`` is."""
    if (key := (id(dataset), n, val_fraction, seeds)) not in _LAYOUT_CACHE:
        _LAYOUT_CACHE.clear()  # never two layouts held at once
        stride = n if dataset.n > n else 0  # the seeds' own datasets, one after another
        splits = [split_rows(n, val_fraction, RngStream(seed, STREAM_SPLIT)) for seed in seeds]
        maps = tuple(train + k * stride for k, (_, train) in enumerate(splits))
        val_rows = np.stack([val + k * stride for k, (val, _) in enumerate(splits)])
        layout = (maps, dataset.features[val_rows], dataset.labels[val_rows], maps[0].shape[0])
        for array in (*maps, *layout[1:3]):
            array.flags.writeable = False
        if not any(cached is dataset for cached in _DATASET_CACHE.values()):
            return layout
        _LAYOUT_CACHE[key] = layout
    return _LAYOUT_CACHE[key]


class _Group:
    """A seed group's state, built once: ``seeds`` trained in lockstep on ``dataset``.

    ``params[k]`` is seed k's model and ``ledgers[k]`` its loss ledger.  The rows of a
    ``train_round`` call are seed-major: row k x P + i is worker i of seed k, with tau
    ``taus[row]``, stream ``streams[row]`` and ``maps[row]``, seed k's one map of its training
    rows into the feature source, shared by all of that seed's rows.  The maps, ``val_x``,
    ``val_y`` and ``n_train`` are the cached layout's; the rest is the run's own.
    """

    def __init__(self, cfg: ExperimentConfig, run_plan: RunPlan, seeds: tuple,
                 dataset: Dataset | None, n: int):
        dataset = self.dataset = _synthesize(cfg, seeds) if dataset is None else dataset
        self.spec = model_spec(cfg, dataset.input_dim, dataset.num_classes)
        maps, self.val_x, self.val_y, self.n_train = _layout(dataset, n, cfg.val_fraction, seeds)
        self.ledgers = [LossLedger(self.n_train) for _ in seeds]
        self.params = np.stack([init_params(self.spec, RngStream(seed, STREAM_INIT))
                                for seed in seeds])
        self.samplers = [RngStream(seed, STREAM_SAMPLER) for seed in seeds]
        self.cursors = [None] * len(seeds)
        if run_plan.fast_draw == "epoch":
            self.cursors = [[EpochCursor(self.n_train, RngStream(seed, STREAM_CURSOR_BASE + j))
                             for j in range(run_plan.profile.p_f)] for seed in seeds]
        self.taus = [w.tau for w in run_plan.workers] * len(seeds)
        self.streams = [RngStream(seed, STREAM_WORKER_BASE + w.id)
                        for seed in seeds for w in run_plan.workers]
        self.maps = [row_map for row_map in maps for _ in run_plan.workers]
        self.records = [[] for _ in seeds]


def _run_seeds(cfg: ExperimentConfig, run_plan: RunPlan, seeds: tuple, dataset: Dataset | None,
               n: int, rounds: tuple, sizes: tuple) -> list:
    """Train ``seeds`` in lockstep on ``dataset`` (synthesized from them when None).

    ``n`` is the rows of one seed's data; ``rounds`` and ``sizes`` are the
    run's ``per_round`` columns as lists and ``share_sizes``.  Returns one
    SeedResult per seed, in order.  Raises ``DivergenceError`` at the first
    divergence; for one seed it is the error the module docstring describes.
    """
    g = _Group(cfg, run_plan, seeds, dataset, n)
    p = len(run_plan.workers)
    own = [slice(k * p, (k + 1) * p) for k in range(len(seeds))]  # each seed's rows
    lrs, walls, blocks = rounds
    rounds_per_epoch = run_plan.rounds_per_epoch(g.n_train)
    for r, lr in enumerate(lrs):
        shares = [assign(ledger, run_plan.profile, sizes, sampler, run_plan.cold_start, cursors)
                  for ledger, sampler, cursors in zip(g.ledgers, g.samplers, g.cursors)]
        try:
            models, seen_ids, seen_losses, _ = train_round(
                g.spec, np.repeat(g.params, p, axis=0), g.dataset,
                [share for seed_shares in shares for share in seed_shares], g.taus, lr,
                run_plan.batch_size, g.streams, cfg.weight_decay, g.maps)
        except DivergenceError as exc:  # in a one-seed stack, row i is worker i
            raise DivergenceError(f"seed {seeds[0]} round {r} {exc}", g.records[0]) from None
        del shares  # not held beside the next round's
        # each seed's ids in worker-id order: for each id the last write is
        # the highest worker id's, as when merging the workers one at a time
        for ledger, rows in zip(g.ledgers, own):
            record_losses(ledger, np.concatenate(seen_ids[rows]),
                          np.concatenate(seen_losses[rows]), r)
        seen = [sum(row.shape[0] for row in seen_ids[rows]) for rows in own]
        # per-sample losses are finite, but their sum can overflow
        with np.errstate(over="ignore"):
            loss_sums = [sum(float(row.sum()) for row in seen_losses[rows]) for rows in own]
        try:  # finite local models can still overflow their combination
            g.params = aggregate(run_plan.aggregation,
                                 models.reshape(len(seeds), p, -1).swapaxes(0, 1),
                                 g.taus[:p], round_start=g.params)
        except ValueError as exc:  # run reruns a group of several seeds seed by seed
            raise DivergenceError(f"seed {seeds[0]} round {r}: {exc}", g.records[0]) from None
        if not all(map(math.isfinite, loss_sums)):
            raise DivergenceError(f"seed {seeds[0]} round {r}: training loss overflows",
                                  g.records[0])
        hits = stacked_hits(g.spec, g.params, g.val_x, g.val_y)
        for seed, records, count, loss_sum, hit in zip(seeds, g.records, seen, loss_sums, hits):
            records.append(RoundRecord(
                seed=seed,
                round=r,
                epoch=r // rounds_per_epoch,
                lr=lr,
                train_loss=loss_sum / count,
                val_acc=hit / g.val_y.shape[1],
                sim_wall_s=walls[r],
                sim_block_s=blocks[r],
                agg_count=r + 1,
                grad_steps=(r + 1) * run_plan.steps_per_round,
            ))
    return [SeedResult(seed=seed, records=records, final_params=params)
            for seed, records, params in zip(seeds, g.records, g.params)]


def run(cfg: ExperimentConfig) -> RunResult:
    """Execute the experiment for every configured seed."""
    run_plan = validate(cfg)  # checks synthetic data against the plan
    dataset = None
    if cfg.data_source == "file":
        dataset = _load_file(cfg)
        check_data(cfg, run_plan, dataset.n, dataset.input_dim, dataset.num_classes,
                   f"{cfg.data_path}: ")
        n, input_dim, num_classes = dataset.n, dataset.input_dim, dataset.num_classes
    else:
        n, input_dim, num_classes = cfg.data_n, cfg.data_input_dim, cfg.data_classes
    n_train = n - val_size(n, cfg.val_fraction)
    # Python floats: a np.float64 would render as np.float64(...) in metrics.csv
    rounds = tuple(column.tolist() for column in per_round(cfg, run_plan, n_train))
    sizes = share_sizes(n_train, run_plan.profile)
    group = seed_group(cfg, run_plan, n, input_dim, num_classes)
    per_seed = []
    while len(per_seed) < len(cfg.seeds):
        seeds = cfg.seeds[len(per_seed):len(per_seed) + group]
        try:
            per_seed += _run_seeds(cfg, run_plan, seeds, dataset, n, rounds, sizes)
        except DivergenceError as exc:
            if len(seeds) == 1:
                exc.records = [rec for sr in per_seed for rec in sr.records] + exc.records
                raise
            group = 1  # rerun seed by seed for the error a lone seed raises
    finals = [sr.final_acc for sr in per_seed]
    summary = {
        "config_hash": config_hash(cfg),
        "algorithm": cfg.algorithm,
        "final_acc_mean": float(np.mean(finals)),
        "final_acc_spread": (max(finals) - min(finals)) / 2.0,
        "total_sim_wall_s": per_seed[0].records[-1].sim_wall_s,
        "total_agg_count": per_seed[0].records[-1].agg_count,
    }
    if len(finals) >= 3:
        summary["final_acc_std"] = float(np.std(finals))
    return RunResult(config=cfg, per_seed=per_seed, summary=summary)


def _render_records(records) -> str:
    # str of a Python or numpy int or float is its shortest round-trip text
    lines = [CSV_HEADER, *(",".join(map(str, vars(rec).values())) for rec in records)]
    return "\n".join(lines) + "\n"


def render_csv(result: RunResult) -> str:
    """Deterministic CSV text: one row per (seed, round)."""
    return _render_records(rec for sr in result.per_seed for rec in sr.records)


def _write_text(out_dir: str, name: str, text: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", newline="") as fh:
        fh.write(text)
    return path


def write_outputs(result: RunResult, out_dir: str) -> tuple:
    """Write metrics.csv and summary.json under out_dir; returns their paths."""
    csv_path = _write_text(out_dir, "metrics.csv", render_csv(result))
    summary = json.dumps(result.summary, indent=2, sort_keys=True) + "\n"
    return csv_path, _write_text(out_dir, "summary.json", summary)


def write_partial(records: list, out_dir: str) -> str | None:
    """Write metrics.csv for the rounds a failed run finished; returns its path.

    The rows are the prefix a completed run would have written.  The
    outputs of an earlier run in out_dir are removed first: there is no
    summary, and with no rows nothing is written and None is returned.
    """
    for name in ("metrics.csv", "summary.json"):
        stale = os.path.join(out_dir, name)
        if os.path.exists(stale):
            os.remove(stale)
    return _write_text(out_dir, "metrics.csv", _render_records(records)) if records else None


def bundled_config_path(name: str) -> str:
    """Filesystem path of a bundled config ('demo' or 'hard')."""
    ref = resources.files("hetsgd") / "configs" / f"{name}.cfg"
    return str(ref)

"""Experiment orchestration: the communication-round driver and metrics.

The run plan that ``config.validate`` returns fixes the algorithm's workers,
sampler mode and aggregation rule once, and its worker-id order (slow first)
is the one order of a round from sampler to ledger.  One round: snapshot the
global model, draw each worker's sample assignment (loss-biased or uniform),
run every worker's local updates in one lockstep ``workers.train_round``
call, merge all observed losses into the ledger with one ``record_losses``
call over them concatenated in worker-id order, aggregate the local models,
and advance the simulated clock.  A training error is re-raised, with its
type, with the seed and round in front of the worker and step; a
``DivergenceError`` also carries the rounds finished before it.

A data file is read once per :func:`run` and shared, read-only, by every
seed; synthetic data is drawn per seed.

Stream-id allotment per seed: 11 data synthesis, 12 validation split,
13 model init, 20 sampler, 40+j fast-worker epoch cursors, 1000+id workers.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .aggregation import aggregate
from .config import (ExperimentConfig, RunPlan, check_model_size, check_shares, config_hash,
                     model_spec, validate)
from .core import RngStream
from .data import (Dataset, EpochCursor, LossLedger, assign, make_synthetic, load_dataset,
                   record_losses, SyntheticSpec, train_val_split)
from .models import Batch, accuracy, init_params
from .simclock import round_timing
from .workers import DivergenceError, LrSchedule, lr_at, train_round

__all__ = ["RoundRecord", "SeedResult", "RunResult", "run", "render_csv",
           "write_outputs", "write_partial", "bundled_config_path", "CSV_HEADER"]

STREAM_DATA = 11
STREAM_SPLIT = 12
STREAM_INIT = 13
STREAM_SAMPLER = 20
STREAM_CURSOR_BASE = 40
STREAM_WORKER_BASE = 1000

CSV_HEADER = "seed,round,epoch,lr,train_loss,val_acc,sim_wall_s,sim_block_s,agg_count,grad_steps"


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


def _load_file(cfg: ExperimentConfig) -> Dataset:
    """The config's data file, read-only: every seed of a run shares it."""
    dataset = load_dataset(cfg.data_path, cfg.data_format or None)
    dataset.features.flags.writeable = False
    dataset.labels.flags.writeable = False
    return dataset


def _synthesize(cfg: ExperimentConfig, seed: int) -> Dataset:
    spec = SyntheticSpec(n=cfg.data_n, input_dim=cfg.data_input_dim,
                         num_classes=cfg.data_classes, separation=cfg.data_separation,
                         sigma=cfg.data_sigma, label_noise=cfg.data_label_noise)
    return make_synthetic(spec, RngStream(seed, STREAM_DATA))


def _run_seed(cfg: ExperimentConfig, run_plan: RunPlan, seed: int,
              dataset: Dataset | None, finished: list) -> SeedResult:
    """One seed on ``dataset`` (synthesized from the seed when None).

    Appends each round's record to ``finished`` as the round completes.
    """
    if dataset is None:
        dataset = _synthesize(cfg, seed)
    train, val = train_val_split(dataset, cfg.val_fraction, RngStream(seed, STREAM_SPLIT))
    # validate() could only check synthetic data; a loaded file is checked here
    check_shares(run_plan, train.n)
    spec = model_spec(cfg, train.input_dim, train.num_classes)
    check_model_size(cfg, spec, dataset.n,
                     f"{cfg.data_path}: " if cfg.data_source == "file" else "")
    params = init_params(spec, RngStream(seed, STREAM_INIT))
    val_batch = Batch(val.features, val.labels, np.arange(val.n))

    workers = run_plan.workers
    taus = [w.tau for w in workers]
    ledger = LossLedger(train.n)
    sampler_stream = RngStream(seed, STREAM_SAMPLER)
    worker_streams = [RngStream(seed, STREAM_WORKER_BASE + w.id) for w in workers]
    cursors = None
    if run_plan.fast_draw == "epoch":
        cursors = [EpochCursor(train.n, RngStream(seed, STREAM_CURSOR_BASE + j))
                   for j in range(run_plan.profile.p_f)]

    total_rounds = run_plan.total_rounds(train.n)
    schedule = LrSchedule(cfg.schedule_kind, cfg.base_lr, cfg.milestones, cfg.decay,
                          total_rounds)
    rounds_per_epoch = run_plan.rounds_per_epoch(train.n)
    timing = round_timing(workers, run_plan.cost)  # identical every round

    start = len(finished)
    wall = 0.0
    blocked = 0.0
    steps_done = 0
    for r in range(total_rounds):
        lr = lr_at(schedule, r)
        assignment = assign(ledger, run_plan.profile, sampler_stream,
                            run_plan.cold_start, cursors)
        try:
            models, seen_ids, seen_losses, steps = train_round(
                spec, params, train, assignment, taus, lr, run_plan.batch_size,
                worker_streams, cfg.weight_decay)
        except ValueError as exc:
            raise type(exc)(f"seed {seed} round {r} {exc}") from None
        # concatenated in worker-id order, the last write per sample is the
        # highest id's, as when merging the workers one at a time
        losses = np.concatenate(seen_losses)
        record_losses(ledger, np.concatenate(seen_ids), losses, r)
        train_loss = sum(float(w.sum()) for w in seen_losses) / losses.shape[0]
        steps_done += steps
        params = aggregate(run_plan.aggregation, models, taus, round_start=params)

        wall += timing.round_wall
        blocked += float(timing.blocking_time.sum())
        finished.append(RoundRecord(
            seed=seed,
            round=r,
            epoch=r // rounds_per_epoch,
            lr=lr,
            train_loss=train_loss,
            val_acc=accuracy(spec, params, [val_batch]),
            sim_wall_s=wall,
            sim_block_s=blocked,
            agg_count=r + 1,
            grad_steps=steps_done,
        ))
    expected = total_rounds * run_plan.steps_per_round
    if steps_done != expected:
        raise RuntimeError(f"seed {seed}: expected {expected} gradient steps, "
                           f"counted {steps_done}")
    return SeedResult(seed=seed, records=finished[start:], final_params=params)


def run(cfg: ExperimentConfig) -> RunResult:
    """Execute the experiment for every configured seed."""
    run_plan = validate(cfg)
    dataset = _load_file(cfg) if cfg.data_source == "file" else None
    finished = []
    try:
        per_seed = [_run_seed(cfg, run_plan, s, dataset, finished) for s in cfg.seeds]
    except DivergenceError as exc:
        exc.records = finished
        raise
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
    lines = [CSV_HEADER]
    for rec in records:
        lines.append(",".join([
            str(rec.seed), str(rec.round), str(rec.epoch), repr(rec.lr),
            repr(rec.train_loss), repr(rec.val_acc), repr(rec.sim_wall_s),
            repr(rec.sim_block_s), str(rec.agg_count), str(rec.grad_steps),
        ]))
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


def write_partial(records: list, out_dir: str) -> str:
    """Write metrics.csv for the rounds a failed run finished; returns its path.

    The rows are the prefix a completed run would have written.  A
    summary.json left from an earlier run is removed: there is no summary.
    """
    path = _write_text(out_dir, "metrics.csv", _render_records(records))
    stale = os.path.join(out_dir, "summary.json")
    if os.path.exists(stale):
        os.remove(stale)
    return path


def bundled_config_path(name: str) -> str:
    """Filesystem path of a bundled config ('demo' or 'hard')."""
    ref = resources.files("hetsgd") / "configs" / f"{name}.cfg"
    return str(ref)

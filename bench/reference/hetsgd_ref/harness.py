"""Experiment orchestration: the communication-round driver and metrics.

One round: snapshot the global model, draw each worker's sample assignment
(loss-biased or uniform), run every worker's local updates, merge observed
losses into the ledger in ascending worker-id order, aggregate the local
models, and advance the simulated clock.  Workers may execute on a thread
pool (capped by the ``HSGD_THREADS`` environment variable; 0 or unset means
serial) — results are merged in worker-id order either way, so serial and
parallel runs produce byte-identical metrics.

Stream-id allotment per seed: 11 data synthesis, 12 validation split,
13 model init, 20 sampler, 40+j fast-worker epoch cursors, 1000+id workers.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .aggregation import aggregate
from .config import ExperimentConfig, config_hash, validate
from .core import RngStream
from .data import (Dataset, EpochCursor, LossLedger, make_synthetic, load_dataset,
                   record_losses, sample_separated, sample_unified, sample_uniform,
                   SyntheticSpec, train_val_split)
from .models import Batch, ModelSpec, accuracy, init_params
from .simclock import CostModel, round_timing
from .workers import WorkerSpec, local_train, LrSchedule, lr_at

__all__ = ["RoundRecord", "SeedResult", "RunResult", "run", "render_csv",
           "write_outputs", "bundled_config_path", "CSV_HEADER"]

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


def _model_spec(cfg: ExperimentConfig, input_dim: int, num_classes: int) -> ModelSpec:
    hidden = cfg.model_hidden if cfg.model_kind == "mlp2" else 0
    return ModelSpec(cfg.model_kind, input_dim, num_classes, hidden)


def _load_data(cfg: ExperimentConfig, seed: int) -> Dataset:
    if cfg.data_source == "file":
        return load_dataset(cfg.data_path, cfg.data_format or None)
    spec = SyntheticSpec(n=cfg.data_n, input_dim=cfg.data_input_dim,
                         num_classes=cfg.data_classes, separation=cfg.data_separation,
                         sigma=cfg.data_sigma, label_noise=cfg.data_label_noise)
    return make_synthetic(spec, RngStream(seed, STREAM_DATA))


def _build_workers(cfg: ExperimentConfig, cost: CostModel) -> list:
    eff = cfg.effective()
    tau_s, tau_f = cfg.tau_slow(), cfg.tau_fast()
    workers = []
    for i in range(eff.p_s):
        workers.append(WorkerSpec(i, "slow", tau_s, cost.iter_cost_slow, cfg.batch_size))
    for j in range(eff.p_f):
        workers.append(WorkerSpec(eff.p_s + j, "fast", tau_f, cost.iter_cost_fast,
                                  cfg.batch_size))
    return workers


def _schedule(cfg: ExperimentConfig, total_rounds: int) -> LrSchedule:
    return LrSchedule(kind=cfg.schedule_kind, base_lr=cfg.base_lr,
                      milestones=cfg.milestones, decay=cfg.decay,
                      total_rounds=total_rounds)


def _executor_threads() -> int:
    raw = os.environ.get("HSGD_THREADS", "0")
    try:
        return max(0, int(raw))
    except ValueError:
        return 0


def _run_seed(cfg: ExperimentConfig, seed: int) -> SeedResult:
    eff = cfg.effective()
    dataset = _load_data(cfg, seed)
    train, val = train_val_split(dataset, cfg.val_fraction, RngStream(seed, STREAM_SPLIT))
    spec = _model_spec(cfg, train.input_dim, train.num_classes)
    params = init_params(spec, RngStream(seed, STREAM_INIT))
    val_batch = Batch(val.features, val.labels, np.arange(val.n))

    cost = CostModel(cfg.cost_iter_fast, cfg.cost_iter_slow, cfg.cost_agg)
    workers = _build_workers(cfg, cost)
    profile = cfg.profile()
    ledger = LossLedger(train.n)
    sampler_stream = RngStream(seed, STREAM_SAMPLER)
    worker_streams = {w.id: RngStream(seed, STREAM_WORKER_BASE + w.id) for w in workers}
    cursors = None
    if eff.fast_draw == "epoch":
        cursors = [EpochCursor(train.n, RngStream(seed, STREAM_CURSOR_BASE + j))
                   for j in range(eff.p_f)]

    total_rounds = cfg.total_rounds(train.n)
    schedule = _schedule(cfg, total_rounds)
    rounds_per_epoch = cfg.rounds_per_epoch(train.n)
    steps_per_round = cfg.steps_per_round()
    timing = round_timing(workers, cost)  # identical every round
    threads = _executor_threads()

    records = []
    wall = 0.0
    blocked = 0.0
    steps_done = 0
    for r in range(total_rounds):
        lr = lr_at(schedule, r)
        if eff.sampler_mode == "separated":
            assignment = sample_separated(ledger, profile, sampler_stream,
                                          cold_start=eff.cold_start,
                                          epoch_cursors=cursors)
        elif eff.sampler_mode == "unified":
            assignment = sample_unified(ledger, profile, sampler_stream,
                                        cold_start=eff.cold_start)
        else:
            assignment = sample_uniform(ledger, profile, sampler_stream,
                                        epoch_cursors=cursors)

        def train_one(w):
            return local_train(spec, params, train, assignment[w.id], w.tau, lr,
                               w.batch_size, worker_streams[w.id], cfg.weight_decay)

        if threads > 0:
            with ThreadPoolExecutor(max_workers=min(threads, len(workers))) as pool:
                results = list(pool.map(train_one, workers))
        else:
            results = [train_one(w) for w in workers]

        # merge in ascending worker id: workers list is already id-ordered
        loss_sum = 0.0
        loss_count = 0
        for w, (_, ids, losses, steps) in zip(workers, results):
            record_losses(ledger, ids, losses, r)
            loss_sum += float(losses.sum())
            loss_count += losses.shape[0]
            steps_done += steps

        models = [res[0] for res in results]
        taus = [w.tau for w in workers]
        params = aggregate(eff.aggregation, models, taus, round_start=params)

        wall += timing.round_wall
        blocked += float(timing.blocking_time.sum())
        records.append(RoundRecord(
            seed=seed,
            round=r,
            epoch=r // rounds_per_epoch,
            lr=lr,
            train_loss=loss_sum / loss_count,
            val_acc=accuracy(spec, params, [val_batch]),
            sim_wall_s=wall,
            sim_block_s=blocked,
            agg_count=r + 1,
            grad_steps=steps_done,
        ))
    assert steps_done == total_rounds * steps_per_round  # update-count accounting
    return SeedResult(seed=seed, records=records, final_params=params)


def run(cfg: ExperimentConfig) -> RunResult:
    """Execute the experiment for every configured seed."""
    validate(cfg)
    per_seed = [_run_seed(cfg, s) for s in cfg.seeds]
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


def render_csv(result: RunResult) -> str:
    """Deterministic CSV text: one row per (seed, round)."""
    lines = [CSV_HEADER]
    for sr in result.per_seed:
        for rec in sr.records:
            lines.append(",".join([
                str(rec.seed), str(rec.round), str(rec.epoch), repr(rec.lr),
                repr(rec.train_loss), repr(rec.val_acc), repr(rec.sim_wall_s),
                repr(rec.sim_block_s), str(rec.agg_count), str(rec.grad_steps),
            ]))
    return "\n".join(lines) + "\n"


def write_outputs(result: RunResult, out_dir: str) -> tuple:
    """Write metrics.csv and summary.json under out_dir; returns their paths."""
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "metrics.csv")
    json_path = os.path.join(out_dir, "summary.json")
    with open(csv_path, "w", newline="") as fh:
        fh.write(render_csv(result))
    with open(json_path, "w") as fh:
        json.dump(result.summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return csv_path, json_path


def bundled_config_path(name: str) -> str:
    """Filesystem path of a bundled config ('demo' or 'hard')."""
    ref = resources.files("hetsgd") / "configs" / f"{name}.cfg"
    return str(ref)

"""Workload inputs, the measured op, and the checks on its output.

Why each workload exists (see README.md for the metric contract):

- ``bundled``: demo.cfg then hard.cfg as shipped; the real traffic, where
  per-call Python overhead dominates.
- ``wide``: mlp2 at P=8; compute-bound local SGD and evaluation.
- ``sync``: synchronous SGD over 16 workers; tiny steps, many workers, so
  sampling, permutation and ledger merges dominate.
- ``csv``: hard.cfg on a generated CSV; the only workload that parses a file.

An op is ``harness.run(cfg)`` plus ``write_outputs`` for each of the
workload's configs.  Inputs depend only on the workload and the seed: the
seed picks one of ``INPUT_SEEDS`` input sets, each with a recorded
metrics.csv sha256 in expected_hashes.json.  ``bundled`` runs the shipped
configs unchanged, so every seed gives it the same input.
"""

from __future__ import annotations

import csv
import hashlib
import importlib
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference"
WORK = ROOT / ".bench_out"
EXPECTED = BENCH / "expected_hashes.json"

WORKLOADS = ("bundled", "wide", "sync", "csv")
INPUT_SEEDS = 16
CSV_ROWS, CSV_DIM = 50_000, 16


class MissingProgram(RuntimeError):
    """The checkout holds no hetsgd sources to measure."""


def load_hetsgd():
    """Import hetsgd from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "hetsgd" / "__init__.py").is_file():
        raise MissingProgram(f"no hetsgd sources under {SRC}")
    sys.path.insert(0, str(SRC))
    hetsgd = importlib.import_module("hetsgd")
    if Path(hetsgd.__file__).resolve().parent != SRC / "hetsgd":
        raise MissingProgram(f"imported hetsgd from {hetsgd.__file__}, not {SRC}")
    return hetsgd


def load_reference():
    """Import the frozen timing reference, ``reference/hetsgd_ref``.

    It is hetsgd's library modules as of the commit that added the benchmark,
    unchanged but for the package name (``cli`` and the bundled configs are
    left out).  Later changes to ``src`` do not reach it, so timing it beside
    the program measures the host's speed at that moment.
    """
    sys.path.insert(0, str(REFERENCE))
    ref = importlib.import_module("hetsgd_ref")
    if Path(ref.__file__).resolve().parent != REFERENCE / "hetsgd_ref":
        raise MissingProgram(f"imported hetsgd_ref from {ref.__file__}, not {REFERENCE}")
    return ref


def input_seed(workload: str, seed: int) -> int:
    return 0 if workload == "bundled" else seed % INPUT_SEEDS


def work_dir(workload: str) -> Path:
    path = WORK / workload
    path.mkdir(parents=True, exist_ok=True)
    return path


def prepare(hetsgd, workload: str, seed: int) -> list:
    """Write the workload's inputs for ``seed``; returns its config paths."""
    if workload == "bundled":
        return [Path(hetsgd.harness.bundled_config_path(n)) for n in ("demo", "hard")]
    s = input_seed(workload, seed)
    work = work_dir(workload)
    if workload == "csv":
        data_path = work / "data.csv"
        spec = hetsgd.data.SyntheticSpec(n=CSV_ROWS, input_dim=CSV_DIM, num_classes=2,
                                         separation=3.0, label_noise=0.10)
        hetsgd.data.save_csv(hetsgd.data.make_synthetic(spec, hetsgd.core.RngStream(s)),
                             str(data_path))
        extra = f"data.path = {data_path}\n"
    else:
        extra = f"seeds = {s}\n"
    cfg_path = work / f"{workload}.cfg"
    cfg_path.write_text((BENCH / "configs" / f"{workload}.cfg").read_text() + extra)
    return [cfg_path]


def out_dirs(workload: str, cfg_paths, tag: str) -> list:
    return [work_dir(workload) / tag / p.stem for p in cfg_paths]


def op(hetsgd, cfgs, outs):
    """The measured op.  Names are looked up at call time so tracing sees them."""
    for cfg, out in zip(cfgs, outs):
        hetsgd.harness.write_outputs(hetsgd.harness.run(cfg), str(out))


def parse(hetsgd, cfg_paths):
    return [hetsgd.config.parse_config_file(str(p)) for p in cfg_paths]


def setup(hetsgd, cfg_paths):
    """Everything before training: validated configs and built splits."""
    splits = []
    for path in cfg_paths:
        cfg = hetsgd.config.parse_config_file(str(path))
        hetsgd.config.validate(cfg)
        if cfg.data_source == "file":
            dataset = hetsgd.data.load_dataset(cfg.data_path, cfg.data_format or None)
        else:
            spec = hetsgd.data.SyntheticSpec(
                n=cfg.data_n, input_dim=cfg.data_input_dim, num_classes=cfg.data_classes,
                separation=cfg.data_separation, sigma=cfg.data_sigma,
                label_noise=cfg.data_label_noise)
            dataset = hetsgd.data.make_synthetic(spec, hetsgd.core.RngStream(cfg.seeds[0]))
        splits.append(hetsgd.data.train_val_split(dataset, cfg.val_fraction,
                                                  hetsgd.core.RngStream(cfg.seeds[0], 1)))
    return splits


def output_hashes(outs) -> list:
    return [hashlib.sha256((o / "metrics.csv").read_bytes()).hexdigest() for o in outs]


def expected_hashes(workload: str, seed: int) -> list:
    table = json.loads(EXPECTED.read_text())
    return table[workload][str(input_seed(workload, seed))]


def outcomes(cfgs, outs) -> dict:
    """Simulated results per config and seed, and the op's work totals.

    Read from each metrics.csv: its last row per seed, its row count
    (rounds x seeds) and that count times the config's worker count P.
    A perf-only change leaves every value here identical.
    """
    per_seed, steps, rounds, merges = [], 0, 0, 0
    for cfg, out in zip(cfgs, outs):
        workers = cfg.p_s + cfg.p_f
        with (out / "metrics.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        rounds += len(rows)
        merges += len(rows) * workers
        for row in {row["seed"]: row for row in rows}.values():
            wall, block = float(row["sim_wall_s"]), float(row["sim_block_s"])
            steps += int(row["grad_steps"])
            per_seed.append({
                "config": out.name, "seed": int(row["seed"]),
                "val_acc": float(row["val_acc"]), "sim_wall_s": wall,
                "block_share": block / (workers * wall)})
    return {"per_seed": per_seed, "grad_steps": steps, "rounds": rounds,
            "ledger_merges": merges}

"""Host-time benchmark for hetsgd.

    python3 bench/run.py --workload {bundled,wide,sync,csv} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; hetsgd is imported from its ``src``.
``--trace 0`` measures the end-to-end metrics (run_s, steps_per_s, setup_s,
peak_rss_mb, with error_rate = failed / attempted); ``--trace 1`` measures
the per-layer metrics from spans recorded around the calls into each
module.  Every op's metrics.csv is checked against its recorded sha256.
The host's speed drifts, so with ``--trace 0`` each op and each fresh
setup runs between two runs of a frozen copy of the program
(``reference/hetsgd_ref``) and is reported as its ratio to them.
Human-readable lines come first; the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Details, the machine
context and the spans go under ``.bench_out/<workload>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

import spans
import workloads
from stats import Tally, paired_ratios, tail_percentile

PINNED_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
SETUP_REPEATS = 3
# Median wall seconds of the reference's op and setup on a quiet 2-vCPU Xeon
# host (Python 3.11.7, numpy 2.4.6, OpenBLAS 0.3.31): the scale that turns
# program / reference ratios back into seconds.
REFERENCE_S = {  # workload: (op, setup)
    "bundled": (0.125, 0.165),
    "wide": (1.30, 0.225),
    "sync": (0.95, 0.225),
    "csv": (2.30, 1.05),
}
CHILD_TIMEOUT_S = 120

E2E_UNITS = {"run_s": "s", "steps_per_s": "steps/s", "setup_s": "s", "peak_rss_mb": "MiB"}

# per-layer metric -> (layer, field of spans.layer_totals, unit)
LAYER_METRICS = {
    "core.rng_choose.calls": ("core.rng_choose", "calls", "count"),
    "core.rng_choose.items": ("core.rng_choose", "count", "count"),
    "core.rng_choose.self_s": ("core.rng_choose", "self_s", "s"),
    "data.load.rows": ("data.load", "count", "count"),
    "data.load.self_s": ("data.load", "self_s", "s"),
    "data.synth.self_s": ("data.synth", "self_s", "s"),
    "data.split.self_s": ("data.split", "self_s", "s"),
    "data.sample.calls": ("data.sample", "calls", "count"),
    "data.sample.self_s": ("data.sample", "self_s", "s"),
    "data.ledger_merge.calls": ("data.ledger_merge", "calls", "count"),
    "data.ledger_merge.self_s": ("data.ledger_merge", "self_s", "s"),
    "workers.local_train.calls": ("workers.local_train", "calls", "count"),
    "workers.local_train.self_s": ("workers.local_train", "self_s", "s"),
    "models.loss_and_grad.calls": ("models.loss_and_grad", "calls", "count"),
    "models.loss_and_grad.self_s": ("models.loss_and_grad", "self_s", "s"),
    "models.batch.calls": ("models.batch", "calls", "count"),
    "models.batch.self_s": ("models.batch", "self_s", "s"),
    "models.accuracy.calls": ("models.accuracy", "calls", "count"),
    "models.accuracy.rows": ("models.accuracy", "count", "count"),
    "models.accuracy.self_s": ("models.accuracy", "self_s", "s"),
    "aggregation.aggregate.calls": ("aggregation.aggregate", "calls", "count"),
    "aggregation.aggregate.bytes": ("aggregation.aggregate", "count", "B"),
    "aggregation.aggregate.self_s": ("aggregation.aggregate", "self_s", "s"),
    "simclock.round_timing.calls": ("simclock.round_timing", "calls", "count"),
    "simclock.round_timing.self_s": ("simclock.round_timing", "self_s", "s"),
    "config.parse.self_s": ("config.parse", "self_s", "s"),
    "config.validate.self_s": ("config.validate", "self_s", "s"),
    "harness.run.self_s": ("harness.run", "self_s", "s"),
    "harness.output.self_s": ("harness.output", "self_s", "s"),
}
UNITS = {**E2E_UNITS, **{name: unit for name, (_, _, unit) in LAYER_METRICS.items()},
         "workers.step_us": "us", "models.loss_and_grad.us": "us",
         "trace.overhead": "fraction", "trace.unhooked": "count",
         "trace.reconcile_failures": "count"}


def pin_threads():
    os.environ.update(PINNED_THREADS)
    os.environ.pop("HSGD_THREADS", None)


def git_state():
    if not (workloads.ROOT / ".git").exists():
        return {"commit": None, "dirty": None}
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=workloads.ROOT,
                              capture_output=True, text=True, timeout=30)
        status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                cwd=workloads.ROOT, capture_output=True, text=True,
                                timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return {"commit": None, "dirty": None}
    if head.returncode != 0:
        return {"commit": None, "dirty": None}
    return {"commit": head.stdout.strip(), "dirty": bool(status.stdout.strip())}


def machine_context():
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "thread_caps": {k: os.environ.get(k) for k in PINNED_THREADS},
        "HSGD_THREADS": os.environ.get("HSGD_THREADS", "unset"),
        "git": git_state(),
    }


def run_child(mode, workload, cfg_paths):
    proc = subprocess.run(
        [sys.executable, str(workloads.BENCH / "child.py"), mode, workload,
         *map(str, cfg_paths)],
        cwd=workloads.ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"child {mode} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Reference:
    """The frozen reference copy, timed between the program's ops."""

    def __init__(self, workload, cfg_paths):
        self.hetsgd = workloads.load_reference()
        self.cfgs = workloads.parse(self.hetsgd, cfg_paths)
        self.outs = workloads.out_dirs(workload, cfg_paths, "ref")

    def op(self):
        start = perf_counter()
        workloads.op(self.hetsgd, self.cfgs, self.outs)
        return perf_counter() - start


class Bench:
    """One workload at one seed: its inputs, expected bytes and op tally."""

    def __init__(self, hetsgd, workload, seed):
        self.hetsgd = hetsgd
        self.workload = workload
        self.cfg_paths = workloads.prepare(hetsgd, workload, seed)
        self.expected = workloads.expected_hashes(workload, seed)
        self.outs = workloads.out_dirs(workload, self.cfg_paths, "op")
        self.tally = Tally()

    def op(self, cfgs=None):
        """One checked op; returns its host seconds, or None if it raised.

        With ``cfgs`` None the op parses the config files itself, as the
        traced op does, so config.parse gets spans.
        """
        start = perf_counter()
        try:
            workloads.op(self.hetsgd, cfgs or workloads.parse(self.hetsgd, self.cfg_paths),
                         self.outs)
        except Exception as exc:  # a raising op is a failed op; the run goes on
            self.tally.check(None, self.expected, error=f"{type(exc).__name__}: {exc}")
            return None
        elapsed = perf_counter() - start
        self.tally.check(workloads.output_hashes(self.outs), self.expected)
        return elapsed

    def outcomes(self):
        return workloads.outcomes(workloads.parse(self.hetsgd, self.cfg_paths), self.outs)


def run_setups(bench):
    """Fresh-interpreter setups of the program, each between two of the reference."""
    setups, refs = [], [run_child("ref-setup", bench.workload, bench.cfg_paths)["setup_s"]]
    for _ in range(SETUP_REPEATS):
        setups.append(run_child("setup", bench.workload, bench.cfg_paths)["setup_s"])
        refs.append(run_child("ref-setup", bench.workload, bench.cfg_paths)["setup_s"])
    return setups, refs


def measure_end_to_end(bench, seconds):
    """Time ops of the program, each between two ops of the frozen reference.

    ``run_s`` and ``setup_s`` are the median ratio of program to reference
    times, in seconds of the reference on a quiet host (``REFERENCE_S``).
    """
    setups, ref_setups = run_setups(bench)
    try:  # the fresh-process op is checked like any other
        child = run_child("op", bench.workload, bench.cfg_paths)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        bench.tally.check(None, bench.expected, error=str(exc))
        peak_rss_mb = 0.0
    else:
        bench.tally.check(child["hashes"], bench.expected)
        peak_rss_mb = child["maxrss_kb"] / 1024.0

    cfgs = workloads.parse(bench.hetsgd, bench.cfg_paths)
    ref = Reference(bench.workload, bench.cfg_paths)
    bench.op(cfgs)  # warm-up
    times, refs = [], [ref.op()]
    deadline = perf_counter() + seconds
    while True:
        times.append(bench.op(cfgs))
        refs.append(ref.op())
        if perf_counter() >= deadline:
            break
    op_s, ref_setup_s = REFERENCE_S[bench.workload]
    samples = [op_s * r for r in paired_ratios(times, refs)]
    setup_samples = [ref_setup_s * r for r in paired_ratios(setups, ref_setups)]
    work = bench.outcomes()
    run_s = statistics.median(samples) if samples else 0.0
    walls = [t for t in times if t is not None]
    metrics = {
        "run_s": run_s,
        "steps_per_s": work["grad_steps"] / run_s if run_s else 0.0,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": peak_rss_mb,
    }
    detail = {"run_s_n": len(samples), "run_s_tail": tail_percentile(samples),
              "run_s_samples": samples, "setup_s_samples": setup_samples,
              "op_wall_s": walls, "ref_op_wall_s": refs,
              "setup_wall_s": setups, "ref_setup_wall_s": ref_setups,
              "grad_steps_per_op": work["grad_steps"]}
    return metrics, detail, work


def reconcile(bench, totals, work, missing):
    """Trace totals against metrics.csv, and layers that never fired."""
    checks = {
        "models.loss_and_grad.calls = sum of grad_steps":
            (totals["models.loss_and_grad"]["calls"], work["grad_steps"]),
        "aggregation.aggregate.calls = rounds x seeds":
            (totals["aggregation.aggregate"]["calls"], work["rounds"]),
        "data.ledger_merge.calls = rounds x P x seeds":
            (totals["data.ledger_merge"]["calls"], work["ledger_merges"]),
    }
    idle = "data.synth" if bench.workload == "csv" else "data.load"
    unhooked = sorted(set(missing) | {layer for layer in spans.LAYERS
                                      if layer != idle and totals[layer]["calls"] == 0})
    failures = [name for name, (got, want) in checks.items() if got != want]
    return {"checks": {k: {"traced": g, "expected": w} for k, (g, w) in checks.items()},
            "failures": failures, "unhooked": unhooked}


def measure_per_layer(bench, seconds, spans_path):
    """Alternate untraced and traced ops; per-layer values are medians per op."""
    bench.op()  # warm-up
    plain, traced, per_op, spans_by_op, missing = [], [], [], [], []
    deadline = perf_counter() + seconds
    pair = 0
    while True:
        for with_trace in ((False, True) if pair % 2 == 0 else (True, False)):
            if not with_trace:
                elapsed = bench.op()
                if elapsed is not None:
                    plain.append(elapsed)
                continue
            tracer = spans.Tracer()
            with spans.hooked(tracer) as missing:
                elapsed = bench.op()
            if elapsed is not None:
                traced.append(elapsed)
                per_op.append(spans.layer_totals(tracer.spans))
                spans_by_op.append(tracer.spans)
        pair += 1
        if perf_counter() >= deadline:
            break
    spans.write_spans(spans_by_op, spans_path)
    work = bench.outcomes()
    if not (per_op and plain):
        return {}, {"reconcile": None}, work

    def med(layer, field):
        # counts repeat exactly between ops; median_low keeps them whole numbers
        pick = statistics.median if field.endswith("_s") else statistics.median_low
        return pick(t[layer][field] for t in per_op)

    metrics = {name: med(layer, field) for name, (layer, field, _) in LAYER_METRICS.items()}
    steps = med("workers.local_train", "count")
    lg_calls = metrics["models.loss_and_grad.calls"]
    metrics["workers.step_us"] = (1e6 * med("workers.local_train", "incl_s") / steps
                                  if steps else 0.0)
    metrics["models.loss_and_grad.us"] = (1e6 * med("models.loss_and_grad", "incl_s")
                                          / lg_calls if lg_calls else 0.0)
    metrics["trace.overhead"] = statistics.median(traced) / statistics.median(plain) - 1
    recon = reconcile(bench, per_op[-1], work, missing)
    metrics["trace.unhooked"] = len(recon["unhooked"])
    metrics["trace.reconcile_failures"] = len(recon["failures"])
    return metrics, {"traced_ops": len(traced), "untraced_ops": len(plain),
                     "reconcile": recon}, work


def report(bench, args, context, metrics, detail, work):
    print(f"workload {args.workload}  seed {args.seed} (input set "
          f"{workloads.input_seed(args.workload, args.seed)})  {args.seconds} s  "
          f"trace {args.trace}")
    git = context["git"]
    print(f"machine  nproc={context['nproc']} python={context['python']} "
          f"numpy={context['numpy']} blas={context['blas']} "
          + " ".join(f"{k}={v}" for k, v in context["thread_caps"].items())
          + f" HSGD_THREADS={context['HSGD_THREADS']} git={git['commit']}"
          + (" (dirty)" if git["dirty"] else ""))
    for name, value in metrics.items():
        note = ""
        if name == "run_s":
            tail = detail["run_s_tail"]
            note = f"median of n={detail['run_s_n']}; " + (
                f"p{tail[0]} {tail[1]:.6f} s ({tail[2]} beyond)" if tail
                else "no tail percentile (needs >= 11 samples)") + (
                f"; raw wall median {statistics.median(detail['op_wall_s']):.6f} s, "
                f"reference {statistics.median(detail['ref_op_wall_s']):.6f} s"
                if detail["op_wall_s"] else "")
        elif name == "steps_per_s":
            note = f"{detail['grad_steps_per_op']} grad steps per op / median run_s"
        elif name == "setup_s":
            note = (f"median of n={len(detail['setup_s_samples'])} fresh interpreters; "
                    f"raw median {statistics.median(detail['setup_wall_s']):.6f} s, "
                    f"reference {statistics.median(detail['ref_setup_wall_s']):.6f} s")
        elif name == "peak_rss_mb":
            note = "ru_maxrss of a fresh process running one op"
        shown = f"{value:14d}" if isinstance(value, int) else f"{value:14.6g}"
        print(f"  {name:30s} {shown} {UNITS[name]:9s} {note}")
    print(f"  {'error_rate':30s} {bench.tally.error_rate:14.6g} {'fraction':9s} "
          f"{bench.tally.failed} failed / {bench.tally.attempted} attempted")
    for reason in list(dict.fromkeys(bench.tally.reasons))[:5]:
        print(f"  failed op: {reason}")
    recon = detail.get("reconcile")
    if recon:
        for check, v in recon["checks"].items():
            status = "ok" if v["traced"] == v["expected"] else "MISMATCH"
            print(f"  reconcile {check}: {v['traced']} vs {v['expected']} {status}")
        print(f"  unhooked layers: {', '.join(recon['unhooked']) or 'none'}")
    print("  simulated (must not move):  config seed val_acc sim_wall_s block_share")
    for row in work["per_seed"]:
        print(f"    {row['config']} {row['seed']} {row['val_acc']!r} {row['sim_wall_s']!r} "
              f"{row['block_share']!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_threads()
    try:
        hetsgd = workloads.load_hetsgd()
    except workloads.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    context = machine_context()
    bench = Bench(hetsgd, args.workload, args.seed)
    base = workloads.work_dir(args.workload)
    if args.trace:
        metrics, detail, work = measure_per_layer(bench, args.seconds,
                                                  base / f"spans-seed{args.seed}.csv")
    else:
        metrics, detail, work = measure_end_to_end(bench, args.seconds)
    report(bench, args, context, metrics, detail, work)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "context": context, "metrics": metrics,
              "detail": detail, "simulated": work, "attempted": bench.tally.attempted,
              "failed": bench.tally.failed, "failures": bench.tally.reasons}
    (base / f"result-trace{args.trace}-seed{args.seed}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    print(json.dumps({
        "correct": bench.tally.failed == 0 and bool(metrics),
        "attempted": bench.tally.attempted,
        "failed": bench.tally.failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands:
  run <config>           train per the config, write metrics.csv + summary.json
  sweep-lambda <config>  rerun across pool-scale values; oversize cells -> NA,
                         diverged cells -> diverged
  timing <config>        per-worker compute/blocking breakdown for one round
  validate <config>      check a config and exit
  gradcheck              analytic-vs-finite-difference gradient audit

Any validation failure exits nonzero after printing one machine-readable
line to stderr: ``error: <code>: <detail>``.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from .config import ConfigError, parse_config_file, validate
from .core import RngStream
from .data import InvalidLambdaError
from .harness import run, write_outputs, write_partial
from .models import Batch, ModelSpec, backward, finite_diff_grad, param_count, relu_crossing_mask
from .simclock import round_timing
from .workers import DivergenceError


def _fail(code: str, detail: str) -> int:
    print(f"error: {code}: {detail}", file=sys.stderr)
    return 2


def _load(path: str, args):
    cfg = parse_config_file(path)
    if args.seed is not None:
        cfg = replace(cfg, seeds=(args.seed,))
    if args.out:
        cfg = replace(cfg, out=args.out)
    return cfg


def _cmd_run(args) -> int:
    cfg = _load(args.config, args)
    out_dir = cfg.out or "out"
    try:
        result = run(cfg)
    except DivergenceError as exc:
        # keep the finished rounds; main prints the one error line
        if exc.records:
            write_partial(exc.records, out_dir)
        raise
    csv_path, json_path = write_outputs(result, out_dir)
    if not args.quiet:
        s = result.summary
        print(f"algorithm={s['algorithm']} final_acc={s['final_acc_mean']:.4f}"
              f"±{s['final_acc_spread']:.4f} sim_wall_s={s['total_sim_wall_s']:.1f}"
              f" agg_count={s['total_agg_count']}")
        print(f"wrote {csv_path} and {json_path}")
    return 0


def _cmd_sweep_lambda(args) -> int:
    cfg = _load(args.config, args)
    rows = ["lambda,status,final_acc_mean,final_acc_spread,total_sim_wall_s"]
    for lam in args.lambdas:
        sweep_cfg = replace(cfg, lam=lam)
        try:
            result = run(sweep_cfg)
        except InvalidLambdaError:
            # file-backed datasets reveal their size only at run time
            rows.append(f"{lam:g},NA,NA,NA,NA")
            continue
        except DivergenceError:
            rows.append(f"{lam:g},diverged,NA,NA,NA")
            continue
        s = result.summary
        rows.append(f"{lam:g},ok,{s['final_acc_mean']:.6f},"
                    f"{s['final_acc_spread']:.6f},{s['total_sim_wall_s']:.3f}")
    text = "\n".join(rows) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        if not args.quiet:
            print(f"wrote {args.out}")
    else:
        print(text, end="")
    return 0


def _cmd_timing(args) -> int:
    cfg = _load(args.config, args)
    run_plan = validate(cfg)
    timing = round_timing(run_plan.workers, run_plan.cost)
    rows = ["worker,role,tau,iter_cost_s,compute_s,block_s,round_wall_s,agg_cost_s"]
    for w, comp, block in zip(run_plan.workers, timing.compute_time, timing.blocking_time):
        rows.append(f"{w.id},{w.role},{w.tau},{w.iter_cost:g},{comp:.6f},{block:.6f},"
                    f"{timing.round_wall:.6f},{run_plan.cost.agg_cost:g}")
    text = "\n".join(rows) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return 0


def _cmd_validate(args) -> int:
    cfg = _load(args.config, args)
    validate(cfg)
    if not args.quiet:
        print(f"{args.config}: ok")
    return 0


def _cmd_gradcheck(args) -> int:
    rng = RngStream(args.seed if args.seed is not None else 0, 99)
    worst = 0.0
    for trial in range(args.trials):
        if trial % 2 == 0:
            spec = ModelSpec("logistic_regression", 4, 3)
        else:
            spec = ModelSpec("mlp2", 3, 3, hidden_dim=4)
        params = rng.normal(0.0, 1.0, param_count(spec))
        feats = rng.normal(0.0, 1.0, (6, spec.input_dim))
        labels = rng.integers(0, spec.num_classes, size=6)
        batch = Batch(feats, labels, np.arange(6))
        h = 1e-5
        analytic = backward(spec, params, batch)
        numeric = finite_diff_grad(spec, params, batch, h)
        keep = ~relu_crossing_mask(spec, params, batch, h)
        denom = np.maximum(np.abs(analytic[keep]), 1e-8)
        rel = float(np.max(np.abs(analytic[keep] - numeric[keep]) / denom))
        worst = max(worst, rel)
    ok = worst < 1e-4
    if not args.quiet:
        print(f"gradcheck: {args.trials} trials, max relative error {worst:.3e} "
              f"-> {'ok' if ok else 'FAIL'}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="override the config's seed list with one seed")
    common.add_argument("--out", default="", help="override the output path")
    common.add_argument("--quiet", action="store_true")

    parser = argparse.ArgumentParser(prog="hetsgd")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", parents=[common], help="run an experiment config")
    p.add_argument("config")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep-lambda", parents=[common],
                       help="rerun a config across pool scales")
    p.add_argument("config")
    p.add_argument("--lambdas", type=float, nargs="+", required=True)
    p.set_defaults(func=_cmd_sweep_lambda)

    p = sub.add_parser("timing", parents=[common],
                       help="per-worker round timing breakdown")
    p.add_argument("config")
    p.set_defaults(func=_cmd_timing)

    p = sub.add_parser("validate", parents=[common], help="validate a config file")
    p.add_argument("config")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("gradcheck", parents=[common], help="gradient oracle audit")
    p.add_argument("--trials", type=int, default=100)
    p.set_defaults(func=_cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        return _fail("invalid-config", str(exc))
    except InvalidLambdaError as exc:
        return _fail("lambda-too-large", str(exc))
    except FileNotFoundError as exc:
        return _fail("missing-file", str(exc))
    except ValueError as exc:
        return _fail("invalid-value", str(exc))


if __name__ == "__main__":
    sys.exit(main())

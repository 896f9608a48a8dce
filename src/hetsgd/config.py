"""Experiment configuration: flat ``key = value`` files and validation.

The on-disk format is deliberately primitive — one dotted key per line,
``#`` comments, comma-separated lists — so configs diff cleanly and parse
with zero dependencies.  ``plan()`` resolves the algorithm preset (sync SGD
forces tau=1 and balanced averaging, etc.) into a :class:`RunPlan`, the one
place the four algorithms differ; ``validate()`` rejects impossible profiles,
including the pool-size check for lam, and returns the plan a run executes.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields, replace

from .aggregation import RULES
from .data import InvalidLambdaError, share_sizes, val_size
from .simclock import CostModel
from .workers import SAMPLER_MODES, SystemProfile, WorkerSpec

__all__ = ["ExperimentConfig", "ConfigError", "RunPlan", "plan", "check_shares",
           "parse_config", "parse_config_file", "render_config", "config_hash", "ALGORITHMS"]

ALGORITHMS = ("sync_sgd", "balanced_local", "unbalanced_unbiased", "biased_local")


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    # data source: synthetic blobs or a dataset file
    data_source: str = "synthetic"  # synthetic | file
    data_path: str = ""
    data_format: str = ""  # csv | binary | "" (sniff)
    data_n: int = 1000
    data_input_dim: int = 2
    data_classes: int = 2
    data_separation: float = 6.0
    data_sigma: float = 1.0
    data_label_noise: float = 0.0

    model_kind: str = "logistic_regression"
    model_hidden: int = 8

    algorithm: str = "biased_local"
    aggregation: str = "tau_weighted"

    alpha: float = 2.0
    lam: float = 2.0
    tau_f: int = 32
    p_s: int = 1
    p_f: int = 1
    sampler_mode: str = "separated"
    fast_draw: str = "fresh"  # fresh | epoch
    cold_start: str = "unseen-first"  # unseen-first | uniform-first

    schedule_kind: str = "constant"
    base_lr: float = 0.1
    milestones: tuple = ()
    decay: float = 0.1

    batch_size: int = 32
    rounds: int = 20
    epochs: int = 0  # alternative to rounds; converted via RunPlan.rounds_per_epoch
    weight_decay: float = 0.0
    val_fraction: float = 0.2
    seeds: tuple = (0,)

    cost_iter_fast: float = 0.1940
    cost_iter_slow: float = 6.5230
    cost_agg: float = 0.0

    out: str = ""


# ---------------------------------------------------------------------------
# algorithm presets and the resolved run plan
# ---------------------------------------------------------------------------

# Settings each algorithm overrides; everything else comes from the config.
# ``alpha`` here is the share ratio, and tau_S is derived from it and tau_F.
#   sync_sgd: one update per round per worker, aggregation every round,
#     uniform sampling, balanced averaging, homogeneous shares.
#   balanced_local: equal update counts, uniform sampling, balanced
#     averaging, homogeneous shares.
#   unbalanced_unbiased: system-aware taus but no bias anywhere.
#   biased_local: system-aware taus, loss-biased sampling, configured rule.
_PRESETS = {
    "sync_sgd": dict(alpha=1.0, tau_f=1, sampler_mode="uniform", aggregation="balanced"),
    "balanced_local": dict(alpha=1.0, sampler_mode="uniform", aggregation="balanced"),
    "unbalanced_unbiased": dict(sampler_mode="uniform", aggregation="balanced"),
    "biased_local": dict(),
}


@dataclass(frozen=True)
class RunPlan:
    """What one run executes, with the algorithm preset already applied."""

    profile: SystemProfile  # share alpha, tau_f / tau_s, lam, sampler mode
    aggregation: str
    cold_start: str
    fast_draw: str
    cost: CostModel
    workers: tuple  # WorkerSpec: slow then fast, in ascending id
    batch_size: int
    rounds: int
    epochs: int

    @property
    def steps_per_round(self) -> int:
        return sum(w.tau for w in self.workers)

    def rounds_per_epoch(self, n_train: int) -> int:
        consumed = self.steps_per_round * self.batch_size
        return max(1, -(-n_train // consumed))

    def total_rounds(self, n_train: int) -> int:
        if self.epochs > 0:
            return self.epochs * self.rounds_per_epoch(n_train)
        return self.rounds


def plan(cfg: ExperimentConfig) -> RunPlan:
    """Resolve the config's algorithm preset; expects a config ``validate`` accepts."""
    eff = replace(cfg, **_PRESETS[cfg.algorithm])
    profile = SystemProfile(alpha=eff.alpha, p_s=eff.p_s, p_f=eff.p_f, lam=eff.lam,
                            tau_f=eff.tau_f, sampler_mode=eff.sampler_mode)
    cost = CostModel(eff.cost_iter_fast, eff.cost_iter_slow, eff.cost_agg)
    slow = [WorkerSpec(i, "slow", profile.tau_s, cost.iter_cost_slow, eff.batch_size)
            for i in range(eff.p_s)]
    fast = [WorkerSpec(eff.p_s + j, "fast", profile.tau_f, cost.iter_cost_fast, eff.batch_size)
            for j in range(eff.p_f)]
    return RunPlan(profile, eff.aggregation, eff.cold_start, eff.fast_draw, cost,
                   tuple(slow + fast), eff.batch_size, eff.rounds, eff.epochs)


# ---------------------------------------------------------------------------
# key = value parsing
# ---------------------------------------------------------------------------

_KEY_MAP = {
    "data.source": ("data_source", str),
    "data.path": ("data_path", str),
    "data.format": ("data_format", str),
    "data.n": ("data_n", int),
    "data.input_dim": ("data_input_dim", int),
    "data.classes": ("data_classes", int),
    "data.separation": ("data_separation", float),
    "data.sigma": ("data_sigma", float),
    "data.label_noise": ("data_label_noise", float),
    "model.kind": ("model_kind", str),
    "model.hidden": ("model_hidden", int),
    "algorithm": ("algorithm", str),
    "aggregation": ("aggregation", str),
    "profile.alpha": ("alpha", float),
    "profile.lambda": ("lam", float),
    "profile.tau_f": ("tau_f", int),
    "profile.p_s": ("p_s", int),
    "profile.p_f": ("p_f", int),
    "profile.sampler_mode": ("sampler_mode", str),
    "sampling.fast_draw": ("fast_draw", str),
    "sampling.cold_start": ("cold_start", str),
    "schedule.kind": ("schedule_kind", str),
    "schedule.base_lr": ("base_lr", float),
    "schedule.milestones": ("milestones", "int_list"),
    "schedule.decay": ("decay", float),
    "batch_size": ("batch_size", int),
    "rounds": ("rounds", int),
    "epochs": ("epochs", int),
    "weight_decay": ("weight_decay", float),
    "val_fraction": ("val_fraction", float),
    "seeds": ("seeds", "int_list"),
    "cost.iter_fast": ("cost_iter_fast", float),
    "cost.iter_slow": ("cost_iter_slow", float),
    "cost.agg": ("cost_agg", float),
    "out": ("out", str),
}

_FIELD_TO_KEY = {attr: key for key, (attr, _) in _KEY_MAP.items()}


def parse_config(text: str, source: str = "<string>") -> ExperimentConfig:
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _KEY_MAP:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        attr, kind = _KEY_MAP[key]
        if attr in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        try:
            if kind is int:
                values[attr] = int(val)
            elif kind is float:
                values[attr] = float(val)
            elif kind == "int_list":
                values[attr] = tuple(int(v) for v in val.split(",") if v.strip())
            else:
                values[attr] = val
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {key}: {exc}") from None
    return ExperimentConfig(**values)


def parse_config_file(path: str) -> ExperimentConfig:
    with open(path) as fh:
        return parse_config(fh.read(), source=path)


def render_config(cfg: ExperimentConfig) -> str:
    """Canonical serialization: every key, sorted, one per line."""
    lines = []
    for f in fields(cfg):
        key = _FIELD_TO_KEY[f.name]
        val = getattr(cfg, f.name)
        if isinstance(val, tuple):
            val = ",".join(str(v) for v in val)
        lines.append(f"{key} = {val}")
    return "\n".join(sorted(lines)) + "\n"


def config_hash(cfg: ExperimentConfig) -> str:
    """Experiment identity: hash of the canonical text minus the output path."""
    lines = [l for l in render_config(cfg).splitlines() if not l.startswith("out =")]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def validate(cfg: ExperimentConfig) -> RunPlan:
    """Raise on any impossible or inconsistent setting; return the run's plan.

    ConfigError for general problems; InvalidLambdaError specifically when
    the candidate pool would exceed the dataset (the sweep's NA condition).
    """
    for key, (attr, kind) in _KEY_MAP.items():
        if kind is float and not math.isfinite(getattr(cfg, attr)):
            raise ConfigError(f"{key} must be finite")
    if cfg.algorithm not in ALGORITHMS:
        raise ConfigError(f"unknown algorithm {cfg.algorithm!r}")
    if cfg.aggregation not in RULES:
        raise ConfigError(f"unknown aggregation rule {cfg.aggregation!r}")
    if cfg.sampler_mode not in SAMPLER_MODES:
        raise ConfigError(f"unknown sampler_mode {cfg.sampler_mode!r}")
    if cfg.algorithm == "biased_local" and cfg.sampler_mode == "uniform":
        raise ConfigError("biased_local requires sampler_mode separated or unified")
    if cfg.fast_draw not in ("fresh", "epoch"):
        raise ConfigError("sampling.fast_draw must be fresh or epoch")
    if cfg.cold_start not in ("unseen-first", "uniform-first"):
        raise ConfigError("sampling.cold_start must be unseen-first or uniform-first")
    if cfg.data_source not in ("synthetic", "file"):
        raise ConfigError("data.source must be synthetic or file")
    if cfg.data_source == "file" and not cfg.data_path:
        raise ConfigError("data.path required when data.source = file")
    if cfg.data_source == "synthetic" and cfg.data_classes < 2:
        raise ConfigError("data.classes must be >= 2")
    if cfg.model_kind not in ("logistic_regression", "mlp2"):
        raise ConfigError(f"unknown model kind {cfg.model_kind!r}")
    if cfg.model_kind == "mlp2" and cfg.model_hidden < 1:
        raise ConfigError("model.hidden must be >= 1 for mlp2")
    if not cfg.seeds:
        raise ConfigError("need at least one seed")
    if cfg.rounds < 1 and cfg.epochs < 1:
        raise ConfigError("need rounds >= 1 or epochs >= 1")
    if cfg.batch_size < 1:
        raise ConfigError("batch_size must be >= 1")
    if cfg.base_lr <= 0:
        raise ConfigError("schedule.base_lr must be > 0")
    if cfg.weight_decay < 0:
        raise ConfigError("weight_decay must be >= 0")
    if not 0.0 < cfg.val_fraction < 1.0:
        raise ConfigError("val_fraction must be in (0, 1)")
    if cfg.alpha < 1:
        raise ConfigError("profile.alpha must be >= 1")
    if cfg.lam < 1:
        raise ConfigError("profile.lambda must be >= 1")
    if cfg.tau_f < 1:
        raise ConfigError("profile.tau_f must be >= 1")
    if cfg.p_s < 1 or cfg.p_f < 1:
        raise ConfigError("need profile.p_s >= 1 and profile.p_f >= 1")
    if cfg.cost_iter_fast <= 0 or cfg.cost_iter_slow <= 0:
        raise ConfigError("iteration costs must be positive")
    if cfg.cost_iter_slow < cfg.cost_iter_fast:
        raise ConfigError("cost.iter_slow must be >= cost.iter_fast")
    if cfg.cost_agg < 0:
        raise ConfigError("cost.agg must be >= 0")

    run_plan = plan(cfg)
    # the preset's sampler, not the configured one: sync_sgd always samples uniformly
    if run_plan.fast_draw == "epoch" and run_plan.profile.sampler_mode == "unified":
        raise ConfigError("epoch-wise fast draws are not defined for unified sampling")
    # a file-backed dataset is checked by run() once it is loaded
    if cfg.data_source == "synthetic":
        check_shares(run_plan, cfg.data_n - val_size(cfg.data_n, cfg.val_fraction))
    return run_plan


def check_shares(run_plan: RunPlan, n_train: int) -> None:
    """Raise unless a training split of ``n_train`` feeds every worker each round.

    The rule is ``data.share_sizes``, the one the sampler applies; its
    errors become ConfigErrors, except that InvalidLambdaError propagates
    untouched so sweeps can mark NA cells.
    """
    try:
        share_sizes(n_train, run_plan.profile)
    except InvalidLambdaError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

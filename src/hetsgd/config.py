"""Experiment configuration: flat ``key = value`` files and validation.

The on-disk format is deliberately primitive — one dotted key per line,
``#`` comments, comma-separated lists — so configs diff cleanly and parse
with zero dependencies.  Each key is declared once, in ``_KEYS``: its
field, its parser and its valid values.  ``plan()`` resolves the algorithm
preset (sync SGD forces tau=1 and balanced averaging, etc.) into a
:class:`RunPlan`, the one place the four algorithms differ; ``validate()``
checks every key against its rule, then the rules that span keys (including
the ``MAX_ELEMENTS`` cap on the arrays a run sizes and a finite simulated
clock), and returns the plan a run executes.  ``check_data`` decides whether
a plan can run on a dataset of a given size and shape, the pool-size check
for lam included: ``validate`` calls it for synthetic data, ``harness.run``
for a file once it is loaded.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np

from .aggregation import RULES
from .data import InvalidLambdaError, share_sizes, val_size
from .models import MODEL_KINDS, ModelSpec, param_count
from .simclock import CostModel, round_timing
from .workers import SAMPLER_MODES, SCHEDULE_KINDS, SystemProfile, WorkerSpec

__all__ = ["ExperimentConfig", "ConfigError", "RunPlan", "plan", "check_data", "model_spec",
           "MAX_ELEMENTS", "MAX_WORKERS", "parse_config", "parse_config_file",
           "render_config", "config_hash", "ALGORITHMS"]

class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    # data source: synthetic blobs or a dataset file
    data_source: str = "synthetic"
    data_path: str = ""
    data_format: str = ""  # "" sniffs the file
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
    fast_draw: str = "fresh"
    cold_start: str = "unseen-first"

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
ALGORITHMS = tuple(_PRESETS)


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
# the keys and key = value parsing
# ---------------------------------------------------------------------------

def _int_list(text: str) -> tuple:
    return tuple(int(v) for v in text.split(",") if v.strip())


def _one_of(*options):
    return (lambda v: v in options), "one of " + ", ".join(repr(o) for o in options)


def _bound(op, lo):
    return (lambda v: v > lo if op == ">" else v >= lo), f"{op} {lo}"


_ANY = (lambda v: True), "any value"

# dotted key -> (ExperimentConfig field, parser, (rule, what the rule asks)).
# A key's rule holds whether or not a run reads the key; rules that span
# keys are in validate().
_KEYS = {
    "data.source": ("data_source", str, _one_of("synthetic", "file")),
    "data.path": ("data_path", str, _ANY),
    "data.format": ("data_format", str, _one_of("", "csv", "binary")),
    "data.n": ("data_n", int, _bound(">=", 1)),
    "data.input_dim": ("data_input_dim", int, _bound(">=", 1)),
    "data.classes": ("data_classes", int, _bound(">=", 2)),
    "data.separation": ("data_separation", float, _ANY),
    "data.sigma": ("data_sigma", float, _bound(">=", 0)),
    "data.label_noise": ("data_label_noise", float, ((lambda v: 0 <= v <= 1), "in [0, 1]")),
    "model.kind": ("model_kind", str, _one_of(*MODEL_KINDS)),
    "model.hidden": ("model_hidden", int, _ANY),
    "algorithm": ("algorithm", str, _one_of(*ALGORITHMS)),
    "aggregation": ("aggregation", str, _one_of(*RULES)),
    "profile.alpha": ("alpha", float, _bound(">=", 1)),
    "profile.lambda": ("lam", float, _bound(">=", 1)),
    "profile.tau_f": ("tau_f", int, _bound(">=", 1)),
    "profile.p_s": ("p_s", int, _bound(">=", 1)),
    "profile.p_f": ("p_f", int, _bound(">=", 1)),
    "profile.sampler_mode": ("sampler_mode", str, _one_of(*SAMPLER_MODES)),
    "sampling.fast_draw": ("fast_draw", str, _one_of("fresh", "epoch")),
    "sampling.cold_start": ("cold_start", str, _one_of("unseen-first", "uniform-first")),
    "schedule.kind": ("schedule_kind", str, _one_of(*SCHEDULE_KINDS)),
    "schedule.base_lr": ("base_lr", float, _bound(">", 0)),
    "schedule.milestones": ("milestones", _int_list, (
        (lambda v: all(a < b for a, b in zip(v, v[1:]))), "strictly increasing")),
    "schedule.decay": ("decay", float, _bound(">", 0)),
    "batch_size": ("batch_size", int, _bound(">=", 1)),
    "rounds": ("rounds", int, _bound(">=", 0)),
    "epochs": ("epochs", int, _bound(">=", 0)),
    "weight_decay": ("weight_decay", float, _bound(">=", 0)),
    "val_fraction": ("val_fraction", float, ((lambda v: 0 < v < 1), "in (0, 1)")),
    "seeds": ("seeds", _int_list, ((lambda v: len(v) > 0), "non-empty")),
    "cost.iter_fast": ("cost_iter_fast", float, _bound(">", 0)),
    "cost.iter_slow": ("cost_iter_slow", float, _bound(">", 0)),
    "cost.agg": ("cost_agg", float, _bound(">=", 0)),
    "out": ("out", str, _ANY),
}


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
        if key not in _KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        attr, parser, _ = _KEYS[key]
        if attr in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        try:
            values[attr] = parser(val)
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {key}: {exc}") from None
    return ExperimentConfig(**values)


def parse_config_file(path: str) -> ExperimentConfig:
    with open(path) as fh:
        return parse_config(fh.read(), source=path)


def render_config(cfg: ExperimentConfig) -> str:
    """Canonical serialization: every key, sorted, one per line."""
    lines = []
    for key, (attr, _, _) in _KEYS.items():
        val = getattr(cfg, attr)
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
    for key, (attr, parser, (rule, need)) in _KEYS.items():
        value = getattr(cfg, attr)
        if parser is float and not math.isfinite(value):
            raise ConfigError(f"{key} must be finite")
        if not rule(value):
            raise ConfigError(f"{key} must be {need}, got {value!r}")
    if cfg.algorithm == "biased_local" and cfg.sampler_mode == "uniform":
        raise ConfigError("biased_local requires sampler_mode separated or unified")
    if cfg.data_source == "file" and not cfg.data_path:
        raise ConfigError("data.path required when data.source = file")
    if cfg.data_source == "synthetic" and cfg.data_n < cfg.data_classes:
        raise ConfigError("data.n must be >= data.classes for synthetic data")
    # a synthetic feature is a class mean plus noise: at most |separation| / 2
    # plus 14 sigma, as numpy's normal sampler stops 13.71 sigma out
    if cfg.data_source == "synthetic" and not math.isfinite(
            abs(cfg.data_separation) / 2 + 14 * cfg.data_sigma):
        raise ConfigError("data.separation and data.sigma allow non-finite synthetic features")
    if cfg.model_kind == "mlp2" and cfg.model_hidden < 1:
        raise ConfigError("model.hidden must be >= 1 for mlp2")
    if cfg.rounds < 1 and cfg.epochs < 1:
        raise ConfigError("need rounds >= 1 or epochs >= 1")
    if cfg.cost_iter_slow < cfg.cost_iter_fast:
        raise ConfigError("cost.iter_slow must be >= cost.iter_fast")
    _cap("(profile.p_s + profile.p_f) x profile.tau_f x batch_size",
         (cfg.p_s + cfg.p_f) * cfg.tau_f * cfg.batch_size)
    # before plan(), which builds one WorkerSpec per worker
    if cfg.p_s + cfg.p_f > MAX_WORKERS:
        raise ConfigError(f"profile.p_s + profile.p_f is {cfg.p_s + cfg.p_f} workers, "
                          "over the cap of 2**12")

    run_plan = plan(cfg)
    # the preset's sampler, not the configured one: sync_sgd always samples uniformly
    if run_plan.fast_draw == "epoch" and run_plan.profile.sampler_mode == "unified":
        raise ConfigError("epoch-wise fast draws are not defined for unified sampling")
    _check_clock(run_plan, 1)  # what `hetsgd timing` prints
    # a file-backed dataset is checked by run() once it is loaded
    if cfg.data_source == "synthetic":
        _cap("data.n x data.input_dim", cfg.data_n * cfg.data_input_dim)
        check_data(cfg, run_plan, cfg.data_n, cfg.data_input_dim, cfg.data_classes)
    return run_plan


# The most elements any one array a run sizes from its config or data may
# hold: 2**27, 1 GiB of float64.  The benchmark's largest holds 1.6M.
MAX_ELEMENTS = 2**27
# The most workers a run may have: each costs a WorkerSpec and, per seed, a
# random stream of about 0.8 KiB.  The benchmark's largest run has 16.
MAX_WORKERS = 2**12


def _cap(what: str, count: int, where: str = "") -> None:
    if count > MAX_ELEMENTS:
        raise ConfigError(f"{where}{what} is {count} elements, over the cap of 2**27")


def _check_clock(run_plan: RunPlan, rounds: int, where: str = "") -> None:
    """Raise unless the simulated wall and blocking stay finite for ``rounds`` rounds.

    The harness adds one round's values once per round; summing ``rounds``
    copies of a value rounds up by at most ``(rounds - 1) * 2**-52`` of the
    exact total.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is the finding
        timing = round_timing(run_plan.workers, run_plan.cost)
        per_round = (timing.round_wall, float(timing.blocking_time.sum()))
    scale = rounds * (1 + (rounds - 1) * 2**-52)
    if not all(math.isfinite(value * scale) for value in per_round):
        raise ConfigError(f"{where}cost.iter_fast, cost.iter_slow and cost.agg overflow the "
                          f"simulated clock in {rounds} round(s)")


def model_spec(cfg: ExperimentConfig, input_dim: int, num_classes: int) -> ModelSpec:
    """The model a run of ``cfg`` trains on data of this shape."""
    return ModelSpec(cfg.model_kind, input_dim, num_classes,
                     cfg.model_hidden if cfg.model_kind == "mlp2" else 0)


def check_data(cfg: ExperimentConfig, run_plan: RunPlan, n: int, input_dim: int,
               num_classes: int, where: str = "") -> None:
    """Raise unless ``run_plan`` can run on a dataset of ``n`` rows of this shape.

    The training split must feed every worker each round by
    ``data.share_sizes``, the rule the sampler applies: its errors become
    ConfigErrors, except that InvalidLambdaError propagates untouched so
    sweeps can mark NA cells.  Then the parameter stack and the activations
    must fit ``MAX_ELEMENTS``, and the simulated clock and the learning rate
    must stay finite over the run.  ``validate`` checks synthetic data; a run checks a file once it
    is loaded, ``where`` naming it.
    """
    n_train = n - val_size(n, cfg.val_fraction)
    try:
        share_sizes(n_train, run_plan.profile)
    except InvalidLambdaError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    spec = model_spec(cfg, input_dim, num_classes)
    workers = cfg.p_s + cfg.p_f
    _cap("(profile.p_s + profile.p_f) x model parameters", workers * param_count(spec), where)
    rows = max(val_size(n, cfg.val_fraction), workers * cfg.batch_size)
    _cap("max(validation rows, (profile.p_s + profile.p_f) x batch_size) x the widest of "
         "data.input_dim, model.hidden, data.classes",
         rows * max(spec.input_dim, spec.hidden_dim, spec.num_classes), where)
    rounds = run_plan.total_rounds(n_train)
    _check_clock(run_plan, rounds, where)
    if cfg.schedule_kind == "multistep":
        # a decay above 1 peaks at the last milestone the run reaches
        hits = sum(1 for m in cfg.milestones if m < rounds)
        try:
            finite = math.isfinite(cfg.base_lr * cfg.decay ** hits)
        except OverflowError:  # float ** int raises where float * float gives inf
            finite = False
        if not finite:
            raise ConfigError(f"{where}schedule.base_lr x schedule.decay ** {hits} is not finite")

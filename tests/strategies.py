"""The one config domain every property test draws from.

``CHOICES`` and ``RANGES`` give every key of ``config._KEYS`` but ``out``
and ``data.path`` one domain: small, runnable sizes plus edge values.
Each caller passes the ``data_path`` domain, the ``data_files`` fixture's
paths where it runs configs.  Each other keyword to ``configs``, an
``ExperimentConfig`` field, replaces that field's domain; ``st.just`` pins it.
"""

from itertools import combinations, permutations

from hypothesis import strategies as st

from hetsgd.aggregation import RULES
from hetsgd.config import _KEYS, ALGORITHMS, ExperimentConfig
from hetsgd.models import MODEL_KINDS
from hetsgd.workers import SAMPLER_MODES, SCHEDULE_KINDS

# the valid values of each key that names a choice
CHOICES = {
    "data.source": ("synthetic", "file"),
    "data.format": ("", "csv", "binary"),
    "model.kind": MODEL_KINDS,
    "algorithm": ALGORITHMS,
    "aggregation": RULES,
    "profile.sampler_mode": SAMPLER_MODES,
    "sampling.fast_draw": ("fresh", "epoch"),
    "sampling.cold_start": ("unseen-first", "uniform-first"),
    "schedule.kind": SCHEDULE_KINDS,
}

_SEEDS = [0, 1, 2, 7, -1, 2**63 - 1, -2**63]


def _tuples(arrange, items, sizes):
    """Tuples of ``items`` of each of ``sizes`` as often: one pick is cheaper than a list."""
    return st.one_of([st.sampled_from(list(arrange(items, k))) for k in sizes])


# Sizes stay small, so that a drawn run takes milliseconds; the edges are
# features far apart or near zero, rates and costs near overflow and a
# batch larger than any share.  Tiny datasets come half the time: share
# rounding bites there.  10 and 130 classes cross the class-sum cut at 8
# and numpy's at 128.
RANGES = {
    "data.n": st.integers(2, 24) | st.integers(25, 300),
    "data.input_dim": st.sampled_from([1, 2, 3, 16]),
    "data.classes": st.sampled_from([2, 2, 2, 3, 3, 10, 130]),
    "data.separation": st.sampled_from([0.0, 1e-300, 3.0, 8.0, -5.0, 1e300]),
    "data.sigma": st.sampled_from([0.0, 1e-300, 0.5, 1.0, 1e150]),
    "data.label_noise": st.sampled_from([0.0, 0.1, 1.0]),
    "model.hidden": st.integers(1, 8),
    "profile.alpha": st.sampled_from([1.0, 1.5, 2.0, 4.0, 8.0, 32.0]),
    "profile.lambda": st.sampled_from([1.0, 1.25, 2.0, 3.0]),
    "profile.tau_f": st.integers(1, 6) | st.just(32),
    "profile.p_s": st.integers(1, 3),
    "profile.p_f": st.integers(1, 4),
    "schedule.base_lr": st.sampled_from([0.01, 0.1, 0.5, 300.0, 3e307, 1.7e308]),
    "schedule.milestones": _tuples(combinations, range(-2, 15), range(5)),
    "schedule.decay": st.sampled_from([0.1, 0.5, 1.5, 1e300]),
    "batch_size": st.integers(1, 9) | st.sampled_from([32, 500]),
    "rounds": st.integers(1, 3),
    "epochs": st.sampled_from([0, 0, 1]),
    "weight_decay": st.sampled_from([0.0, 0.01, 1e3]),
    "val_fraction": st.sampled_from([0.1, 0.2, 0.5]),
    "seeds": _tuples(permutations, _SEEDS, [1, 2, 3]),
    "cost.iter_fast": st.sampled_from([1e-3, 0.1, 0.194]),
    "cost.iter_slow": st.sampled_from([0.194, 0.4, 6.523, 1e300]),
    "cost.agg": st.sampled_from([0.0, 0.05, 2.5, 1e300]),
}

_DOMAINS = {_KEYS[key][0]: st.sampled_from(values) for key, values in CHOICES.items()}
_DOMAINS.update((_KEYS[key][0], domain) for key, domain in RANGES.items())


def configs(*, data_path, **fields) -> st.SearchStrategy:
    """ExperimentConfigs with ``data_path`` drawn from that strategy, each of ``fields`` from its."""
    return st.builds(ExperimentConfig, **{**_DOMAINS, "data_path": data_path, **fields})

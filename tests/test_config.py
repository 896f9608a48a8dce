"""Config parsing, per-algorithm overrides, and validation."""

import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hetsgd.config
import hetsgd.harness
from hetsgd.cli import main as cli_main
from hetsgd.config import (_KEYS, ALGORITHMS, MAX_ELEMENTS, MAX_WORKERS, ROW_ELEMENTS,
                           ConfigError, ExperimentConfig, check_data, config_hash, model_spec,
                           parse_config, parse_config_file, plan, render_config, seed_group,
                           validate)
from hetsgd.core import STREAM_CURSOR_BASE, STREAM_WORKER_BASE, RngStream
from hetsgd.data import InvalidLambdaError, val_size
from hetsgd.harness import bundled_config_path, run
from hetsgd.models import param_count
from strategies import CHOICES, RANGES, configs


def minimal(**overrides):
    cfg = ExperimentConfig(**overrides)
    return cfg


class TestParsing:
    def test_round_trip(self):
        cfg = minimal(alpha=8.0, tau_f=16, seeds=(3, 4), milestones=(10, 20))
        back = parse_config(render_config(cfg))
        assert back == cfg

    def test_comments_and_blanks(self):
        cfg = parse_config("""
# a comment
profile.tau_f = 8   # trailing comment

rounds = 3
""")
        assert cfg.tau_f == 8
        assert cfg.rounds == 3

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("profile.gamma = 2")

    def test_bad_value_reports_line(self):
        with pytest.raises(ConfigError, match=":2:"):
            parse_config("rounds = 5\nprofile.tau_f = eight")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match=r"^<string>:2: duplicate key 'rounds'$"):
            parse_config("rounds = 2\nrounds = 3")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config("just some words")

    def test_seed_list(self):
        cfg = parse_config("seeds = 0, 1, 2")
        assert cfg.seeds == (0, 1, 2)


def cli_error(capsys, *argv):
    """The one line ``hetsgd validate`` prints to stderr for a config it rejects."""
    capsys.readouterr()
    assert cli_main(["validate", *argv]) == 2
    return capsys.readouterr().err


def demo_with(tmp_path, line):
    """The bundled demo config with one more ``key = value`` line, as a file."""
    with open(bundled_config_path("demo")) as fh:
        kept = [l for l in fh.read().splitlines() if l.split(" =")[0] != line.split(" =")[0]]
    path = tmp_path / "demo.cfg"
    path.write_text("\n".join(kept + [line]) + "\n")
    return str(path)


class TestConfigFileText:
    def test_a_byte_that_is_not_utf8_is_located(self, tmp_path, capsys):
        path = tmp_path / "cafe.cfg"
        path.write_bytes(b"rounds = 2\n# caf\xe9\n")
        assert cli_error(capsys, str(path)) == \
            f"error: invalid-config: {path}:2: not valid UTF-8\n"

    def test_utf8_is_read_whatever_the_locale(self, tmp_path):
        path = tmp_path / "cafe.cfg"
        path.write_bytes("# caf\u00e9\nrounds = 2\n".encode())
        # the C locale, kept ASCII: no coercion to C.UTF-8 and no UTF-8 mode
        env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
                   PYTHONPATH=os.path.join(os.path.dirname(__file__), os.pardir, "src"))
        proc = subprocess.run([sys.executable, "-m", "hetsgd", "validate", str(path)],
                              env=env, capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"{path}: ok\n", "")

    def test_only_newlines_end_a_line(self, tmp_path, capsys):
        # str.splitlines would also break at the form feed, and count 3 lines
        path = tmp_path / "ff.cfg"
        path.write_bytes(b"rounds = 2\f\nbogus\n")
        assert cli_error(capsys, str(path)) == \
            f"error: invalid-config: {path}:2: expected 'key = value'\n"

    @pytest.mark.parametrize("ending", [b"\r", b"\r\n"])
    def test_lines_are_counted_as_universal_newlines_end_them(self, tmp_path, capsys, ending):
        path = tmp_path / "cr.cfg"
        path.write_bytes(ending.join([b"rounds = 2", "# \u2028".encode(), b"bogus", b"\xe9", b""]))
        assert cli_error(capsys, str(path)) == \
            f"error: invalid-config: {path}:4: not valid UTF-8\n"
        path.write_bytes(ending.join([b"rounds = 2", "# \u2028".encode(), b"bogus", b""]))
        assert cli_error(capsys, str(path)) == \
            f"error: invalid-config: {path}:3: expected 'key = value'\n"


class TestSeeds:
    @pytest.mark.parametrize("seeds, detail", [
        ("0,0", "seeds must be distinct, got (0, 0)"),
        ("3, 1, 3", "seeds must be distinct, got (3, 1, 3)"),
        # each of these keys the streams of a seed inside the range
        ("9223372036854775808", "seeds must be in [-2**63, 2**63), got (9223372036854775808,)"),
        ("-9223372036854775809",
         "seeds must be in [-2**63, 2**63), got (-9223372036854775809,)"),
        ("18446744073709551616",
         "seeds must be in [-2**63, 2**63), got (18446744073709551616,)"),
        ("0, -18446744073709551616",
         "seeds must be in [-2**63, 2**63), got (0, -18446744073709551616)"),
    ])
    def test_rejected_seed_lists(self, tmp_path, capsys, seeds, detail):
        assert cli_error(capsys, demo_with(tmp_path, f"seeds = {seeds}")) == \
            f"error: invalid-config: {detail}\n"

    def test_a_seed_override_meets_the_rule(self, capsys):
        assert cli_error(capsys, bundled_config_path("demo"), "--seed", str(2**64)) == \
            "error: invalid-config: seeds must be in [-2**63, 2**63), got (18446744073709551616,)\n"

    def test_the_range_edges_are_accepted(self):
        validate(minimal(seeds=(-2**63, 2**63 - 1, 0)))


class TestStreams:
    CURSORS = STREAM_WORKER_BASE - STREAM_CURSOR_BASE

    def test_epoch_cursors_stop_below_the_worker_streams(self, tmp_path, capsys):
        path = tmp_path / "wide.cfg"
        path.write_text(f"data.n = 6000\nprofile.p_f = {self.CURSORS + 1}\nprofile.tau_f = 1\n"
                        "batch_size = 1\nsampling.fast_draw = epoch\n")
        assert cli_error(capsys, str(path)) == \
            "error: invalid-config: sampling.fast_draw = epoch allows at most 960 fast " \
            "workers, got profile.p_f = 961\n"
        # fresh draws have no cursors
        validate(parse_config(path.read_text().replace("epoch", "fresh")))

    @pytest.mark.parametrize("workers", [
        dict(p_s=2, p_f=CURSORS, fast_draw="epoch"),  # the most cursors
        dict(p_s=MAX_WORKERS // 2, p_f=MAX_WORKERS // 2, fast_draw="fresh"),  # the most workers
    ], ids=["epoch", "fresh"])
    def test_every_stream_key_of_a_run_is_distinct(self, monkeypatch, workers):
        keys = []

        class Recorded(RngStream):
            def __init__(self, seed, stream_id=0):
                super().__init__(seed, stream_id)
                keys.append((seed % 2**64, stream_id % 2**64))  # the Philox key's halves

        monkeypatch.setattr(hetsgd.harness, "RngStream", Recorded)
        cfg = minimal(tau_f=1, batch_size=1, rounds=1, data_n=20000,
                      seeds=(0, -2**63, 2**63 - 1), **workers)
        run(cfg)
        # data, split, init and sampler, then a cursor per fast worker and a stream per worker
        cursors = cfg.p_f if cfg.fast_draw == "epoch" else 0
        assert len(keys) == 3 * (4 + cursors + cfg.p_s + cfg.p_f)
        assert len(set(keys)) == len(keys)


class TestAlgorithmOverrides:
    def test_sync_forces_single_step_balanced(self):
        cfg = minimal(algorithm="sync_sgd", tau_f=32, aggregation="fednova",
                      sampler_mode="separated")
        p = plan(cfg)
        assert p.profile.tau_f == 1 and p.profile.tau_s == 1
        assert [w.tau for w in p.workers] == [1, 1]
        assert p.aggregation == "balanced"
        assert p.profile.sampler_mode == "uniform"

    def test_balanced_local_equal_taus(self):
        p = plan(minimal(algorithm="balanced_local", tau_f=32, alpha=8.0))
        assert p.profile.tau_f == p.profile.tau_s == 32
        assert p.profile.alpha == 1.0

    def test_unbalanced_derives_tau_s(self):
        p = plan(minimal(algorithm="unbalanced_unbiased", tau_f=32, alpha=8.0))
        assert p.profile.tau_s == 4
        assert p.aggregation == "balanced"

    def test_biased_keeps_settings(self):
        p = plan(minimal(algorithm="biased_local", tau_f=32, alpha=32.0,
                         sampler_mode="separated", aggregation="tau_weighted"))
        assert p.profile.sampler_mode == "separated"
        assert p.aggregation == "tau_weighted"
        assert p.profile.tau_s == 1

    def test_steps_per_round(self):
        cfg = minimal(algorithm="biased_local", tau_f=32, alpha=32.0, p_s=1, p_f=1)
        assert plan(cfg).steps_per_round == 33
        sync = minimal(algorithm="sync_sgd", p_s=2, p_f=8)
        assert plan(sync).steps_per_round == 10

    def test_epoch_conversion(self):
        p = plan(minimal(tau_f=32, alpha=32.0, batch_size=32, epochs=2))
        # 33 steps/round * 32 batch = 1056 consumed per round
        assert p.rounds_per_epoch(1600) == 2
        assert p.total_rounds(1600) == 4

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_worker_taus_match_profile(self, algorithm):
        p = plan(minimal(algorithm=algorithm, tau_f=16, alpha=3.0, p_s=2, p_f=3))
        assert [w.id for w in p.workers] == list(range(5))
        assert [w.role for w in p.workers] == ["slow"] * 2 + ["fast"] * 3
        assert [w.tau for w in p.workers] == [p.profile.tau_s] * 2 + [p.profile.tau_f] * 3


class TestValidation:
    def test_default_config_valid(self):
        validate(minimal())

    def test_biased_uniform_rejected(self):
        with pytest.raises(ConfigError, match="biased_local"):
            validate(minimal(algorithm="biased_local", sampler_mode="uniform"))

    def test_lambda_na_condition(self):
        # alpha=2: pool fraction exceeds the dataset for lam=4
        with pytest.raises(InvalidLambdaError):
            validate(minimal(alpha=2.0, lam=4.0))

    def test_lambda_boundary_valid(self):
        validate(minimal(alpha=2.0, lam=3.0))

    def test_tiny_dataset_rejected(self):
        # 20 samples minus the validation split leaves 16; the slow share
        # rounds to zero at alpha=32
        with pytest.raises(ConfigError, match="slow worker"):
            validate(minimal(data_n=20, alpha=32.0, p_s=1, p_f=1))

    def test_bad_cost_order_rejected(self):
        with pytest.raises(ConfigError, match="iter_slow"):
            validate(minimal(cost_iter_fast=1.0, cost_iter_slow=0.5))

    def test_epoch_mode_with_unified_rejected(self):
        with pytest.raises(ConfigError, match="epoch"):
            validate(minimal(fast_draw="epoch", sampler_mode="unified"))

    @pytest.mark.parametrize("algorithm", ["sync_sgd", "balanced_local",
                                           "unbalanced_unbiased"])
    def test_epoch_mode_with_configured_unified_ok_for_uniform_presets(self, algorithm):
        # these presets sample uniformly whatever profile.sampler_mode says
        validate(minimal(algorithm=algorithm, fast_draw="epoch", sampler_mode="unified"))

    def test_negative_agg_cost_rejected(self):
        with pytest.raises(ConfigError, match="cost.agg"):
            validate(minimal(cost_agg=-1.0))

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ConfigError, match="algorithm"):
            validate(minimal(algorithm="gossip"))

    @pytest.mark.parametrize("name", ["demo", "hard"])
    def test_returns_the_run_plan(self, name):
        from hetsgd.harness import bundled_config_path
        cfg = parse_config_file(bundled_config_path(name))
        assert validate(cfg) == plan(cfg)


class TestKeys:
    def test_every_field_declared_once(self):
        declared = sorted(attr for attr, _, _ in _KEYS.values())
        assert declared == sorted(f.name for f in fields(ExperimentConfig))

    def test_every_key_has_one_drawn_domain(self):
        # data.path names a file the data_files fixture wrote; out is never drawn
        assert sorted([*CHOICES, *RANGES, "data.path"]) == sorted(set(_KEYS) - {"out"})
        for key, values in CHOICES.items():  # each choice list is all its rule accepts
            assert _KEYS[key][2][1] == "one of " + ", ".join(map(repr, values))

    def test_readme_table_matches_keys(self):
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme) as fh:
            section = fh.read().split("## Config format")[1].split("\n## ")[0]
        rows = {}
        for line in section.splitlines():
            if line.startswith("| `"):
                cells = [c.strip() for c in line.split("|")[1:-1]]
                for key in re.findall(r"`([^`]+)`", cells[0]):
                    assert key not in rows, key
                    rows[key] = cells[2]
        assert rows == {key: need for key, (_, _, (_, need)) in _KEYS.items()}

    @pytest.mark.parametrize("overrides, message", [
        (dict(data_input_dim=0), "data.input_dim must be >= 1, got 0"),
        (dict(data_format="bogus"), "data.format must be one of '', 'csv', 'binary', got 'bogus'"),
        (dict(val_fraction=1.0), "val_fraction must be in (0, 1), got 1.0"),
        (dict(seeds=()), "seeds must be non-empty, got ()"),
        (dict(data_separation=float("nan")), "data.separation must be finite"),
        (dict(data_n=10, data_classes=11), "data.n must be >= data.classes for synthetic data"),
        # a file-backed run never reads data.classes, but its rule still holds
        (dict(data_source="file", data_path="d.csv", data_classes=1),
         "data.classes must be >= 2, got 1"),
        # rules the profile, workers, costs and share rule take as given
        (dict(alpha=0.5), "profile.alpha must be >= 1, got 0.5"),
        (dict(lam=0.5), "profile.lambda must be >= 1, got 0.5"),
        (dict(p_s=0), "profile.p_s must be >= 1, got 0"),
        (dict(p_f=0), "profile.p_f must be >= 1, got 0"),
        (dict(tau_f=0), "profile.tau_f must be >= 1, got 0"),
        (dict(batch_size=0), "batch_size must be >= 1, got 0"),
        (dict(cost_iter_fast=0.0), "cost.iter_fast must be > 0, got 0.0"),
        (dict(cost_iter_slow=0.0), "cost.iter_slow must be > 0, got 0.0"),
        (dict(sampler_mode="greedy"),
         "profile.sampler_mode must be one of 'separated', 'unified', 'uniform', got 'greedy'"),
    ])
    def test_rejection_names_the_key_and_its_values(self, overrides, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            validate(minimal(**overrides))

    def test_synthetic_class_bound_skips_file_data(self):
        validate(minimal(data_source="file", data_path="d.csv", data_n=1, data_classes=5))


class TestSizeCap:
    """validate rejects a config whose arrays would exceed the cap; nothing is allocated."""

    @pytest.mark.parametrize("overrides, what", [
        (dict(data_n=10**12), "data.n x data.input_dim"),
        (dict(tau_f=10**12), "(profile.p_s + profile.p_f) x profile.tau_f x batch_size"),
        # checked before the plan, which would build one WorkerSpec per worker
        (dict(p_s=10**12), "(profile.p_s + profile.p_f) x profile.tau_f x batch_size"),
        (dict(model_kind="mlp2", model_hidden=10**12),
         "(profile.p_s + profile.p_f) x model parameters"),
        # parameters fit, but a validation pass would not
        (dict(data_n=2**25, data_input_dim=1, model_kind="mlp2", model_hidden=2**21),
         "max(validation rows, (profile.p_s + profile.p_f) x batch_size) x the widest of "
         "data.input_dim, model.hidden, data.classes"),
        # the rows of metrics.csv, before any per-round array is built
        (dict(rounds=10**12), "total rounds x seeds x 83"),
        (dict(epochs=10**12), "total rounds x seeds x 83"),
        (dict(rounds=MAX_ELEMENTS // 2 + 1, seeds=(0, 1)), "total rounds x seeds x 83"),
    ])
    def test_oversized_array_rejected(self, overrides, what):
        with pytest.raises(ConfigError, match=f"^{re.escape(what)} is \\d+ elements, "
                                              "over the cap of 2\\*\\*27$"):
            validate(minimal(**overrides))

    def test_sync_cap_counts_the_presets_tau_f(self):
        # sync_sgd steps once a round whatever profile.tau_f says
        from hetsgd.harness import run
        cfg = minimal(algorithm="sync_sgd", sampler_mode="uniform", aggregation="balanced",
                      tau_f=10**7)
        assert {w.tau for w in validate(cfg).workers} == {1}
        assert len(run(cfg).per_seed[0].records) == cfg.rounds

    def test_cap_is_inclusive(self):
        validate(minimal(data_n=MAX_ELEMENTS // 2, data_input_dim=2))
        with pytest.raises(ConfigError, match="data.n x data.input_dim"):
            validate(minimal(data_n=MAX_ELEMENTS // 2 + 1, data_input_dim=2))

    def test_row_cap_is_inclusive(self):
        # each metrics.csv row weighs ROW_ELEMENTS: 1,617,081 one-seed rounds fit
        rounds = MAX_ELEMENTS // ROW_ELEMENTS
        validate(minimal(rounds=rounds))
        validate(minimal(rounds=rounds // 3, seeds=(0, 1, 2)))
        with pytest.raises(ConfigError, match="^total rounds x seeds x 83 is 134217806 "
                                              "elements, over the cap of 2\\*\\*27$"):
            validate(minimal(rounds=rounds + 1))
        with pytest.raises(ConfigError, match="^total rounds x seeds x 83 is 134217972 "):
            validate(minimal(rounds=rounds // 3 + 1, seeds=(0, 1, 2)))

    def test_worker_count_capped_before_the_plan(self, monkeypatch):
        # every array fits, but plan() would build 8,388,608 WorkerSpecs
        def no_plan(cfg):
            raise AssertionError("plan() reached")

        monkeypatch.setattr(hetsgd.config, "plan", no_plan)
        with pytest.raises(ConfigError, match="^profile.p_s \\+ profile.p_f is 8388608 "
                                              "workers, over the cap of 2\\*\\*12$"):
            validate(minimal(p_s=2**22, p_f=2**22, tau_f=1, batch_size=1, data_n=2**24))

    def test_worker_cap_is_inclusive(self):
        half = MAX_WORKERS // 2
        run_plan = validate(minimal(p_s=half, p_f=half, tau_f=1, batch_size=1, data_n=10000))
        assert len(run_plan.workers) == MAX_WORKERS

    def test_validate_memory_does_not_grow_with_rounds(self, monkeypatch):
        # the learning rates and the clock are checked without per-round arrays,
        # which at 10**7 rounds would take 80 MB each
        monkeypatch.setattr(hetsgd.config, "ROW_ELEMENTS", 1)  # else the row cap stops 10**7
        tracemalloc.start()
        try:
            validate(minimal(rounds=10**7))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_file_data_model_is_sized_at_load(self):
        # validate cannot count a file's parameters; run checks them once loaded
        validate(minimal(data_source="file", data_path="d.csv", model_kind="mlp2",
                         model_hidden=10**12))


def reference_caps(cfg, n, input_dim, num_classes):
    """The size caps as ``validate`` and ``check_data`` wrote them out one by one.

    Returns the arrays over ``MAX_ELEMENTS``: the oracle for the caps on
    ``config.array_sizes``.  ``n`` and the shape are the data's, the
    config's own for synthetic data.
    """
    tau_f = 1 if cfg.algorithm == "sync_sgd" else cfg.tau_f
    workers = cfg.p_s + cfg.p_f
    counts = {"padded ids": workers * tau_f * cfg.batch_size}
    if cfg.data_source == "synthetic":
        counts["synthetic data"] = cfg.data_n * cfg.data_input_dim
    spec = model_spec(cfg, input_dim, num_classes)
    counts["parameters"] = workers * param_count(spec)
    rows = max(val_size(n, cfg.val_fraction), workers * cfg.batch_size)
    counts["activations"] = rows * max(spec.input_dim, spec.hidden_dim, spec.num_classes)
    if workers <= MAX_WORKERS:  # plan() builds one WorkerSpec per worker
        n_train = n - val_size(n, cfg.val_fraction)
        counts["rounds x seeds"] = (plan(cfg).total_rounds(n_train) * len(cfg.seeds)
                                    * ROW_ELEMENTS)
    return [what for what, count in counts.items() if count > MAX_ELEMENTS]


def reference_seed_group(cfg, run_plan, n, input_dim, num_classes):
    """Consecutive seeds per lockstep group, each stacked array written out apart."""
    spec = model_spec(cfg, input_dim, num_classes)
    workers = len(run_plan.workers)
    rows = workers * cfg.batch_size
    width = max(input_dim, spec.hidden_dim, num_classes)
    n_val = val_size(n, cfg.val_fraction)
    per_seed = [rows * run_plan.workers[-1].tau, rows * width, n_val * width,
                workers * param_count(spec), n - n_val]
    if cfg.data_source == "synthetic":
        per_seed.append(n * input_dim)
    return max(1, min(len(cfg.seeds), MAX_WORKERS // workers,
                      *(MAX_ELEMENTS // c for c in per_seed)))


def _accepted(cfg, shape):
    """The plan if ``validate`` and, for a file of this shape, ``check_data`` accept ``cfg``."""
    try:
        run_plan = validate(cfg)
        if cfg.data_source == "file":
            check_data(cfg, run_plan, *shape)
    except (ConfigError, InvalidLambdaError):
        return None
    return run_plan


# small sizes half the time, so that a run's other arrays fit; else any scale
# from 1 to far past the caps, a group's share of the cap among them
_SIZES = st.one_of(st.integers(1, 16), st.integers(1, 256),
                   st.integers(0, 44).flatmap(lambda e: st.integers(1, 2**e)),
                   st.integers(2**14, 2**26))
_WORKERS = st.one_of(st.integers(1, 4), st.integers(1, 64), st.integers(1, 2**13))
_ROWS = st.one_of(st.integers(64, 4096), st.integers(2**16, 2**28), _SIZES)


class TestArraySizes:
    @given(data=st.data())
    @settings(max_examples=400)
    def test_caps_and_groups_match_the_arrays_written_apart(self, data):
        draw = data.draw
        cfg = draw(configs(
            data_path=st.just("d.csv"), p_s=_WORKERS, p_f=_WORKERS, tau_f=_SIZES,
            batch_size=_SIZES, model_hidden=_SIZES, data_n=_ROWS, data_input_dim=_SIZES,
            data_classes=st.integers(2, 64), seeds=st.integers(1, 40).map(range).map(tuple)))
        shape = (cfg.data_n, cfg.data_input_dim, cfg.data_classes)
        if cfg.data_source == "file":
            shape = (draw(_ROWS), draw(_SIZES), draw(st.integers(2, 64)))
        # every other rule decides alone when no array is capped
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(hetsgd.config, "MAX_ELEMENTS", 10**100)
            other_rules = _accepted(cfg, shape) is not None
        run_plan = _accepted(cfg, shape)
        assert (run_plan is not None) == (other_rules and not reference_caps(cfg, *shape))
        if run_plan is not None:
            assert seed_group(cfg, run_plan, *shape) == \
                reference_seed_group(cfg, run_plan, *shape)


class TestHash:
    def test_stable(self):
        assert config_hash(minimal()) == config_hash(minimal())

    def test_sensitive_to_settings(self):
        assert config_hash(minimal(tau_f=8)) != config_hash(minimal(tau_f=16))

    def test_ignores_output_path(self):
        assert config_hash(minimal(out="a")) == config_hash(minimal(out="b"))

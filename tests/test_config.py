"""Config parsing, per-algorithm overrides, and validation."""

import os
import re
from dataclasses import fields

import pytest

import hetsgd.config
from hetsgd.config import (_KEYS, ALGORITHMS, MAX_ELEMENTS, MAX_WORKERS, ConfigError,
                           ExperimentConfig, config_hash, parse_config, parse_config_file, plan,
                           render_config, validate)
from hetsgd.data import InvalidLambdaError


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
    ])
    def test_oversized_array_rejected(self, overrides, what):
        with pytest.raises(ConfigError, match=f"^{re.escape(what)} is \\d+ elements, "
                                              "over the cap of 2\\*\\*27$"):
            validate(minimal(**overrides))

    def test_cap_is_inclusive(self):
        validate(minimal(data_n=MAX_ELEMENTS // 2, data_input_dim=2))
        with pytest.raises(ConfigError, match="data.n x data.input_dim"):
            validate(minimal(data_n=MAX_ELEMENTS // 2 + 1, data_input_dim=2))

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

    def test_file_data_model_is_sized_at_load(self):
        # validate cannot count a file's parameters; run checks them once loaded
        validate(minimal(data_source="file", data_path="d.csv", model_kind="mlp2",
                         model_hidden=10**12))


class TestHash:
    def test_stable(self):
        assert config_hash(minimal()) == config_hash(minimal())

    def test_sensitive_to_settings(self):
        assert config_hash(minimal(tau_f=8)) != config_hash(minimal(tau_f=16))

    def test_ignores_output_path(self):
        assert config_hash(minimal(out="a")) == config_hash(minimal(out="b"))

"""End-to-end driver behavior: determinism, reductions, metrics, CLI."""

import gc
import importlib
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
import types
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hetsgd.cli
import hetsgd.config
import hetsgd.data
import hetsgd.harness
from hetsgd.cli import main as cli_main
from hetsgd.config import ConfigError, ExperimentConfig, parse_config_file, validate
from hetsgd.data import InvalidLambdaError, val_size
from hetsgd.simclock import round_timing
from hetsgd.workers import SAMPLER_MODES, DivergenceError
from hetsgd.harness import (CSV_HEADER, bundled_config_path, render_csv, run,
                            write_outputs)


from strategies import CHOICES, RANGES, configs
from test_workers import reference_lr_at


def small_cfg(**overrides):
    base = dict(
        data_source="synthetic", data_n=300, data_input_dim=2, data_classes=2,
        data_separation=8.0, data_sigma=1.0, model_kind="logistic_regression",
        algorithm="biased_local", aggregation="tau_weighted", alpha=4.0, lam=2.0,
        tau_f=8, p_s=1, p_f=1, sampler_mode="separated", schedule_kind="constant",
        base_lr=0.3, batch_size=16, rounds=6, seeds=(0,),
        cost_iter_fast=0.1, cost_iter_slow=0.4, cost_agg=0.05,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestRunBasics:
    def test_record_fields_consistent(self):
        result = run(small_cfg())
        recs = result.per_seed[0].records
        assert len(recs) == 6
        for i, rec in enumerate(recs):
            assert rec.round == i
            assert rec.agg_count == i + 1
            assert rec.grad_steps == (i + 1) * (8 + 2)  # tau_f + tau_s
        walls = [r.sim_wall_s for r in recs]
        assert all(b > a for a, b in zip(walls, walls[1:]))

    def test_summary_shape(self):
        result = run(small_cfg(seeds=(0, 1)))
        s = result.summary
        assert set(s) >= {"config_hash", "algorithm", "final_acc_mean",
                          "final_acc_spread", "total_sim_wall_s", "total_agg_count"}
        assert "final_acc_std" not in s  # only with >= 3 seeds

    def test_summary_spread_is_half_range(self):
        result = run(small_cfg(seeds=(0, 1, 2)))
        finals = [sr.final_acc for sr in result.per_seed]
        assert result.summary["final_acc_spread"] == (max(finals) - min(finals)) / 2
        assert "final_acc_std" in result.summary

    def test_multiseed_records_per_seed(self):
        result = run(small_cfg(seeds=(0, 1)))
        assert [sr.seed for sr in result.per_seed] == [0, 1]
        a = result.per_seed[0].final_params
        b = result.per_seed[1].final_params
        assert not np.array_equal(a, b)


class TestDeterminism:
    def test_rerun_byte_identical(self):
        cfg = small_cfg(seeds=(0, 1))
        csv1 = render_csv(run(cfg))
        csv2 = render_csv(run(cfg))
        assert csv1 == csv2

    def test_all_sampler_modes_deterministic(self):
        for mode in ("separated", "unified"):
            cfg = small_cfg(sampler_mode=mode)
            assert render_csv(run(cfg)) == render_csv(run(cfg))
        cfg = small_cfg(algorithm="unbalanced_unbiased")
        assert render_csv(run(cfg)) == render_csv(run(cfg))

    def test_epoch_draw_mode_deterministic(self):
        cfg = small_cfg(fast_draw="epoch")
        assert render_csv(run(cfg)) == render_csv(run(cfg))


class TestReductionIdentities:
    def test_alpha_one_unbalanced_equals_balanced_local(self):
        a = small_cfg(algorithm="unbalanced_unbiased", alpha=1.0)
        b = small_cfg(algorithm="balanced_local", alpha=1.0)
        np.testing.assert_array_equal(run(a).per_seed[0].final_params,
                                      run(b).per_seed[0].final_params)

    def test_tau_one_balanced_equals_sync(self):
        a = small_cfg(algorithm="balanced_local", tau_f=1)
        b = small_cfg(algorithm="sync_sgd", tau_f=1)
        ra, rb = run(a), run(b)
        np.testing.assert_array_equal(ra.per_seed[0].final_params,
                                      rb.per_seed[0].final_params)
        assert render_csv(ra) == render_csv(rb)


class TestLedgerTrend:
    def test_recorded_losses_fall_on_converging_run(self):
        cfg = small_cfg(rounds=10, base_lr=0.5)
        result = run(cfg)
        recs = result.per_seed[0].records
        assert recs[-1].train_loss < recs[0].train_loss

    def test_ledger_mean_decreases_across_rounds(self):
        # drive the sampler/ledger loop directly on a converging task
        from hetsgd.core import RngStream
        from hetsgd.data import (LossLedger, make_synthetic, record_losses,
                                 sample_separated, SyntheticSpec)
        from hetsgd.models import ModelSpec, init_params
        from hetsgd.workers import SystemProfile, train_round
        from hetsgd.aggregation import aggregate

        ds = make_synthetic(SyntheticSpec(n=300, input_dim=2, num_classes=2,
                                          separation=8.0), RngStream(0, 0))
        spec = ModelSpec("logistic_regression", 2, 2)
        params = init_params(spec, RngStream(0, 1))
        prof = SystemProfile(alpha=4.0, p_s=1, p_f=1, lam=2.0, tau_f=8)
        ledger = LossLedger(ds.n)
        sampler = RngStream(0, 2)
        streams = {0: RngStream(0, 10), 1: RngStream(0, 11)}
        means = []
        for r in range(8):
            asn = sample_separated(ledger, prof, sampler)
            taus = [prof.tau_s, prof.tau_f]
            models, ids, losses, _ = train_round(spec, params, ds, asn, taus, 0.5, 16,
                                                 [streams[0], streams[1]])
            for wid in (0, 1):
                record_losses(ledger, ids[wid], losses[wid], r)
            params = aggregate("tau_weighted", models, taus)
            means.append(ledger.last_loss[ledger.seen_mask()].mean())
        assert means[-1] < means[0]


def _fail_aggregation_after_round_0(monkeypatch, cfg):
    """Make the aggregation from the model of ``cfg``'s one seed after round 0 overflow.

    The harness passes a seed group's ``(seeds, n_params)`` round-start stack:
    the call fails if any seed starts from that model.
    """
    after_round_0 = run(replace(cfg, rounds=1)).per_seed[0].final_params
    combine = hetsgd.harness.aggregate

    def failing(rule, models, taus, round_start=None):
        if any(np.array_equal(row, after_round_0) for row in round_start):
            raise ValueError("aggregation produced non-finite entries")
        return combine(rule, models, taus, round_start=round_start)

    monkeypatch.setattr(hetsgd.harness, "aggregate", failing)


class TestDivergence:
    def test_error_names_seed_round_worker_and_step(self):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError) as err:
                run(small_cfg(model_kind="mlp2", base_lr=1e3))
        assert str(err.value) == "seed 0 round 5 worker 1 step 5: non-finite loss or gradient"

    def test_run_keeps_the_divergence_type(self):
        with pytest.raises(DivergenceError, match="^seed 0 round 5 worker 1 step 5: "):
            run(small_cfg(model_kind="mlp2", base_lr=1e3))

    def test_aggregation_failure_waits_for_lower_seeds(self, monkeypatch):
        # seed 1's round-1 aggregation overflows: the run stops there with
        # every round of seed 0 and round 0 of seed 1, as seed by seed
        cfg = small_cfg(seeds=(0, 1, 2), rounds=4)
        want = run(replace(cfg, seeds=(0, 1))).per_seed
        _fail_aggregation_after_round_0(monkeypatch, replace(cfg, seeds=(1,)))
        with pytest.raises(DivergenceError) as err:
            run(cfg)
        assert str(err.value) == "seed 1 round 1: aggregation produced non-finite entries"
        assert err.value.records == want[0].records + want[1].records[:1]

    @pytest.mark.parametrize("seeds, detail", [
        ((3, 5), "seed 3 round 1: aggregation produced non-finite entries"),
        ((5, 3), "seed 5 round 0: training loss overflows")])
    def test_overflows_stop_the_run_as_seed_by_seed(self, seeds, detail):
        # alone, seed 3's round-1 aggregate overflows and seed 5's round-0
        # training loss does; in lockstep seed 5 fails first either way
        cfg = small_cfg(data_n=40, data_separation=1e-300, data_sigma=1e-300,
                        aggregation="fednova", alpha=2.0, tau_f=3, batch_size=2,
                        base_lr=1.7e308, rounds=3, seeds=seeds)
        want, _, error = _seed_by_seed(cfg)
        with pytest.raises(DivergenceError) as got:
            run(cfg)
        assert str(got.value) == str(error) == detail
        assert hetsgd.harness._render_records(got.value.records) == want

    def test_lower_seed_wins_over_an_earlier_higher_seed(self, tmp_path, capfd):
        # alone, seed 3 diverges in round 2 and seed 4 in round 1; seed by
        # seed, the run stops at seed 3 and never starts seed 4
        body = "model.kind = mlp2\nschedule.base_lr = 300\nrounds = 6\n"
        paths = {}
        for name, seeds in [("alone", "3"), ("both", "3,4")]:
            cfg_path = tmp_path / f"{name}.cfg"
            cfg_path.write_text(body + f"seeds = {seeds}\n")
            paths[name] = tmp_path / name
            assert cli_main(["run", str(cfg_path), "--out", str(paths[name])]) == 2
        with pytest.raises(DivergenceError) as err:
            run(parse_config_file(str(tmp_path / "both.cfg")))
        assert str(err.value) == "seed 3 round 2 worker 0 step 3: non-finite loss or gradient"
        errors = capfd.readouterr().err.splitlines()
        assert errors == [f"error: invalid-value: {err.value}"] * 2
        text = (paths["both"] / "metrics.csv").read_text()
        assert text == (paths["alone"] / "metrics.csv").read_text()
        seed_and_round = [line.split(",")[:2] for line in text.splitlines()[1:]]
        assert seed_and_round == [["3", "0"], ["3", "1"]]


def _seed_by_seed(cfg):
    """``(metrics.csv text, final params, error)`` of running ``cfg``'s seeds one at a time.

    The text is what a run of all of them writes: every finished round, up
    to the first error a seed raises, which stops the run.
    """
    rows, finals = [], []
    for seed in cfg.seeds:
        try:
            result = run(replace(cfg, seeds=(seed,)))
        except ValueError as exc:
            rows += getattr(exc, "records", [])
            return hetsgd.harness._render_records(rows), finals, exc
        rows += result.per_seed[0].records
        finals.append(result.per_seed[0].final_params.tobytes())
    return hetsgd.harness._render_records(rows), finals, None


class TestRoundLayout:
    def test_one_ledger_merge_per_round(self, monkeypatch):
        calls = []
        merge = hetsgd.harness.record_losses

        def counted(ledger, ids, losses, round_idx):
            calls.append(round_idx)
            return merge(ledger, ids, losses, round_idx)

        monkeypatch.setattr(hetsgd.harness, "record_losses", counted)
        run(small_cfg(p_s=2, p_f=3, rounds=4))
        assert calls == [0, 1, 2, 3]

    def test_per_seed_merges_and_one_aggregate_per_round(self, monkeypatch):
        merges, combines, seen = [], [], []
        kernel = hetsgd.harness.train_round
        merge = hetsgd.harness.record_losses
        combine = hetsgd.harness.aggregate

        def trained(*args):
            out = kernel(*args)
            seen.append(out[1])
            return out

        def merged(ledger, ids, losses, round_idx):
            merges.append((ledger, ids.copy(), round_idx))
            return merge(ledger, ids, losses, round_idx)

        def combined(rule, models, taus, round_start=None):
            combines.append((models.shape, round_start.shape))
            return combine(rule, models, taus, round_start=round_start)

        monkeypatch.setattr(hetsgd.harness, "train_round", trained)
        monkeypatch.setattr(hetsgd.harness, "record_losses", merged)
        monkeypatch.setattr(hetsgd.harness, "aggregate", combined)
        cfg = small_cfg(p_s=2, p_f=3, seeds=(0, 1, 2), rounds=3)
        n_params = run(cfg).per_seed[0].final_params.shape[0]
        n_train = cfg.data_n - val_size(cfg.data_n, cfg.val_fraction)
        assert [r for _, _, r in merges] == [0, 0, 0, 1, 1, 1, 2, 2, 2]
        ledgers = [ledger for ledger, _, _ in merges[:3]]
        assert len({id(ledger) for ledger in ledgers}) == 3
        assert all(ledger.last_loss.shape == (n_train,) for ledger in ledgers)
        for r, ids in enumerate(seen):  # seed k's call merges seed k's rows, in seed order
            for k in range(3):
                ledger, got, _ = merges[3 * r + k]
                assert ledger is ledgers[k]
                np.testing.assert_array_equal(got, np.concatenate(ids[5 * k:5 * k + 5]))
        assert combines == [((5, 3, n_params), (3, n_params))] * 3

    def test_share_sizes_once_per_run(self, monkeypatch):
        calls = []
        rule = hetsgd.data.share_sizes

        def counted(*args):
            calls.append(args)
            return rule(*args)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "hetsgd" and getattr(module, "share_sizes", None) is rule:
                monkeypatch.setattr(module, "share_sizes", counted)

        def count(**overrides):
            calls.clear()
            run(small_cfg(**overrides))
            return len(calls)

        once = count(rounds=2, seeds=(0,))
        assert once > 0
        assert count(rounds=6, seeds=(0,)) == once
        assert count(rounds=2, seeds=(0, 1, 2)) == once

    def test_sample_id_past_its_seed_rejected(self, monkeypatch):
        # seed 0's first row sees ids one seed's samples up, past its own
        # ledger: in a group they would be seed 1's ids
        kernel = hetsgd.harness.train_round

        def shifted(*args):
            models, ids, losses, steps = kernel(*args)
            ids[0] = ids[0] + args[-1][0].shape[0]
            return models, ids, losses, steps

        monkeypatch.setattr(hetsgd.harness, "train_round", shifted)
        cfg = small_cfg(seeds=(0, 1))
        n_train = cfg.data_n - val_size(cfg.data_n, cfg.val_fraction)
        with pytest.raises(ValueError,
                           match=f"^sample id [0-9]+ out of range for {n_train} samples$"):
            run(cfg)

    def test_each_seed_shares_one_row_map(self, monkeypatch):
        # a map per stacked row would hold seeds x workers copies of the train indices
        calls = []
        train = hetsgd.harness.train_round

        def recorded(*args):
            calls.append(args[-1])  # row_maps: one per stacked row
            return train(*args)

        monkeypatch.setattr(hetsgd.harness, "train_round", recorded)
        run(small_cfg(p_s=2, p_f=3, seeds=(0, 1), rounds=2))
        assert len(calls) == 2
        for row_maps in calls:
            assert len(row_maps) == 10
            assert len({id(m) for m in row_maps}) == 2

    @given(data=st.data())
    @settings(max_examples=80, suppress_health_check=[HealthCheck.too_slow])
    def test_stacked_seeds_equal_one_seed_runs(self, data, data_files):
        cfg = data.draw(configs(data_path=st.sampled_from(data_files)))
        try:
            validate(cfg)
        except (ConfigError, InvalidLambdaError):
            return
        want, finals, error = _seed_by_seed(cfg)
        if error is None:
            result = run(cfg)
            assert render_csv(result) == want
            assert [sr.final_params.tobytes() for sr in result.per_seed] == finals
            return
        with pytest.raises(type(error)) as got:
            run(cfg)
        assert type(got.value) is type(error) and str(got.value) == str(error)
        assert hetsgd.harness._render_records(getattr(got.value, "records", [])) == want

    @pytest.mark.parametrize("cap, value, stacks, source", [
        ("MAX_WORKERS", 4, [4, 4, 2, 2], "synthetic"),  # 2 seeds of 2 workers fill it
        ("MAX_WORKERS", 3, [2] * 6, "synthetic"),
        # 2 synthetic datasets of 300 x 2 fill it
        ("MAX_ELEMENTS", 1200, [4, 4, 2, 2], "synthetic"),
        ("MAX_ELEMENTS", 1199, [2] * 6, "synthetic"),
        # a file is shared: 2 seeds' ledgers of 120 training rows fill it
        ("MAX_ELEMENTS", 240, [4, 4, 2, 2], "file"),
        ("MAX_ELEMENTS", 239, [2] * 6, "file"),
        ("MAX_ELEMENTS", 100, [2] * 6, "file"),  # one seed runs even past the cap
    ])
    def test_seed_groups_stop_at_the_caps(self, monkeypatch, data_files, cap, value, stacks,
                                          source):
        file = dict(data_source="file", data_path=data_files[1], batch_size=4)
        cfg = small_cfg(seeds=(0, 1, 2), rounds=2, **(file if source == "file" else {}))
        want = render_csv(run(cfg))
        rows = []
        train = hetsgd.harness.train_round

        def counted(*args):
            rows.append(len(args[4]))  # taus: one per stacked row
            return train(*args)

        monkeypatch.setattr(hetsgd.harness, "train_round", counted)
        run(cfg)
        assert rows == [6, 6]  # unpatched: every seed in one stack
        rows.clear()
        monkeypatch.setattr(hetsgd.config, cap, value)
        monkeypatch.setattr(hetsgd.config, "ROW_ELEMENTS", 1)  # else the row cap stops these runs
        assert render_csv(run(cfg)) == want
        assert rows == stacks

    @given(data=st.data())
    @settings(max_examples=150, suppress_health_check=[HealthCheck.too_slow])
    def test_validate_passing_implies_run_completes(self, data, data_files):
        # what validate accepts writes finite metrics, diverges naming its seed
        # and round, or, for a file, is rejected once loaded naming the file
        cfg = data.draw(configs(data_path=st.sampled_from(data_files)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                validate(cfg)
            except (ConfigError, InvalidLambdaError):
                return
            try:
                text = render_csv(run(cfg))
            except DivergenceError as exc:
                assert re.match(r"^seed -?\d+ round \d+[: ]", str(exc)), exc
                return
            except ValueError as exc:  # the file's load, or check_data on its shape
                assert cfg.data_source == "file" and str(exc).startswith(f"{cfg.data_path}:"), exc
                return
        for line in text.splitlines()[1:]:
            assert all(math.isfinite(float(cell)) for cell in line.split(",")), line

    @given(data=st.data())
    @settings(max_examples=100, suppress_health_check=[HealthCheck.too_slow])
    def test_lr_and_clock_columns_match_the_scalar_oracle(self, data):
        # the oracle counts rounds from data.n; up to 12 rounds cross the milestones
        cfg = data.draw(configs(data_path=st.just(""), data_source=st.just("synthetic"),
                                rounds=st.integers(1, 12)))
        try:
            run_plan = validate(cfg)
            result = run(cfg)
        except (ConfigError, InvalidLambdaError, DivergenceError):
            return
        _assert_columns_match_the_oracle(cfg, run_plan, render_csv(result))

    @pytest.mark.parametrize("kind", ["constant", "multistep", "cosine"])
    @pytest.mark.parametrize("name", ["demo", "hard"])
    def test_bundled_columns_match_the_scalar_oracle(self, name, kind):
        # cosine is the one schedule computed with a vectorised transcendental
        cfg = replace(parse_config_file(bundled_config_path(name)), schedule_kind=kind,
                      milestones=(3, 7), decay=0.5)
        _assert_columns_match_the_oracle(cfg, validate(cfg), render_csv(run(cfg)))


def _assert_columns_match_the_oracle(cfg, run_plan, text):
    """``lr``, ``sim_wall_s`` and ``sim_block_s`` equal a round-by-round computation."""
    n_train = cfg.data_n - val_size(cfg.data_n, cfg.val_fraction)
    rounds = run_plan.total_rounds(n_train)
    timing = round_timing(run_plan.workers, run_plan.cost)
    wall, blocked, expected = 0.0, 0.0, []
    for r in range(rounds):
        wall += timing.round_wall
        blocked += float(timing.blocking_time.sum())
        lr = reference_lr_at(cfg.schedule_kind, cfg.base_lr, cfg.milestones, cfg.decay,
                             rounds, r)
        expected.append([repr(lr), repr(wall), repr(blocked)])
    rows = [line.split(",") for line in text.splitlines()[1:]]
    assert [[row[3], row[6], row[7]] for row in rows] == expected * len(cfg.seeds)


def _blobs(seed=5, relabel=0):
    from hetsgd.core import RngStream
    from hetsgd.data import Dataset, SyntheticSpec, make_synthetic
    ds = make_synthetic(SyntheticSpec(n=240, input_dim=3, num_classes=3, separation=8.0),
                        RngStream(seed, 0))
    return Dataset(ds.features, (ds.labels + relabel) % 3, 3)


def _blobs_csv(path, seed=5, relabel=0) -> str:
    """Write 240 rows of 3 features in 3 classes to ``path``; returns it as a str."""
    from hetsgd.data import save_csv
    save_csv(_blobs(seed, relabel), str(path))
    return str(path)


def _file_cfg(path, **overrides):
    return small_cfg(**{"data_source": "file", "data_path": path, "rounds": 2, **overrides})


def _count_loads(monkeypatch) -> list:
    """Route the harness's parses through a wrapper; each is listed as [path, weakref].

    The weakref is None for a parse that raised.
    """
    loads = []
    load = hetsgd.harness.load_dataset

    def counted(*args):
        loads.append([args[0], None])
        dataset = load(*args)
        loads[-1][1] = weakref.ref(dataset)
        return dataset

    monkeypatch.setattr(hetsgd.harness, "load_dataset", counted)
    return loads


def _restore_times(path, st):
    """Set ``path``'s atime and mtime back to ``st``'s once its ctime differs from ``st``'s."""
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))  # sets ctime to now
        if os.stat(path).st_ctime_ns != st.st_ctime_ns:
            return
        time.sleep(0.001)
    raise AssertionError(f"{path}: ctime did not move")


class TestFileData:
    def test_file_is_read_once_and_shared_read_only(self, tmp_path, monkeypatch):
        path = _blobs_csv(tmp_path / "blobs.csv")
        loaded = []
        load = hetsgd.harness.load_dataset

        def counted(*args):
            loaded.append(load(*args))
            return loaded[-1]

        monkeypatch.setattr(hetsgd.harness, "load_dataset", counted)
        file_cfg = dict(data_source="file", data_path=path, rounds=3)
        result = run(small_cfg(seeds=(0, 1, 2), **file_cfg))
        assert len(loaded) == 1
        singles = [render_csv(run(small_cfg(seeds=(s,), **file_cfg))) for s in (0, 1, 2)]
        assert render_csv(result) == CSV_HEADER + "\n" + "".join(
            text.split("\n", 1)[1] for text in singles)
        with pytest.raises(ValueError, match="read-only"):
            loaded[0].features[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            loaded[0].labels[0] = 0

    @pytest.mark.parametrize("source", ["synthetic", "file"])
    def test_data_is_checked_once_per_run(self, tmp_path, monkeypatch, source):
        path = _blobs_csv(tmp_path / "blobs.csv")
        calls = []
        check = hetsgd.config.check_data

        def counted(*args):
            calls.append(args[2:5])  # n, input_dim, num_classes
            return check(*args)

        # validate calls it from config, run from harness
        monkeypatch.setattr(hetsgd.config, "check_data", counted)
        monkeypatch.setattr(hetsgd.harness, "check_data", counted)
        run(small_cfg(seeds=(0, 1, 2), rounds=2, data_source=source, data_path=path,
                      data_n=240, data_input_dim=3, data_classes=3))
        assert calls == [(240, 3, 3)]

    def test_two_runs_of_one_file_parse_it_once(self, tmp_path, monkeypatch, settled):
        path = _blobs_csv(tmp_path / "blobs.csv")
        loads = _count_loads(monkeypatch)
        cfg = _file_cfg(path)
        first = render_csv(run(cfg))
        assert render_csv(run(replace(cfg, lam=3.0))) != first  # each run checks and trains anew
        assert render_csv(run(cfg)) == first
        assert [p for p, _ in loads] == [path]

    def test_same_bytes_at_two_paths_parse_twice(self, tmp_path, monkeypatch, settled):
        # a file is found by its stat fingerprint, not its bytes
        path = _blobs_csv(tmp_path / "a.csv")
        copy = tmp_path / "b.csv"
        copy.write_bytes((tmp_path / "a.csv").read_bytes())
        loads = _count_loads(monkeypatch)
        first = render_csv(run(_file_cfg(path)))
        assert render_csv(run(_file_cfg(str(copy)))) == first
        assert [p for p, _ in loads] == [path, str(copy)]

    def test_same_size_rewrite_is_parsed_again(self, tmp_path, monkeypatch):
        path = _blobs_csv(tmp_path / "blobs.csv")
        before = os.stat(path)
        loads = _count_loads(monkeypatch)
        old = render_csv(run(_file_cfg(path)))
        _blobs_csv(path, relabel=1)  # same length, other labels
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))  # and the same mtime
        assert os.stat(path).st_size == before.st_size
        new = render_csv(run(_file_cfg(path)))
        assert [p for p, _ in loads] == [path, path]
        assert new != old
        hetsgd.harness._DATASET_CACHE.clear()
        assert render_csv(run(_file_cfg(path))) == new

    def test_failed_load_caches_nothing(self, tmp_path, monkeypatch, settled):
        good = _blobs_csv(tmp_path / "good.csv")
        bad = str(tmp_path / "bad.csv")
        with open(bad, "w") as fh:
            fh.write("label,f0\n0,1.5\n1,abc\n")
        loads = _count_loads(monkeypatch)
        run(_file_cfg(good))
        for _ in range(2):
            with pytest.raises(ValueError, match=re.escape(f"{bad}:3: could not convert")):
                run(_file_cfg(bad))
            assert hetsgd.harness._DATASET_CACHE == {}
        run(_file_cfg(good))
        assert [p for p, _ in loads] == [good, bad, bad, good]

    def test_file_changed_during_the_parse_is_not_kept(self, tmp_path, monkeypatch, settled):
        path = _blobs_csv(tmp_path / "blobs.csv")
        load = hetsgd.harness.load_dataset
        loads = []

        def touched(*args):
            loads.append(args[0])
            mtime = os.stat(path).st_mtime_ns + 10**9
            os.utime(path, ns=(mtime, mtime))
            return load(*args)

        monkeypatch.setattr(hetsgd.harness, "load_dataset", touched)
        first = render_csv(run(_file_cfg(path)))
        assert hetsgd.harness._DATASET_CACHE == {}
        assert render_csv(run(_file_cfg(path))) == first
        assert loads == [path, path]

    def test_same_size_rewrite_during_the_parse_is_not_kept(self, tmp_path, monkeypatch,
                                                             settled):
        path = _blobs_csv(tmp_path / "blobs.csv")
        copy = str(tmp_path / "copy.csv")
        _blobs_csv(copy)  # the bytes the file held when its run began
        want = render_csv(run(_file_cfg(copy)))
        hetsgd.harness._DATASET_CACHE.clear()
        before = os.stat(path)
        load = hetsgd.harness.load_dataset
        loads = []

        def rewritten(*args):
            loads.append(args[0])
            if args[0] == path:  # same length, other labels, the same mtime
                _blobs_csv(path, relabel=1)
                _restore_times(path, before)
                assert os.stat(path).st_size == before.st_size
            return load(*args)

        monkeypatch.setattr(hetsgd.harness, "load_dataset", rewritten)
        assert render_csv(run(_file_cfg(path))) != want  # the new labels were parsed
        assert hetsgd.harness._DATASET_CACHE == {}
        assert render_csv(run(_file_cfg(copy))) == want
        assert loads == [path, copy]

    def test_settled_file_is_parsed_once(self, tmp_path, monkeypatch, settled):
        path = _blobs_csv(tmp_path / "blobs.csv")
        loads = _count_loads(monkeypatch)
        cfg = _file_cfg(path, seeds=(0, 1, 2))
        texts = []
        for name in ("cold", "warm", "again"):
            write_outputs(run(cfg), str(tmp_path / name))
            texts.append((tmp_path / name / "metrics.csv").read_bytes())
        assert len(loads) == 1
        assert texts[0] == texts[1] == texts[2]
        st = os.stat(path)  # one dataset, under the file's fingerprint alone
        assert list(hetsgd.harness._DATASET_CACHE) == [
            (cfg.data_format, st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns)]

    def test_settled_file_rewritten_at_the_same_size_is_parsed_again(self, tmp_path,
                                                                      monkeypatch, settled):
        path = _blobs_csv(tmp_path / "blobs.csv")
        loads = _count_loads(monkeypatch)
        old = render_csv(run(_file_cfg(path)))
        before = os.stat(path)
        _blobs_csv(path, relabel=1)  # same length, other labels
        _restore_times(path, before)  # and the same mtime, once ctime has moved
        after = os.stat(path)
        assert (after.st_ino, after.st_size, after.st_mtime_ns) == (
            before.st_ino, before.st_size, before.st_mtime_ns)
        new = render_csv(run(_file_cfg(path)))
        assert [p for p, _ in loads] == [path, path]
        assert new != old
        hetsgd.harness._DATASET_CACHE.clear()
        assert render_csv(run(_file_cfg(path))) == new

    def test_file_written_just_now_is_parsed_every_run(self, tmp_path, monkeypatch):
        path = _blobs_csv(tmp_path / "blobs.csv")
        loads = _count_loads(monkeypatch)
        texts = [render_csv(run(_file_cfg(path))) for _ in range(3)]
        # still inside the settle window, so no run kept the dataset
        assert time.time_ns() - os.stat(path).st_ctime_ns < hetsgd.harness._SETTLE_NS
        assert hetsgd.harness._DATASET_CACHE == {}
        assert [p for p, _ in loads] == [path] * 3
        assert texts[0] == texts[1] == texts[2]

    def test_file_replaced_by_rename_is_parsed_again(self, tmp_path, monkeypatch, settled):
        path = _blobs_csv(tmp_path / "blobs.csv")
        loads = _count_loads(monkeypatch)
        first = render_csv(run(_file_cfg(path)))
        before = os.stat(path)
        fresh = _blobs_csv(tmp_path / "fresh.csv")  # the same bytes in a new inode
        os.utime(fresh, ns=(before.st_atime_ns, before.st_mtime_ns))
        os.replace(fresh, path)
        assert os.stat(path).st_ino != before.st_ino
        assert render_csv(run(_file_cfg(path))) == first
        assert [p for p, _ in loads] == [path, path]

    def test_file_at_another_inode_is_parsed_again(self, tmp_path, monkeypatch, settled):
        # the fingerprint reads st_ino: a file that differs in nothing else is not taken as seen
        path = _blobs_csv(tmp_path / "blobs.csv")
        loads = _count_loads(monkeypatch)
        first = render_csv(run(_file_cfg(path)))

        def other_inode(name):
            st = os.stat(name)
            times = {k: getattr(st, k) for k in ("st_atime_ns", "st_mtime_ns", "st_ctime_ns")}
            return os.stat_result((st.st_mode, st.st_ino + 1, *st[2:]), times)

        monkeypatch.setattr(hetsgd.harness, "os",
                            types.SimpleNamespace(**{**vars(os), "stat": other_inode}))
        assert render_csv(run(_file_cfg(path))) == first
        assert [p for p, _ in loads] == [path, path]

    def test_file_sweep_parses_a_settled_file_once(self, tmp_path, monkeypatch, capsys,
                                                   settled):
        path = _blobs_csv(tmp_path / "blobs.csv")
        cfg_path = tmp_path / "sweep.cfg"
        cfg_path.write_text(f"data.source = file\ndata.path = {path}\nrounds = 2\n")
        argv = ["sweep-lambda", str(cfg_path), "--lambdas", "1", "2", "4", "9"]
        assert cli_main(argv) == 0
        want = capsys.readouterr().out
        hetsgd.harness._DATASET_CACHE.clear()
        loads = _count_loads(monkeypatch)
        assert cli_main(argv) == 0
        assert capsys.readouterr().out == want
        assert len(want.splitlines()) == 5
        assert [p for p, _ in loads] == [path]

    def test_last_file_replaces_the_one_before(self, tmp_path, monkeypatch, settled):
        a = _blobs_csv(tmp_path / "a.csv")
        b = _blobs_csv(tmp_path / "b.csv", seed=6)
        loads = _count_loads(monkeypatch)
        run(_file_cfg(a))
        run(_file_cfg(b))
        gc.collect()
        (_, dataset_a), (_, dataset_b) = loads
        assert dataset_a() is None
        assert dataset_b() is not None

    @pytest.mark.parametrize("fmt", ["csv", "binary"])
    def test_cached_run_matches_a_fresh_parse(self, tmp_path, monkeypatch, settled, fmt):
        from test_data import save_binary
        path = str(tmp_path / f"blobs.{fmt}")
        if fmt == "csv":
            _blobs_csv(path)
        else:
            save_binary(_blobs(), path)
        loads = _count_loads(monkeypatch)
        cfg = _file_cfg(path, data_format=fmt, seeds=(0, 1, 2))
        texts = []
        for name in ("fresh", "cached"):
            write_outputs(run(cfg), str(tmp_path / name))
            texts.append((tmp_path / name / "metrics.csv").read_bytes())
        assert len(loads) == 1
        assert texts[0] == texts[1]


def _count_draws(monkeypatch) -> list:
    """Route the harness's synthetic draws through a wrapper; each lists its stream's seed."""
    draws = []
    draw = hetsgd.harness.make_synthetic

    def counted(spec, stream):
        draws.append(stream.seed)
        return draw(spec, stream)

    monkeypatch.setattr(hetsgd.harness, "make_synthetic", counted)
    return draws


def _count_splits(monkeypatch) -> list:
    """Route the harness's split draws through a wrapper; each lists its stream's seed."""
    splits = []
    split = hetsgd.harness.split_rows

    def counted(n, val_fraction, stream):
        splits.append(stream.seed)
        return split(n, val_fraction, stream)

    monkeypatch.setattr(hetsgd.harness, "split_rows", counted)
    return splits


def _metrics(cfg, out_dir) -> bytes:
    write_outputs(run(cfg), str(out_dir))
    return (out_dir / "metrics.csv").read_bytes()


def _cold_metrics(cfg, out_dir) -> bytes:
    hetsgd.harness._DATASET_CACHE.clear()
    hetsgd.harness._LAYOUT_CACHE.clear()
    return _metrics(cfg, out_dir)


class TestDatasetCache:
    @pytest.mark.parametrize("seeds", [(0,), (0, 1, 2)])
    def test_cached_draw_matches_a_fresh_one(self, tmp_path, monkeypatch, seeds):
        draws = _count_draws(monkeypatch)
        cfg = small_cfg(seeds=seeds)  # one group of every seed
        texts = []
        for name in ("first", "cached", "emptied"):
            if name == "emptied":
                hetsgd.harness._DATASET_CACHE.clear()
            write_outputs(run(cfg), str(tmp_path / name))
            texts.append((tmp_path / name / "metrics.csv").read_bytes())
        assert draws == list(seeds) * 2
        assert texts[0] == texts[1] == texts[2]

    def test_negative_zero_separation_is_another_key(self, monkeypatch):
        # equal as floats, but a config that says -0.0 is not the one that says 0.0
        draws = _count_draws(monkeypatch)
        for separation in (0.0, -0.0, 0.0):
            run(small_cfg(data_separation=separation))
        assert draws == [0, 0, 0]

    def test_cached_arrays_are_read_only(self):
        run(small_cfg(seeds=(0, 1)))
        (dataset,) = hetsgd.harness._DATASET_CACHE.values()
        assert dataset.n == 2 * 300
        for array in (dataset.features, dataset.labels):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1

    def test_diverging_group_reruns_as_with_an_empty_cache(self, monkeypatch):
        # seed 0 finishes its 4 rounds; seed 1 diverges in round 2
        cfg = hetsgd.config.parse_config("model.kind = mlp2\nschedule.base_lr = 100\n"
                                         "rounds = 4\nseeds = 0,1\n")
        draws, splits = _count_draws(monkeypatch), _count_splits(monkeypatch)
        errors = []
        for cached in (True, False):
            run(replace(cfg, base_lr=0.1))  # the group's data and layout, cached
            assert len(draws) == len(splits) == 2
            if not cached:
                hetsgd.harness._DATASET_CACHE.clear()
            draws.clear()
            splits.clear()
            with pytest.raises(DivergenceError) as err:
                run(cfg)
            # the group, then seed by seed
            assert draws == splits == ([] if cached else [0, 1]) + [0, 1]
            draws.clear()
            splits.clear()
            errors.append((str(err.value), hetsgd.harness._render_records(err.value.records)))
        assert errors[0] == errors[1]
        assert errors[0][0].startswith("seed 1 round 2 worker ")
        assert [line.split(",")[:2] for line in errors[0][1].splitlines()[1:]] == [
            ["0", "0"], ["0", "1"], ["0", "2"], ["0", "3"], ["1", "0"], ["1", "1"]]

    def test_file_then_synthetic_then_file_holds_one_dataset(self, tmp_path, monkeypatch,
                                                             settled):
        a = _blobs_csv(tmp_path / "a.csv")
        b = _blobs_csv(tmp_path / "b.csv", seed=6)
        loads = _count_loads(monkeypatch)
        run(_file_cfg(a))
        run(small_cfg())
        (synthetic,) = map(weakref.ref, hetsgd.harness._DATASET_CACHE.values())
        gc.collect()
        assert loads[0][1]() is None
        run(_file_cfg(b))
        gc.collect()
        assert synthetic() is None
        assert list(hetsgd.harness._DATASET_CACHE.values()) == [loads[1][1]()]


class TestGroupLayout:
    """A seed group's split and validation rows stay beside the cached dataset."""

    @pytest.mark.parametrize("source, seeds", [("file", (0, 1, 2)), ("synthetic", (0, 1))])
    def test_warm_run_draws_no_split(self, tmp_path, monkeypatch, settled, source, seeds):
        cfg = _file_cfg(_blobs_csv(tmp_path / "blobs.csv"), data_source=source, seeds=seeds)
        splits = _count_splits(monkeypatch)
        cold = _metrics(cfg, tmp_path / "cold")
        assert splits == list(seeds)
        splits.clear()
        for name in ("warm", "again"):
            assert _metrics(cfg, tmp_path / name) == cold
        assert splits == []
        assert _cold_metrics(cfg, tmp_path / "emptied") == cold

    @pytest.mark.parametrize("change", [
        dict(val_fraction=0.3), dict(seeds=(0, 1, 3)), dict(seeds=(2, 0, 1)),
        dict(seeds=(0, 1)), dict(data_path="b.csv"), dict(data_source="synthetic"),
    ], ids=["val_fraction", "other seed", "seed order", "fewer seeds", "other file",
            "synthetic"])
    def test_a_changed_key_rebuilds_the_layout(self, tmp_path, monkeypatch, change):
        a = _blobs_csv(tmp_path / "a.csv")
        _blobs_csv(tmp_path / "b.csv", seed=6)
        cfg = _file_cfg(a, seeds=(0, 1, 2))
        changed = replace(cfg, **{k: str(tmp_path / v) if k == "data_path" else v
                                  for k, v in change.items()})
        want = _cold_metrics(changed, tmp_path / "cold")
        splits = _count_splits(monkeypatch)
        run(cfg)  # its layout, cached
        splits.clear()
        assert _metrics(changed, tmp_path / "warm") == want
        assert splits == list(changed.seeds)

    def test_a_dataset_not_kept_keeps_no_layout(self, tmp_path, monkeypatch, settled):
        path = _blobs_csv(tmp_path / "blobs.csv")
        load = hetsgd.harness.load_dataset
        loads = []

        def touched(*args):  # the file changes during the parse, so its dataset is not kept
            mtime = os.stat(path).st_mtime_ns + 10**9
            os.utime(path, ns=(mtime, mtime))
            dataset = load(*args)
            loads.append(weakref.ref(dataset))
            return dataset

        monkeypatch.setattr(hetsgd.harness, "load_dataset", touched)
        splits = _count_splits(monkeypatch)
        cfg = _file_cfg(path, seeds=(0, 1))
        first = render_csv(run(cfg))
        gc.collect()
        assert hetsgd.harness._LAYOUT_CACHE == {} and loads[0]() is None
        assert render_csv(run(cfg)) == first
        assert splits == [0, 1, 0, 1]

    def test_cached_layout_is_read_only(self, tmp_path, settled):
        run(_file_cfg(_blobs_csv(tmp_path / "blobs.csv"), seeds=(0, 1)))
        ((maps, val_x, val_y, n_train),) = hetsgd.harness._LAYOUT_CACHE.values()
        assert len(maps) == 2 and val_x.shape == (2, 240 - n_train, 3)
        for array in (*maps, val_x, val_y):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1

    @pytest.mark.parametrize("source", ["file", "synthetic"])
    def test_seed_groups_hold_one_layout(self, tmp_path, monkeypatch, source):
        cfg = _file_cfg(_blobs_csv(tmp_path / "blobs.csv"), data_source=source,
                        seeds=(0, 1, 2, 3))
        want = _metrics(cfg, tmp_path / "one")
        rows, splits, built = [], _count_splits(monkeypatch), []
        layout, split, train = (hetsgd.harness._layout, hetsgd.harness.split_rows,
                                hetsgd.harness.train_round)

        def recorded(*args):
            out = layout(*args)
            built.append(weakref.ref(out[1]))  # its validation stack
            return out

        def split_alone(*args):  # no earlier layout is alive while one is built
            gc.collect()
            assert all(ref() is None for ref in built)
            return split(*args)

        def counted(*args):
            rows.append(len(args[4]))  # taus: one per stacked row
            return train(*args)

        monkeypatch.setattr(hetsgd.harness, "_layout", recorded)
        monkeypatch.setattr(hetsgd.harness, "split_rows", split_alone)
        monkeypatch.setattr(hetsgd.harness, "train_round", counted)
        monkeypatch.setattr(hetsgd.config, "MAX_WORKERS", 4)  # 2 seeds of 2 workers
        for name in ("groups", "warm groups"):
            splits.clear()
            assert _metrics(cfg, tmp_path / name) == want
            assert splits == [0, 1, 2, 3]  # the second group replaced the first's layout
            assert len(hetsgd.harness._LAYOUT_CACHE) <= 1
        assert rows == [4, 4] * 2 * 2

    def test_a_new_dataset_is_built_after_the_last_one_and_its_layout_are_gone(
            self, tmp_path, monkeypatch, settled):
        a = _blobs_csv(tmp_path / "a.csv")
        b = _blobs_csv(tmp_path / "b.csv", seed=6)
        last = []  # weakrefs to the cached dataset and its layout's arrays before each build
        checked = []

        def gone(build):
            def checked_build(*args):
                gc.collect()
                assert all(ref() is None for ref in last)
                checked.append(build.__name__)
                return build(*args)
            return checked_build

        monkeypatch.setattr(hetsgd.harness, "load_dataset", gone(hetsgd.harness.load_dataset))
        monkeypatch.setattr(hetsgd.harness, "make_synthetic", gone(hetsgd.harness.make_synthetic))
        monkeypatch.setattr(hetsgd.harness, "split_rows", gone(hetsgd.harness.split_rows))
        for cfg in (_file_cfg(a), small_cfg(seeds=(0, 1)), _file_cfg(b)):
            run(cfg)
            (dataset,) = hetsgd.harness._DATASET_CACHE.values()
            ((maps, val_x, val_y, _),) = hetsgd.harness._LAYOUT_CACHE.values()
            last[:] = map(weakref.ref, (dataset, *maps, val_x, val_y))
            del dataset, maps, val_x, val_y
        assert checked == ["load_dataset", "split_rows", "make_synthetic", "make_synthetic",
                           "split_rows", "split_rows", "load_dataset", "split_rows"]


class TestBudgetAccounting:
    def test_local_budget(self):
        cfg = small_cfg(rounds=5, p_s=2, p_f=3, alpha=4.0, tau_f=8, data_n=600)
        recs = run(cfg).per_seed[0].records
        assert recs[-1].grad_steps == 5 * (3 * 8 + 2 * 2)

    def test_sync_budget_is_rounds_times_workers(self):
        cfg = small_cfg(algorithm="sync_sgd", rounds=12, p_s=1, p_f=2, data_n=400)
        recs = run(cfg).per_seed[0].records
        assert recs[-1].grad_steps == 12 * 3

    def test_communication_ratio_vs_sync(self):
        # equal fast-worker update budgets: tau_f=8 cuts aggregations 8x
        local = small_cfg(rounds=4, tau_f=8)
        sync = small_cfg(algorithm="sync_sgd", rounds=32)
        assert 8 * run(local).summary["total_agg_count"] == run(sync).summary["total_agg_count"]

    def test_wall_clock_ratio_matches_closed_form(self):
        # equal fast-worker update budget: the harness's cumulative wall must
        # match the timeline arithmetic, and the biased run must be faster
        from hetsgd.simclock import CostModel, clock
        from hetsgd.workers import WorkerSpec
        local = small_cfg(rounds=4, tau_f=8, alpha=4.0)
        sync = small_cfg(algorithm="sync_sgd", rounds=32)
        wall_local = run(local).summary["total_sim_wall_s"]
        wall_sync = run(sync).summary["total_sim_wall_s"]
        assert wall_local < wall_sync
        cost = CostModel(0.1, 0.4, agg_cost=0.05)
        expect_local, _ = clock([WorkerSpec(0, "slow", 2, 0.4, 16),
                                 WorkerSpec(1, "fast", 8, 0.1, 16)], cost, 4)
        expect_sync, _ = clock([WorkerSpec(0, "slow", 1, 0.4, 16),
                                WorkerSpec(1, "fast", 1, 0.1, 16)], cost, 32)
        assert wall_local == expect_local[-1]
        assert wall_sync == expect_sync[-1]


class TestOutputs:
    def test_write_outputs_files(self, tmp_path):
        result = run(small_cfg())
        csv_path, json_path = write_outputs(result, str(tmp_path / "exp"))
        with open(csv_path) as fh:
            text = fh.read()
        assert text.splitlines()[0] == CSV_HEADER
        with open(json_path) as fh:
            summary = json.load(fh)
        assert summary["algorithm"] == "biased_local"

    def test_csv_row_count(self, tmp_path):
        result = run(small_cfg(seeds=(0, 1), rounds=4))
        text = render_csv(result)
        assert len(text.splitlines()) == 1 + 2 * 4

    def test_numpy_scalars_in_a_config_write_the_same_csv(self):
        # seeds, epoch and grad_steps then hold numpy ints; they print as plain numbers
        plain = small_cfg(seeds=(0, 3), rounds=3)
        scalars = replace(plain, seeds=(np.int64(0), np.int64(3)), tau_f=np.int64(8),
                          batch_size=np.int64(16), base_lr=np.float64(0.3))
        assert render_csv(run(scalars)) == render_csv(run(plain))


class TestBundledConfigs:
    def test_demo_parses_and_validates(self):
        from hetsgd.config import validate
        cfg = parse_config_file(bundled_config_path("demo"))
        validate(cfg)

    def test_hard_parses_and_validates(self):
        from hetsgd.config import validate
        cfg = parse_config_file(bundled_config_path("hard"))
        validate(cfg)


class TestCli:
    def test_run_smoke(self, tmp_path, capsys):
        rc = cli_main(["run", bundled_config_path("demo"), "--out", str(tmp_path / "o"),
                       "--seed", "0"])
        assert rc == 0
        assert os.path.exists(tmp_path / "o" / "metrics.csv")
        assert os.path.exists(tmp_path / "o" / "summary.json")

    def test_validate_ok(self, capsys):
        assert cli_main(["validate", bundled_config_path("demo"), "--quiet"]) == 0

    def test_validate_bad_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("profile.alpha = 0.5\n")
        rc = cli_main(["validate", str(bad)])
        assert rc != 0
        assert capsys.readouterr().err.startswith("error: invalid-config:")

    @pytest.mark.parametrize("override", [
        "schedule.base_lr = nan", "weight_decay = nan", "data.separation = nan",
        "data.sigma = inf", "profile.alpha = nan", "profile.lambda = inf",
        "cost.iter_fast = nan", "cost.agg = inf", "data.classes = 1",
        "model.kind = mlp2; model.hidden = 0", "weight_decay = -1", "schedule.base_lr = 0",
        "data.input_dim = 0", "schedule.kind = bogus", "schedule.milestones = 5,3",
        "data.format = bogus", "data.sigma = -1", "data.classes = 3000000",
        "data.label_noise = 2", "data.label_noise = -1", "schedule.decay = -5",
    ])
    def test_validate_names_the_bad_key(self, tmp_path, capsys, override):
        # the last line of the override holds the bad value
        lines = override.split("; ")
        keys = [line.split(" =")[0] for line in lines]
        with open(bundled_config_path("demo")) as fh:
            kept = [l for l in fh.read().splitlines() if l.split(" =")[0] not in keys]
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("\n".join(kept + lines) + "\n")
        assert cli_main(["validate", str(cfg_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: invalid-config: ") and keys[-1] in err[0]

    def test_sweep_lambda_marks_na(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        rc = cli_main(["sweep-lambda", bundled_config_path("demo"), "--seed", "0",
                       "--lambdas", "2", "8", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("lambda,status")
        assert lines[1].startswith("2,ok")
        assert lines[2] == "8,NA,NA,NA,NA"

    def test_sweep_lambda_out_creates_its_directory(self, tmp_path, capsys):
        out = tmp_path / "nodir" / "grid.csv"
        rc = cli_main(["sweep-lambda", bundled_config_path("demo"), "--seed", "0",
                       "--lambdas", "1", "2", "--out", str(out)])
        assert rc == 0
        assert capsys.readouterr() == (f"wrote {out}\n", "")
        assert out.read_text().splitlines()[2].startswith("2,ok,")

    @pytest.mark.parametrize("command, out, detail", [
        ("sweep-lambda", "adir", "adir: Is a directory"),
        ("sweep-lambda", "afile/grid.csv", "afile: File exists"),
        ("run", "afile", "afile: File exists"),
        ("run", "afile/sub/o", "afile/sub: Not a directory"),
        ("run", "adir", "adir/summary.json: Is a directory"),
    ])
    def test_unusable_out_fails_before_training(self, tmp_path, monkeypatch, capsys, command,
                                                out, detail):
        (tmp_path / "adir" / "summary.json").mkdir(parents=True)
        (tmp_path / "afile").write_text("kept\n")
        runs = []
        run_cell = hetsgd.cli.run

        def counted(cfg):
            runs.append(cfg.lam)
            return run_cell(cfg)

        monkeypatch.setattr(hetsgd.cli, "run", counted)
        extra = ["--lambdas", "1", "2", "4", "9"] if command == "sweep-lambda" else []
        monkeypatch.chdir(tmp_path)
        assert cli_main([command, bundled_config_path("hard"), "--out", out, *extra]) == 2
        assert capsys.readouterr() == ("", f"error: unreadable-file: {detail}\n")
        assert runs == []
        assert sorted(os.listdir(tmp_path)) == ["adir", "afile"]
        assert os.listdir("adir") == ["summary.json"]
        assert (tmp_path / "afile").read_text() == "kept\n"
        # a sweep stopped by a later value's error trains no cell and leaves no file
        argv = ["sweep-lambda", bundled_config_path("demo"), "--out", "new/grid.csv"]
        assert cli_main([*argv, "--lambdas", "2", "0.5"]) == 2
        assert capsys.readouterr().err == (
            "error: invalid-config: profile.lambda must be >= 1, got 0.5\n")
        assert runs == [] and not os.path.exists("new")
        # a finished one replaces an earlier file, as printing would show it
        (tmp_path / "adir" / "grid.csv").write_text("stale\n" * 50)
        argv = ["sweep-lambda", bundled_config_path("demo"), "--lambdas", "2", "--quiet"]
        assert cli_main([*argv, "--out", "adir/grid.csv"]) == 0
        assert cli_main(argv) == 0
        assert (tmp_path / "adir" / "grid.csv").read_text() == capsys.readouterr().out

    @pytest.mark.parametrize("bad, detail", [
        ("0.5", "profile.lambda must be >= 1, got 0.5"),
        ("nan", "profile.lambda must be finite"),
    ])
    def test_bad_lambda_fails_before_the_first_cell(self, tmp_path, monkeypatch, capsys,
                                                    bad, detail):
        runs = []
        run_cell = hetsgd.cli.run

        def counted(cfg):
            runs.append(cfg.lam)
            return run_cell(cfg)

        monkeypatch.setattr(hetsgd.cli, "run", counted)
        out = tmp_path / "grid.csv"
        argv = ["sweep-lambda", bundled_config_path("hard"), "--out", str(out)]
        assert cli_main([*argv, "--lambdas", "1", "2", "4", bad]) == 2
        assert capsys.readouterr() == ("", f"error: invalid-config: {detail}\n")
        assert runs == [] and not out.exists()
        # an oversize value is still its cell's NA row, not an error
        assert cli_main([*argv, "--lambdas", "1", "100", "--quiet"]) == 0
        assert runs == [1.0, 100.0]
        assert out.read_text().splitlines()[2] == "100,NA,NA,NA,NA"

    def test_sweep_lambda_file_data_marks_na_at_run_time(self, tmp_path, capsys):
        # file-backed datasets reveal N only when running, so the oversize
        # condition must still land in the grid instead of killing the sweep
        from hetsgd.core import RngStream
        from hetsgd.data import SyntheticSpec, make_synthetic, save_csv
        ds = make_synthetic(SyntheticSpec(n=200, input_dim=2, num_classes=2,
                                          separation=8.0), RngStream(0, 0))
        data_path = tmp_path / "blobs.csv"
        save_csv(ds, str(data_path))
        cfg_path = tmp_path / "file.cfg"
        cfg_path.write_text(
            f"data.source = file\ndata.path = {data_path}\n"
            "profile.alpha = 4.0\nprofile.tau_f = 8\nrounds = 2\n"
            "schedule.base_lr = 0.3\nbatch_size = 8\nseeds = 0\n")
        out = tmp_path / "grid.csv"
        rc = cli_main(["sweep-lambda", str(cfg_path), "--lambdas", "2", "8",
                       "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[1].startswith("2,ok")
        assert lines[2] == "8,NA,NA,NA,NA"  # bound is 1 + alpha = 5

    def test_sweep_lambda_parses_a_file_once(self, tmp_path, monkeypatch, settled):
        data_path = _blobs_csv(tmp_path / "blobs.csv")
        cfg_path = tmp_path / "file.cfg"
        cfg_path.write_text(
            f"data.source = file\ndata.path = {data_path}\n"
            "profile.alpha = 32.0\nprofile.tau_f = 8\nprofile.p_s = 1\nprofile.p_f = 1\n"
            "rounds = 2\nschedule.base_lr = 0.3\nbatch_size = 4\nseeds = 0,1\n")
        loads = _count_loads(monkeypatch)

        def sweep(tag):
            out = tmp_path / f"{tag}.csv"
            assert cli_main(["sweep-lambda", str(cfg_path), "--lambdas", "1", "2", "40", "9",
                             "--out", str(out), "--quiet"]) == 0
            return out.read_bytes()

        cached = sweep("cached")
        assert len(loads) == 1
        lines = cached.decode().splitlines()
        assert lines[3] == "40,NA,NA,NA,NA"  # bound is 1 + alpha = 33
        assert [line.split(",")[1] for line in lines[1:]] == ["ok", "ok", "NA", "ok"]
        run_cell = hetsgd.cli.run

        def fresh_cell(cfg):
            hetsgd.harness._DATASET_CACHE.clear()
            return run_cell(cfg)

        monkeypatch.setattr(hetsgd.cli, "run", fresh_cell)
        assert sweep("fresh") == cached
        assert len(loads) == 5  # the lambda-40 cell loads before it is rejected

    def test_sweep_lambda_draws_synthetic_data_once_per_seed(self, tmp_path, monkeypatch):
        cfg_path = tmp_path / "synthetic.cfg"
        cfg_path.write_text(
            "data.n = 240\ndata.input_dim = 3\ndata.classes = 3\n"
            "profile.alpha = 32.0\nprofile.tau_f = 8\nprofile.p_s = 1\nprofile.p_f = 1\n"
            "rounds = 2\nschedule.base_lr = 0.3\nbatch_size = 4\nseeds = 0,1\n")
        draws = _count_draws(monkeypatch)

        def sweep(tag):
            out = tmp_path / f"{tag}.csv"
            assert cli_main(["sweep-lambda", str(cfg_path), "--lambdas", "1", "2", "40", "9",
                             "--out", str(out), "--quiet"]) == 0
            return out.read_bytes()

        cached = sweep("cached")
        assert draws == [0, 1]
        lines = cached.decode().splitlines()
        assert lines[3] == "40,NA,NA,NA,NA"  # bound is 1 + alpha = 33
        assert [line.split(",")[1] for line in lines[1:]] == ["ok", "ok", "NA", "ok"]
        run_cell = hetsgd.cli.run

        def fresh_cell(cfg):
            hetsgd.harness._DATASET_CACHE.clear()
            return run_cell(cfg)

        monkeypatch.setattr(hetsgd.cli, "run", fresh_cell)
        assert sweep("fresh") == cached
        assert draws == [0, 1] * 4  # validate rejects the lambda-40 cell before any draw

    def test_run_file_data_too_small_fails_before_training(self, tmp_path, capsys):
        # validate cannot see a file's size; run checks the shares once loaded
        data_path = tmp_path / "tiny.csv"
        data_path.write_text("label,f0\n0,0.5\n1,1.5\n0,-0.5\n")
        cfg_path = tmp_path / "tiny.cfg"
        cfg_path.write_text(f"data.source = file\ndata.path = {data_path}\n"
                            "profile.p_s = 3\nprofile.p_f = 3\nrounds = 1\n")
        assert cli_main(["validate", str(cfg_path), "--quiet"]) == 0
        rc = cli_main(["run", str(cfg_path), "--out", str(tmp_path / "o")])
        assert rc != 0
        assert capsys.readouterr().err == (
            f"error: invalid-config: {data_path}: training split of 2 cannot cover 6 workers\n")
        assert not os.path.exists(tmp_path / "o")

    def test_run_file_data_all_validation_fails_like_synthetic(self, tmp_path, capsys):
        # a validation split of every row leaves 0 rows for the workers,
        # reported as for synthetic data of that size, after the file's path
        data_path = tmp_path / "two.csv"
        data_path.write_text("label,f0\n0,1\n1,2\n")
        body = "val_fraction = 0.8\nrounds = 1\n"
        for name, source, where in [
                ("file", f"data.source = file\ndata.path = {data_path}\n", f"{data_path}: "),
                ("synthetic", "data.n = 2\n", "")]:
            cfg_path = tmp_path / f"{name}.cfg"
            cfg_path.write_text(source + body)
            rc = cli_main(["run", str(cfg_path), "--out", str(tmp_path / name)])
            assert rc == 2
            assert capsys.readouterr().err == (
                f"error: invalid-config: {where}training split of 0 cannot cover 2 workers\n")
            assert not os.path.exists(tmp_path / name)

    @pytest.mark.parametrize("command", ["validate", "timing", "run"])
    @pytest.mark.parametrize("text, detail", [
        ("data.n = 200\nrounds = 2\ncost.iter_fast = 1e307\ncost.iter_slow = 1e308\n",
         "cost.iter_fast, cost.iter_slow and cost.agg overflow the simulated clock in 1 "
         "round(s)"),
        # one round fits, three do not
        ("cost.agg = 1e308\nrounds = 3\n",
         "cost.iter_fast, cost.iter_slow and cost.agg overflow the simulated clock in 3 "
         "round(s)"),
        ("profile.p_s = 4194304\nprofile.p_f = 4194304\nprofile.tau_f = 1\nbatch_size = 1\n"
         "data.n = 16777216\n",
         "profile.p_s + profile.p_f is 8388608 workers, over the cap of 2**12"),
        # the rate after two milestones overflows
        ("schedule.kind = multistep\nschedule.milestones = 1,3\nschedule.decay = 1e300\n"
         "rounds = 5\n", "schedule.base_lr x schedule.decay ** 2 is not finite"),
        # metrics.csv would hold 200,000,000 rows
        ("rounds = 100000000\nseeds = 0,1\n",
         "total rounds x seeds x 83 is 16600000000 elements, over the cap of 2**27"),
    ], ids=["iter cost", "agg cost", "workers", "learning rate", "rounds x seeds"])
    def test_unrunnable_plan_fails_before_any_output(self, tmp_path, capfd, command, text,
                                                     detail):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(text)
        out = tmp_path / "o"
        assert cli_main([command, str(cfg_path), "--out", str(out)]) == 2
        assert capfd.readouterr() == ("", f"error: invalid-config: {detail}\n")
        assert not os.path.exists(out)

    @pytest.mark.parametrize("command, milestones", [
        ("validate", "1,3"), ("timing", "1,3"),
        # a first milestone at round 1 would diverge the run: 0.1 x 1e300
        ("run", "2,3")])
    def test_unreached_milestone_rates_are_not_checked(self, tmp_path, capfd, command,
                                                       milestones):
        # the rate after milestone 3 overflows, but two rounds never reach it
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(f"schedule.kind = multistep\nschedule.milestones = {milestones}\n"
                            "schedule.decay = 1e300\nrounds = 2\n")
        assert cli_main([command, str(cfg_path), "--out", str(tmp_path / "o"), "--quiet"]) == 0
        assert capfd.readouterr().err == ""

    def test_run_file_data_oversized_model_fails_at_load(self, tmp_path, capsys):
        # validate cannot count a file's parameters; run checks them once loaded
        data_path = tmp_path / "d.csv"
        data_path.write_text("label,f0\n" + "0,1\n1,2\n" * 10)
        cfg_path = tmp_path / "d.cfg"
        cfg_path.write_text(f"data.source = file\ndata.path = {data_path}\nrounds = 1\n"
                            "model.kind = mlp2\nmodel.hidden = 1000000000000\n")
        assert cli_main(["validate", str(cfg_path), "--quiet"]) == 0
        rc = cli_main(["run", str(cfg_path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: invalid-config: {data_path}: (profile.p_s + profile.p_f) x model "
            "parameters is 8000000000004 elements, over the cap of 2**27\n")
        assert not os.path.exists(tmp_path / "o")

    def test_run_file_data_non_finite_fails_at_load(self, tmp_path, capsys):
        data_path = tmp_path / "nan.csv"
        rows = [f"{i % 2},{'nan' if i == 2 else i * 0.5}" for i in range(10)]
        data_path.write_text("label,f0\n" + "\n".join(rows) + "\n")
        cfg_path = tmp_path / "nan.cfg"
        cfg_path.write_text(f"data.source = file\ndata.path = {data_path}\nrounds = 1\n")
        assert cli_main(["validate", str(cfg_path), "--quiet"]) == 0
        rc = cli_main(["run", str(cfg_path), "--out", str(tmp_path / "o")])
        assert rc != 0
        assert capsys.readouterr().err == (
            f"error: invalid-value: {data_path}:4: non-finite feature\n")
        assert not os.path.exists(tmp_path / "o")

    @pytest.mark.parametrize("text, detail", [
        ("label\n" + "0\n1\n" * 5, "no feature columns"),
        ("label,f0\n" + "0,1\n1,2\n" * 4 + "0,3\n1000,4\n", "10 rows cannot hold 1001 classes"),
    ], ids=["label column only", "more classes than rows"])
    def test_run_file_data_bounds_fail_at_load(self, tmp_path, capsys, text, detail):
        data_path = tmp_path / "d.csv"
        data_path.write_text(text)
        cfg_path = tmp_path / "d.cfg"
        cfg_path.write_text(f"data.source = file\ndata.path = {data_path}\nrounds = 1\n")
        rc = cli_main(["run", str(cfg_path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: invalid-value: {data_path}: {detail}\n"
        assert not os.path.exists(tmp_path / "o")

    def test_diverged_run_keeps_finished_rounds(self, tmp_path, capfd):
        body = "model.kind = mlp2\nschedule.kind = constant\nschedule.base_lr = 100\n"

        def cli_run(name, extra, out):
            cfg_path = tmp_path / f"{name}.cfg"
            cfg_path.write_text(body + extra)
            return cli_main(["run", str(cfg_path), "--out", str(out), "--quiet"])

        # seed 0 finishes its 4 rounds; seed 1 diverges in round 2
        assert cli_run("seed0", "rounds = 4\nseeds = 0\n", tmp_path / "a") == 0
        assert cli_run("seed1", "rounds = 2\nseeds = 1\n", tmp_path / "b") == 0
        capfd.readouterr()
        want = ((tmp_path / "a" / "metrics.csv").read_text()
                + (tmp_path / "b" / "metrics.csv").read_text().split("\n", 1)[1])
        out = tmp_path / "a"  # a finished run's outputs are replaced
        assert cli_run("both", "rounds = 4\nseeds = 0,1\n", out) == 2
        err = capfd.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: invalid-value: seed 1 round 2 worker ")
        assert (out / "metrics.csv").read_text() == want
        assert not (out / "summary.json").exists()

    def test_divergence_prints_one_stderr_line(self, tmp_path, capfd):
        # capfd, not capsys: numpy warnings would reach the process's stderr
        cfg_path = tmp_path / "div.cfg"
        cfg_path.write_text("model.kind = mlp2\nschedule.base_lr = 1e8\nrounds = 4\n")
        rc = cli_main(["run", str(cfg_path), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capfd.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: invalid-value: seed 0 round 0 worker 1 step ")
        assert err.endswith(": non-finite loss or gradient\n")
        assert not os.path.exists(tmp_path / "o")  # no round finished

    def test_round_0_divergence_removes_an_earlier_runs_outputs(self, tmp_path, capfd):
        ok, bad = tmp_path / "ok.cfg", tmp_path / "bad.cfg"
        ok.write_text("rounds = 3\n")
        bad.write_text("model.kind = mlp2\nschedule.base_lr = 1e300\n")
        out = tmp_path / "o"
        assert cli_main(["run", str(ok), "--out", str(out), "--quiet"]) == 0
        assert sorted(os.listdir(out)) == ["metrics.csv", "summary.json"]
        assert cli_main(["run", str(bad), "--out", str(out)]) == 2
        err = capfd.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: invalid-value: seed 0 round 0 worker ")
        assert os.listdir(out) == []  # nothing left that this config did not write

    @pytest.mark.parametrize("data, lam, code", [
        ("label,f0\n" + "0,1.5\n1,2.5\n" * 20, 50, "lambda-too-large"),
        ("label,f0\n0,1.5\n1,abc\n" + "0,1.5\n1,2.5\n" * 19, 1, "invalid-value"),
        (None, "x", "invalid-config"),  # a config that does not parse
        (None, None, "missing-file"),  # no config at all
    ], ids=["lambda too large", "unparseable row", "unparseable config", "missing config"])
    def test_failed_run_removes_an_earlier_runs_outputs(self, tmp_path, capfd, data, lam, code):
        ok, bad, data_path = tmp_path / "ok.cfg", tmp_path / "bad.cfg", tmp_path / "d.csv"
        ok.write_text("rounds = 3\n")
        if data is not None:
            data_path.write_text(data)
        if lam is not None:
            bad.write_text(f"data.source = file\ndata.path = {data_path}\n"
                           f"profile.lambda = {lam}\nrounds = 1\n")
        out = tmp_path / "o"
        assert cli_main(["run", str(ok), "--out", str(out), "--quiet"]) == 0
        assert sorted(os.listdir(out)) == ["metrics.csv", "summary.json"]
        assert cli_main(["run", str(bad), "--out", str(out)]) == 2
        err = capfd.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {code}: ")
        assert os.listdir(out) == []

    def test_sweep_lambda_marks_diverged_cells(self, tmp_path, capfd):
        cfg_path = tmp_path / "div.cfg"
        cfg_path.write_text("model.kind = mlp2\nschedule.base_lr = 1e8\nrounds = 4\n")
        rc = cli_main(["sweep-lambda", str(cfg_path), "--lambdas", "1", "2"])
        assert rc == 0
        out = capfd.readouterr()
        assert out.err == ""
        assert out.out.splitlines() == ["lambda,status,final_acc_mean,final_acc_spread,"
                                        "total_sim_wall_s", "1,diverged,NA,NA,NA",
                                        "2,diverged,NA,NA,NA"]

    def test_training_loss_overflow_keeps_finished_rounds(self, tmp_path, capfd):
        # every per-sample loss is finite, but round 1's sum overflows
        cfg_path = tmp_path / "loss.cfg"
        cfg_path.write_text("data.n = 200\ndata.separation = 1e-300\ndata.sigma = 1e-300\n"
                            "algorithm = sync_sgd\nschedule.base_lr = 3e307\nbatch_size = 8\n"
                            "rounds = 4\nseeds = 0,1\n")
        out = tmp_path / "o"
        assert cli_main(["run", str(cfg_path), "--out", str(out)]) == 2
        assert capfd.readouterr() == (
            "", "error: invalid-value: seed 0 round 1: training loss overflows\n")
        rows = (out / "metrics.csv").read_text().splitlines()[1:]
        assert [row.split(",")[:2] for row in rows] == [["0", "0"]]
        assert math.isfinite(float(rows[0].split(",")[4]))
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("command", ["run", "sweep-lambda"])
    def test_aggregation_overflow_is_a_divergence(self, tmp_path, capfd, monkeypatch, command):
        # lambda 1's round-1 aggregation overflows; lambda 2 never meets it
        cfg = small_cfg(lam=1.0, rounds=3)
        want = render_csv(run(replace(cfg, rounds=1)))
        _fail_aggregation_after_round_0(monkeypatch, cfg)
        cfg_path = tmp_path / "agg.cfg"
        cfg_path.write_text(hetsgd.config.render_config(cfg))
        out = tmp_path / "o"
        if command == "run":
            assert cli_main(["run", str(cfg_path), "--out", str(out)]) == 2
            assert capfd.readouterr().err == ("error: invalid-value: seed 0 round 1: "
                                              "aggregation produced non-finite entries\n")
            assert (out / "metrics.csv").read_text() == want
            return
        assert cli_main(["sweep-lambda", str(cfg_path), "--lambdas", "1", "2"]) == 0
        lines = capfd.readouterr().out.splitlines()
        assert lines[1] == "1,diverged,NA,NA,NA"
        assert lines[2].startswith("2,ok,")

    def test_timing_rows(self, capsys):
        rc = cli_main(["timing", bundled_config_path("demo")])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("worker,role,tau")
        assert len(lines) == 3  # header + 2 workers

    def test_timing_out_creates_its_directory(self, tmp_path, capsys):
        out = tmp_path / "a" / "b" / "timing.csv"
        assert cli_main(["timing", bundled_config_path("demo"), "--out", str(out)]) == 0
        assert capsys.readouterr() == ("", "")
        assert cli_main(["timing", bundled_config_path("demo")]) == 0
        assert out.read_text() == capsys.readouterr().out

    def test_sweep_lambda_labels_read_back_as_the_value(self, capsys):
        rc = cli_main(["sweep-lambda", bundled_config_path("demo"), "--seed", "0",
                       "--lambdas", "2", "2.0000001", "1234567"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["2", "2.0000001", "1234567"]
        assert lines[3] == "1234567,NA,NA,NA,NA"

    def test_timing_echoes_costs_as_given(self, tmp_path, capsys):
        cfg_path = tmp_path / "cost.cfg"
        cfg_path.write_text("cost.iter_fast = 0.1940123\n")
        assert cli_main(["timing", str(cfg_path)]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert [row[3] for row in rows if row[1] == "fast"] == ["0.1940123"]

    def test_timing_columns_read_back_as_their_values(self, tmp_path, capsys):
        # at these costs a fixed six decimals would print every computed column as 0.000000
        cfg_path = tmp_path / "tiny.cfg"
        cfg_path.write_text("cost.iter_fast = 1e-9\ncost.iter_slow = 4e-9\ncost.agg = 1e-9\n")
        assert cli_main(["timing", str(cfg_path)]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        run_plan = validate(parse_config_file(str(cfg_path)))
        timing = round_timing(run_plan.workers, run_plan.cost)
        assert [[float(x) for x in row[2:]] for row in rows] == [
            [w.tau, w.iter_cost, comp, block, timing.round_wall, run_plan.cost.agg_cost]
            for w, comp, block in zip(run_plan.workers, timing.compute_time,
                                      timing.blocking_time)]
        assert min(timing.compute_time) > 0 and max(timing.blocking_time) > 0

    def test_gradcheck(self, capsys):
        # trial 159 has gradient entries near 2e-8: over a 1e-8 floor, the
        # finite differences' roundoff alone is a relative error of 2e-3
        assert cli_main(["gradcheck", "--trials", "200"]) == 0

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_gradcheck_needs_a_trial(self, capsys, trials):
        assert cli_main(["gradcheck", "--trials", trials]) == 2
        assert capsys.readouterr() == (
            "", f"error: invalid-value: --trials must be >= 1, got {trials}\n")

    def test_gradcheck_catches_a_wrong_gradient(self, capsys, monkeypatch):
        right = hetsgd.cli.backward
        monkeypatch.setattr(hetsgd.cli, "backward", lambda *a: right(*a) * 1.001)
        assert cli_main(["gradcheck", "--trials", "10"]) == 1
        assert capsys.readouterr().out.endswith("-> FAIL\n")

    def test_unknown_flag_usage_error(self, capsys):
        rc = cli_main(["run", "--definitely-not-a-flag"])
        assert rc != 0

    def test_missing_config_file(self, capsys):
        rc = cli_main(["run", "/nonexistent/path.cfg"])
        assert rc != 0
        assert "error: missing-file" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "sweep-lambda", "validate"])
    def test_directory_config_path_is_one_error_line(self, tmp_path, capsys, command):
        extra = ["--lambdas", "2"] if command == "sweep-lambda" else []
        rc = cli_main([command, str(tmp_path), "--out", str(tmp_path / "o"), *extra])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: unreadable-file: {tmp_path}: Is a directory\n")

    @pytest.mark.parametrize("command", ["run", "sweep-lambda"])
    def test_directory_data_path_is_one_error_line(self, tmp_path, capsys, command):
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        cfg_path = tmp_path / "file.cfg"
        cfg_path.write_text(f"data.source = file\ndata.path = {data_dir}\nrounds = 1\n")
        extra = ["--lambdas", "2"] if command == "sweep-lambda" else []
        rc = cli_main([command, str(cfg_path), "--out", str(tmp_path / "o"), *extra])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: unreadable-file: {data_dir}: Is a directory\n")
        assert not os.path.exists(tmp_path / "o")


    def test_missing_data_path_names_it(self, tmp_path, capsys):
        data = tmp_path / "absent.csv"
        cfg_path = tmp_path / "file.cfg"
        cfg_path.write_text(f"data.source = file\ndata.path = {data}\nrounds = 1\n")
        assert cli_main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            f"error: missing-file: {data}: No such file or directory\n")

    def test_missing_config_names_it(self, tmp_path, capsys):
        cfg_path = tmp_path / "absent.cfg"
        assert cli_main(["validate", str(cfg_path)]) == 2
        assert capsys.readouterr().err == (
            f"error: missing-file: {cfg_path}: No such file or directory\n")


# hostile values for raw config text; sizes are small or invalid, never a
# large valid size, which would allocate or train without bound.  10**12 is
# drawn only for the integer keys: each sizes an array, where validate's cap
# rejects it.
_FLOAT_TOKENS = ["nan", "inf", "-inf", "-0", "0", "-1", "1e300", "1e308", "", "abc"]
_BAD_SIZE_TOKENS = ["0", "-1", "1.5", "", "abc"]
_HUGE = "1000000000000"
_CAPPED_KEYS = {key for key, (_, parser, _) in hetsgd.config._KEYS.items() if parser is int}
_FLOAT_KEYS = [key for key, (_, parser, _) in hetsgd.config._KEYS.items() if parser is float]
_SIZE_KEYS = sorted(_CAPPED_KEYS) + ["seeds"]  # valid values from the shared domain
_OTHER_KEYS = {
    "schedule.milestones": ["", "1,3", "5,3", "x"],
    "data.path": ["", "missing.csv", "good.csv", "label_only.csv", "huge_label.csv"],
}
_DATA_FILES = {
    "good.csv": "label,f0,f1\n" + "".join(f"{i % 2},{i * 0.5},{-i * 0.25}\n" for i in range(40)),
    "label_only.csv": "label\n" + "0\n1\n" * 10,
    "huge_label.csv": "label,f0\n" + "0,1\n1,2\n" * 4 + "0,3\n1000,4\n",
}


class TestConfigText:
    @given(data=st.data())
    @settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture,
                                                       HealthCheck.too_slow])
    def test_any_text_runs_or_fails_with_one_error_line(self, tmp_path, capsys, data):
        draw = data.draw
        for name, text in _DATA_FILES.items():
            (tmp_path / name).write_text(text)
        values = {}
        for key in draw(st.lists(st.sampled_from(
                _FLOAT_KEYS + list(CHOICES) + _SIZE_KEYS + list(_OTHER_KEYS)),
                min_size=1, max_size=4, unique=True)):
            if key in _FLOAT_KEYS:
                values[key] = draw(st.sampled_from(_FLOAT_TOKENS))
            elif key in CHOICES:  # valid half the time
                values[key] = draw(st.sampled_from(CHOICES[key])
                                   | st.sampled_from(["bogus", ""]))
            elif key in _SIZE_KEYS:
                bad = _BAD_SIZE_TOKENS + [_HUGE] * (key in _CAPPED_KEYS)
                values[key] = draw(RANGES[key].map(lambda v: ",".join(map(str, v))
                                                   if isinstance(v, tuple) else str(v))
                                   | st.sampled_from(bad))
            else:
                values[key] = draw(st.sampled_from(_OTHER_KEYS[key]))
        if values.get("data.path", "").endswith(".csv"):
            values["data.path"] = str(tmp_path / values["data.path"])
        with open(bundled_config_path("demo")) as fh:
            kept = [l for l in fh.read().splitlines() if l.split(" =")[0] not in values]
        work = tempfile.mkdtemp(dir=tmp_path)
        cfg_path = os.path.join(work, "fuzz.cfg")
        with open(cfg_path, "w") as fh:
            fh.write("\n".join(kept + [f"{k} = {v}" for k, v in values.items()]) + "\n")
        out = os.path.join(work, "out")
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli_main(["run", cfg_path, "--out", out, "--quiet"])
        err = capsys.readouterr().err
        assert not caught, [str(w.message) for w in caught]
        _assert_one_outcome(rc, err, out, str(tmp_path))
        if rc == 0:  # the plan's parts check none of these: validate must have
            run_plan = validate(parse_config_file(cfg_path))
            prof, cost, workers = run_plan.profile, run_plan.cost, run_plan.workers
            assert [(w.id, w.role) for w in workers] == list(enumerate(
                ["slow"] * prof.p_s + ["fast"] * prof.p_f))
            assert all(w.tau >= 1 and w.iter_cost > 0 and w.batch_size >= 1 for w in workers)
            assert prof.alpha >= 1 and prof.lam >= 1 and prof.sampler_mode in SAMPLER_MODES
            assert cost.iter_cost_slow >= cost.iter_cost_fast > 0 and cost.agg_cost >= 0


def _reject_constant(name):
    raise ValueError(f"summary.json holds {name}")


def _assert_one_outcome(rc, err, out, path_prefix):
    """Exit 0 with finite outputs, or exit 2 with one located ``error:`` line."""
    if rc == 0:
        assert err == ""
        with open(os.path.join(out, "metrics.csv")) as fh:
            for line in fh.read().splitlines()[1:]:
                # float(), not np.float64(...) text; no inf or nan
                assert all(math.isfinite(float(cell)) for cell in line.split(",")), line
        with open(os.path.join(out, "summary.json")) as fh:
            json.load(fh, parse_constant=_reject_constant)
    else:
        assert rc == 2
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        code, _, detail = err[len("error: "):].partition(": ")
        if code == "invalid-value":  # only what validate cannot see
            assert detail.startswith(("seed ", path_prefix)), err


# CSV fields for generated data files: valid numbers, then the hostile values
# a loader must reject or bound (non-finite, signed zero, overflow-sized,
# negative and huge labels, empty, quoted, underscored, a non-ASCII digit)
_CSV_LABELS = ["0", "1", "2"]
_CSV_NUMBERS = ["0", "1", "-2", "0.5", "-3.25", "7e-3"]
_CSV_HOSTILE = ["nan", "inf", "-0", "1e308", "-1", str(10**9), "", '"1.5"', "1_0", "٣"]
_CSV_HEADERS = ["", "f0,label", "label;f0", "label,f0,", '"label",f0']  # malformed
_FILE_VARIANTS = ["model.kind = mlp2\nmodel.hidden = 3", "profile.sampler_mode = unified",
                  "epochs = 1", "algorithm = sync_sgd", "sampling.fast_draw = epoch", "seeds = 0,1"]


class TestDataFileText:
    @given(data=st.data())
    @settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture,
                                                       HealthCheck.too_slow])
    def test_any_csv_runs_or_fails_with_one_error_line(self, tmp_path, capsys, data):
        draw = data.draw
        # mostly well-formed, so that runs complete as well as fail
        width = draw(st.sampled_from([1, 2, 3, 0]))  # feature columns
        header = draw(st.sampled_from(
            ["label" + "".join(f",f{j}" for j in range(width))] * 8 + _CSV_HEADERS))
        rows = [[draw(st.sampled_from(_CSV_LABELS))]
                + [draw(st.sampled_from(_CSV_NUMBERS)) for _ in range(width)]
                for _ in range(draw(st.integers(0, 15)))]
        for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2])) if rows else 0):
            row = draw(st.sampled_from(rows))
            fault = draw(st.sampled_from(["field", "field", "drop", "extra"] if row else ["extra"]))
            if fault == "field":
                row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(_CSV_HOSTILE))
            elif fault == "drop":
                row.pop()
            else:
                row.append(draw(st.sampled_from(_CSV_NUMBERS)))
        lines = [header] + [",".join(row) for row in rows]
        if rows and draw(st.sampled_from([False, False, False, True])):
            lines.insert(draw(st.integers(1, len(lines))), "")  # a blank line
        newline = draw(st.sampled_from(["\n", "\r\n"]))
        text = newline.join(lines) + draw(st.sampled_from([newline, ""]))

        work = tempfile.mkdtemp(dir=tmp_path)
        data_path = os.path.join(work, "data.csv")
        with open(data_path, "w", newline="") as fh:
            fh.write(text)
        variants = draw(st.lists(st.sampled_from(_FILE_VARIANTS), max_size=3, unique=True))
        cfg_path = os.path.join(work, "file.cfg")
        with open(cfg_path, "w") as fh:
            fh.write(f"data.source = file\ndata.path = {data_path}\n"
                     f"profile.p_s = {draw(st.integers(1, 3))}\n"
                     f"profile.p_f = {draw(st.integers(1, 3))}\n"
                     "profile.tau_f = 2\nbatch_size = 4\nschedule.base_lr = 0.1\nrounds = 2\n"
                     + "".join(line + "\n" for line in variants))
        out = os.path.join(work, "out")
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli_main(["run", cfg_path, "--out", out, "--quiet"])
        err = capsys.readouterr().err
        assert not caught, [str(w.message) for w in caught]
        _assert_one_outcome(rc, err, out, data_path)


_MLP2_CFG = """data.n = 20000
data.input_dim = 32
data.classes = 10
model.kind = mlp2
model.hidden = 64
profile.p_s = 2
profile.p_f = 4
profile.tau_f = 8
batch_size = 64
rounds = 3
seeds = 0,1
"""


class TestBlasThreads:
    """The determinism contract holds for any BLAS thread count, not only the benchmark's 1."""

    @pytest.mark.parametrize("config", ["demo", "mlp2"])
    def test_metrics_do_not_depend_on_the_thread_count(self, tmp_path, config):
        cfg_path = bundled_config_path("demo")
        if config == "mlp2":
            cfg_path = tmp_path / "mlp2.cfg"
            cfg_path.write_text(_MLP2_CFG)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"out{threads}"
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads)
            proc = subprocess.run([sys.executable, "-m", "hetsgd", "run", str(cfg_path),
                                   "--out", str(out), "--quiet"],
                                  env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            outputs.append((out / "metrics.csv").read_bytes())
        assert outputs[0] == outputs[1]


_REFERENCE = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "reference")


@pytest.fixture(scope="module")
def hetsgd_ref():
    """The frozen reference package, imported from ``bench/reference`` without writing there."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(_REFERENCE)
        mp.setattr(sys, "dont_write_bytecode", True)
        yield importlib.import_module("hetsgd_ref")


# the fields a drawn case keeps as bundled: the reference has none of src's
# checks on non-finite data, rates or clocks, or on sizes
_REFERENCE_KEPT = ["data_source", "data_path", "data_format", "data_n", "data_separation",
                   "data_sigma", "data_label_noise", "alpha", "lam", "tau_f", "base_lr",
                   "val_fraction", "cost_iter_fast", "cost_iter_slow", "cost_agg"]


@st.composite
def reference_cases(draw):
    """A bundled config's name and a config drawn about it, over the domain both programs know.

    The reference screens no divergence, so the rates stay small, and
    batches of 5 to 32 rows keep an epoch within 160 rounds.  The cosine
    schedule is left out: under numpy 2 the reference renders its lr as
    ``np.float64(...)``.
    """
    name = draw(st.sampled_from(["demo", "hard"]))
    base = parse_config_file(bundled_config_path(name))
    kept = {field: st.just(getattr(base, field)) for field in _REFERENCE_KEPT}
    return name, draw(configs(**kept, schedule_kind=st.sampled_from(["constant", "multistep"]),
                              decay=st.sampled_from([0.1, 0.5, 1.5]),
                              weight_decay=st.sampled_from([0.0, 0.01]),
                              batch_size=st.sampled_from([5, 7, 13, 32])))


class TestFrozenReference:
    """``run`` writes the bytes of the benchmark's frozen reference, an independent program.

    ``bench/reference/hetsgd_ref`` trains each seed alone, one worker at a
    time, with none of the stacking, caching or screening in ``src``.
    """

    @pytest.mark.parametrize("overrides", [
        {},
        dict(model_kind="mlp2", model_hidden=5),
        dict(sampler_mode="unified"),
        dict(fast_draw="epoch"),
        dict(aggregation="fednova"),
        dict(algorithm="sync_sgd", rounds=4),
        dict(algorithm="balanced_local"),
        dict(algorithm="unbalanced_unbiased"),
        dict(batch_size=7),
        dict(batch_size=13, p_s=2, p_f=3),
        dict(cold_start="uniform-first"),
        dict(weight_decay=0.01),
        dict(schedule_kind="multistep", milestones=(3, 7), decay=0.5),
        dict(seeds=(0, 1, 2, 3)),
        dict(epochs=2),
        dict(data_classes=5, data_input_dim=3),
    ])
    def test_demo_metrics_equal_the_reference(self, hetsgd_ref, overrides):
        got, want = self.outcomes(hetsgd_ref, "demo", overrides)
        assert got is not None and got == want

    @pytest.mark.parametrize("overrides", [
        {},  # 5 seeds at alpha 32: a slow worker takes one step a round
        dict(model_kind="mlp2"),
        dict(p_s=2, p_f=3, batch_size=13, seeds=(0, 1, 2)),
    ])
    def test_hard_metrics_equal_the_reference(self, hetsgd_ref, overrides):
        got, want = self.outcomes(hetsgd_ref, "hard", overrides)
        assert got is not None and got == want

    @settings(max_examples=150)
    @given(case=reference_cases())
    def test_drawn_configs_agree_with_the_reference(self, hetsgd_ref, case):
        name, cfg = case
        got, want = self.outcomes(hetsgd_ref, name, vars(cfg))
        if got is None:
            assert want is None
            return
        if (cfg.fast_draw, cfg.sampler_mode) == ("epoch", "unified") and (
                cfg.algorithm != "biased_local"):
            # the reference rejects epoch draws under the configured unified
            # sampler; src checks the preset's, which samples uniformly
            assert want is None
        else:
            assert got == want

    @staticmethod
    def outcomes(ref, name, overrides) -> tuple:
        """``metrics.csv`` text from ``src`` and from the reference; None where one rejects."""
        path = bundled_config_path(name)
        texts = []
        for parse, train, render in ((parse_config_file, run, render_csv),
                                     (ref.parse_config_file, ref.run, ref.render_csv)):
            try:
                texts.append(render(train(replace(parse(path), **overrides))))
            except ValueError:
                texts.append(None)
        return tuple(texts)

"""End-to-end driver behavior: determinism, reductions, metrics, CLI."""

import json
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hetsgd.cli
import hetsgd.harness
from hetsgd.cli import main as cli_main
from hetsgd.config import ALGORITHMS, ConfigError, ExperimentConfig, parse_config_file, validate
from hetsgd.data import InvalidLambdaError
from hetsgd.workers import DivergenceError
from hetsgd.harness import (CSV_HEADER, bundled_config_path, render_csv, run,
                            write_outputs)


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


class TestDivergence:
    def test_error_names_seed_round_worker_and_step(self):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError) as err:
                run(small_cfg(model_kind="mlp2", base_lr=1e3))
        assert str(err.value) == "seed 0 round 5 worker 1 step 5: non-finite loss or gradient"

    def test_run_keeps_the_divergence_type(self):
        with pytest.raises(DivergenceError, match="^seed 0 round 5 worker 1 step 5: "):
            run(small_cfg(model_kind="mlp2", base_lr=1e3))


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

    @given(data=st.data())
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_validate_passing_implies_run_completes(self, data):
        draw = data.draw
        algorithm = draw(st.sampled_from(ALGORITHMS))
        # biased_local rejects the uniform sampler; the others override it
        modes = ["separated", "unified"] + (["uniform"] if algorithm != "biased_local" else [])
        cfg = small_cfg(
            algorithm=algorithm,
            sampler_mode=draw(st.sampled_from(modes)),
            fast_draw=draw(st.sampled_from(["fresh", "epoch"])),
            cold_start=draw(st.sampled_from(["unseen-first", "uniform-first"])),
            aggregation=draw(st.sampled_from(["tau_weighted", "balanced"])),
            model_kind=draw(st.sampled_from(["logistic_regression", "mlp2"])),
            model_hidden=3,
            p_s=draw(st.integers(1, 4)), p_f=draw(st.integers(1, 4)),
            # tiny datasets half the time: share rounding bites there
            data_n=draw(st.one_of(st.integers(2, 24), st.integers(25, 160))),
            val_fraction=draw(st.sampled_from([0.1, 0.2, 0.5])),
            alpha=draw(st.sampled_from([1.0, 1.5, 2.0, 4.0, 8.0])),
            lam=draw(st.sampled_from([1.0, 1.25, 2.0, 3.0])),
            tau_f=draw(st.integers(1, 4)), batch_size=draw(st.integers(1, 8)),
            rounds=draw(st.integers(1, 2)), epochs=draw(st.sampled_from([0, 1])),
            base_lr=0.1, seeds=(draw(st.integers(0, 3)),))
        try:
            validate(cfg)
        except (ConfigError, InvalidLambdaError):
            return
        try:
            result = run(cfg)
        except DivergenceError:
            return
        assert result.per_seed[0].records


class TestFileData:
    def test_file_is_read_once_and_shared_read_only(self, tmp_path, monkeypatch):
        from hetsgd.core import RngStream
        from hetsgd.data import SyntheticSpec, make_synthetic, save_csv
        path = str(tmp_path / "blobs.csv")
        save_csv(make_synthetic(SyntheticSpec(n=240, input_dim=3, num_classes=3,
                                              separation=8.0), RngStream(5, 0)), path)
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
        from hetsgd.simclock import CostModel, run_timeline
        from hetsgd.workers import WorkerSpec
        local = small_cfg(rounds=4, tau_f=8, alpha=4.0)
        sync = small_cfg(algorithm="sync_sgd", rounds=32)
        wall_local = run(local).summary["total_sim_wall_s"]
        wall_sync = run(sync).summary["total_sim_wall_s"]
        assert wall_local < wall_sync
        cost = CostModel(0.1, 0.4, agg_cost=0.05)
        expect_local = run_timeline(4, [WorkerSpec(0, "slow", 2, 0.4, 16),
                                        WorkerSpec(1, "fast", 8, 0.1, 16)], cost)
        expect_sync = run_timeline(32, [WorkerSpec(0, "slow", 1, 0.4, 16),
                                        WorkerSpec(1, "fast", 1, 0.1, 16)], cost)
        assert wall_local == pytest.approx(expect_local.total_wall, rel=1e-9)
        assert wall_sync == pytest.approx(expect_sync.total_wall, rel=1e-9)


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
            "error: invalid-config: training split of 2 cannot cover 6 workers\n")
        assert not os.path.exists(tmp_path / "o")

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

    def test_timing_rows(self, capsys):
        rc = cli_main(["timing", bundled_config_path("demo")])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("worker,role,tau")
        assert len(lines) == 3  # header + 2 workers

    def test_gradcheck(self, capsys):
        # trial 159 has gradient entries near 2e-8: over a 1e-8 floor, the
        # finite differences' roundoff alone is a relative error of 2e-3
        assert cli_main(["gradcheck", "--trials", "200"]) == 0

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


# hostile values for raw config text; sizes are small or invalid, never a
# large valid size, which would allocate or train without bound.  10**12 is
# drawn only for the keys that size an array, where validate's cap rejects it.
_FLOAT_TOKENS = ["nan", "inf", "-inf", "-0", "0", "-1", "1e300", "", "abc"]
_BAD_SIZE_TOKENS = ["0", "-1", "1.5", "", "abc"]
_HUGE = "1000000000000"
_CAPPED_KEYS = {"data.n", "data.input_dim", "data.classes", "model.hidden", "profile.tau_f",
                "profile.p_s", "profile.p_f", "batch_size"}
_FLOAT_KEYS = ["data.separation", "data.sigma", "data.label_noise", "profile.alpha",
               "profile.lambda", "schedule.base_lr", "schedule.decay", "weight_decay",
               "val_fraction", "cost.iter_fast", "cost.iter_slow", "cost.agg"]
_CHOICE_KEYS = {
    "data.source": ["synthetic", "file"],
    "data.format": ["", "csv", "binary"],
    "model.kind": ["logistic_regression", "mlp2"],
    "algorithm": ["sync_sgd", "balanced_local", "unbalanced_unbiased", "biased_local"],
    "aggregation": ["balanced", "tau_weighted", "fednova"],
    "profile.sampler_mode": ["separated", "unified", "uniform"],
    "sampling.fast_draw": ["fresh", "epoch"],
    "sampling.cold_start": ["unseen-first", "uniform-first"],
    "schedule.kind": ["constant", "multistep", "cosine"],
}
_SIZE_KEYS = {  # small valid values
    "data.n": ["2", "5", "24", "60"], "data.input_dim": ["1", "3"],
    "data.classes": ["2", "3", "5"], "model.hidden": ["1", "4"],
    "profile.tau_f": ["1", "3"], "profile.p_s": ["1", "2"], "profile.p_f": ["1", "3"],
    "batch_size": ["1", "8"], "rounds": ["1", "2"], "epochs": ["0", "1"],
    "seeds": ["0", "3", "0,1"],
}
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
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture,
                                     HealthCheck.too_slow])
    def test_any_text_runs_or_fails_with_one_error_line(self, tmp_path, capsys, data):
        draw = data.draw
        for name, text in _DATA_FILES.items():
            (tmp_path / name).write_text(text)
        values = {}
        for key in draw(st.lists(st.sampled_from(
                _FLOAT_KEYS + list(_CHOICE_KEYS) + list(_SIZE_KEYS) + list(_OTHER_KEYS)),
                min_size=1, max_size=4, unique=True)):
            if key in _FLOAT_KEYS:
                values[key] = draw(st.sampled_from(_FLOAT_TOKENS))
            elif key in _CHOICE_KEYS:  # valid half the time
                values[key] = draw(st.sampled_from(_CHOICE_KEYS[key])
                                   | st.sampled_from(["bogus", ""]))
            elif key in _SIZE_KEYS:
                bad = _BAD_SIZE_TOKENS + [_HUGE] * (key in _CAPPED_KEYS)
                values[key] = draw(st.sampled_from(_SIZE_KEYS[key]) | st.sampled_from(bad))
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
        if rc == 0:
            assert err == ""
            with open(os.path.join(out, "metrics.csv")) as fh:
                for line in fh.read().splitlines()[1:]:
                    [float(cell) for cell in line.split(",")]  # not np.float64(...)
        else:
            assert rc == 2
            assert len(err.splitlines()) == 1 and err.startswith("error: ")
            code, _, detail = err[len("error: "):].partition(": ")
            if code == "invalid-value":  # only what validate cannot see
                assert detail.startswith(("seed ", str(tmp_path))), err

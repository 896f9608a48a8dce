"""Share formulas, samplers, loss ledger, and dataset I/O."""

import csv
import math
import os
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hetsgd.core import RngStream
from hetsgd.data import (Dataset, EpochCursor, InvalidLambdaError, LossLedger,
                         SyntheticSpec, assign, fast_per_worker, load_dataset, make_synthetic,
                         pool_size, pool_size_exact, record_losses, sample_separated,
                         save_binary, save_csv, share_sizes, slow_share_sizes, slow_total,
                         train_val_split, val_size)
from hetsgd.workers import SystemProfile


def profile(alpha=2.0, p_s=1, p_f=1, lam=2.0, tau_f=32, mode="separated"):
    return SystemProfile(alpha=alpha, p_s=p_s, p_f=p_f, lam=lam, tau_f=tau_f,
                         sampler_mode=mode)


def reference_load_csv(path):
    """The per-row ``csv.reader`` loader the one-pass parse replaced: the oracle."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty dataset file")
        if not header or header[0] != "label":
            raise ValueError(f"{path}: expected header starting with 'label'")
        dim = len(header) - 1
        labels, rows = [], []
        for lineno, rec in enumerate(reader, start=2):
            if len(rec) != dim + 1:
                raise ValueError(f"{path}:{lineno}: expected {dim + 1} fields")
            labels.append(int(rec[0]))
            rows.append([float(v) for v in rec[1:]])
    if not rows:
        raise ValueError(f"{path}: no data rows")
    features = np.asarray(rows)
    bad = np.flatnonzero(~np.isfinite(features).all(axis=1))
    if bad.size:
        raise ValueError(f"{path}:{int(bad[0]) + 2}: non-finite feature")
    labels = np.asarray(labels, dtype=np.int64)
    if labels.max() < 1:
        raise ValueError(f"{path}: need at least 2 classes")
    return Dataset(features, labels, int(labels.max()) + 1)


def top_k_oracle(losses, pool, k):
    """Independent full-sort selection: loss descending, index ascending."""
    ranked = sorted(pool.tolist(), key=lambda i: (-losses[i], i))
    return set(ranked[:k])


class TestShareFormulas:
    def test_pool_boundary_valid(self):
        assert pool_size(1000, 1, 1, 1.0, 2.0) == 1000

    def test_pool_direct_formula(self):
        assert pool_size(50000, 1, 1, 32.0, 2.0) == 3030

    def test_pool_na_condition_matches_tau_grid(self):
        # tau_F=32 with tau_S in {16, 4, 1} maps to alpha in {2, 8, 32}
        expect_valid = {
            2.0: {2.0},
            8.0: {2.0, 4.0, 8.0},
            32.0: {2.0, 4.0, 8.0, 16.0, 32.0},
        }
        for alpha, valid in expect_valid.items():
            for lam in (2.0, 4.0, 8.0, 16.0, 32.0):
                if lam in valid:
                    assert pool_size(50000, 1, 1, alpha, lam) <= 50000
                else:
                    with pytest.raises(InvalidLambdaError):
                        pool_size(50000, 1, 1, alpha, lam)

    def test_slow_total_symmetric(self):
        assert slow_total(1000, 1, 1, 1.0) == 500

    def test_slow_total_direct(self):
        assert slow_total(50000, 2, 8, 32.0) == 388

    def test_fast_per_worker(self):
        assert fast_per_worker(1000, 1, 1, 1.0) == 500
        assert fast_per_worker(900, 1, 1, 2.0) == 600

    def test_share_total_within_rounding_slack(self):
        rng = np.random.default_rng(0)
        for _ in range(10_000):
            n = int(rng.integers(10, 100_000))
            p_s = int(rng.integers(1, 5))
            p_f = int(rng.integers(1, 9))
            alpha = float(rng.uniform(1, 40))
            total = slow_total(n, p_s, p_f, alpha) + p_f * fast_per_worker(n, p_s, p_f, alpha)
            assert abs(total - n) <= p_s + p_f

    @given(st.integers(100, 100_000), st.floats(1.0, 8.0), st.floats(1.0, 40.0))
    @settings(max_examples=60, deadline=None)
    def test_pool_monotone_in_lam(self, n, lam, alpha):
        try:
            small = pool_size(n, 1, 1, alpha, lam)
            big = pool_size(n, 1, 1, alpha, min(lam * 1.5, 1 + alpha))
        except InvalidLambdaError:
            return
        assert big >= small

    def test_slow_total_independent_of_lam(self):
        # lam never enters the slow-total formula
        assert slow_total(12345, 2, 3, 7.0) == slow_total(12345, 2, 3, 7.0)

    def test_share_sizes_even(self):
        assert slow_share_sizes(5, 2) == [3, 2]
        assert slow_share_sizes(9, 3) == [3, 3, 3]
        assert slow_share_sizes(10, 3) == [4, 3, 3]


class TestSeparatedSampler:
    def test_slow_workers_get_planted_high_loss_set(self):
        n = 400
        prof = profile(alpha=1.0, p_s=1, p_f=1, lam=2.0)  # pool == n
        k_slow = slow_total(n, 1, 1, 1.0)
        ledger = LossLedger(n)
        planted = np.arange(7, 7 + k_slow)
        record_losses(ledger, np.arange(n), np.zeros(n), 0)
        record_losses(ledger, planted, np.full(k_slow, 10.0), 0)
        asn = sample_separated(ledger, prof, RngStream(0, 0))
        assert set(asn[0].tolist()) == set(planted.tolist())

    def test_all_unseen_ties_break_by_low_index(self):
        n = 100
        prof = profile(alpha=1.0, p_s=1, p_f=1, lam=2.0)  # pool == n
        ledger = LossLedger(n)
        asn = sample_separated(ledger, prof, RngStream(3, 0))
        k_slow = slow_total(n, 1, 1, 1.0)
        assert set(asn[0].tolist()) == set(range(k_slow))

    def test_round_robin_share_sizes(self):
        n = 1000
        prof = profile(alpha=2.0, p_s=2, p_f=1, lam=1.0)
        ledger = LossLedger(n)
        asn = sample_separated(ledger, prof, RngStream(1, 0))
        k_slow = slow_total(n, 2, 1, 2.0)
        sizes = sorted([asn[0].size, asn[1].size], reverse=True)
        want = slow_share_sizes(k_slow, 2)
        assert sizes == sorted(want, reverse=True)
        assert len(set(asn[0].tolist()) & set(asn[1].tolist())) == 0

    def test_matches_full_sort_oracle_100_ledgers(self):
        rng = np.random.default_rng(42)
        for trial in range(100):
            n = int(rng.integers(20, 10_000))
            p_s = int(rng.integers(1, 4))
            p_f = int(rng.integers(1, 4))
            alpha = float(rng.choice([1.0, 2.0, 4.0, 8.0]))
            lam = float(rng.choice([1.0, 1.5, 2.0]))
            if lam * p_s > p_s + alpha * p_f:
                continue
            prof = profile(alpha=alpha, p_s=p_s, p_f=p_f, lam=lam)
            ledger = LossLedger(n)
            seen = rng.integers(0, 2, n).astype(bool)
            if seen.any():
                ids = np.flatnonzero(seen)
                record_losses(ledger, ids, rng.uniform(0, 5, ids.size), 0)
            k_slow = slow_total(n, p_s, p_f, alpha)
            if k_slow < p_s:
                continue
            stream = RngStream(trial, 5)
            asn = sample_separated(ledger, prof, stream)
            got = set()
            for i in range(p_s):
                got |= set(asn[i].tolist())
            # replay the pool draw with an identical stream
            pool = RngStream(trial, 5).choose(n, pool_size(n, p_s, p_f, alpha, lam))
            assert got == top_k_oracle(ledger.last_loss, pool, k_slow)

    def test_fast_draws_may_overlap_slow(self):
        n = 60
        prof = profile(alpha=1.0, p_s=1, p_f=2, lam=1.5)
        ledger = LossLedger(n)
        overlap = False
        for seed in range(30):
            asn = sample_separated(ledger, prof, RngStream(seed, 0))
            slow = set(asn[0].tolist())
            for j in (1, 2):
                if slow & set(asn[j].tolist()):
                    overlap = True
            for j in (1, 2):
                assert len(set(asn[j].tolist())) == asn[j].size  # per-worker distinct
        assert overlap, "fast draws never overlapped the slow set across 30 rounds"

    def test_uniform_cold_start_randomizes_first_round(self):
        n = 200
        prof = profile(alpha=1.0, p_s=1, p_f=1, lam=2.0)
        ledger = LossLedger(n)
        asn = sample_separated(ledger, prof, RngStream(8, 0), cold_start="uniform-first")
        k_slow = slow_total(n, 1, 1, 1.0)
        assert asn[0].size == k_slow
        assert set(asn[0].tolist()) != set(range(k_slow))

    def test_deterministic_given_stream(self):
        n = 500
        prof = profile()
        ledger = LossLedger(n)
        a = sample_separated(ledger, prof, RngStream(9, 2))
        b = sample_separated(ledger, prof, RngStream(9, 2))
        assert len(a) == len(b) == prof.num_workers
        for got, want in zip(a, b):
            np.testing.assert_array_equal(got, want)


class TestUnifiedSampler:
    def test_fast_disjoint_from_planted_slow_set(self):
        n = 400
        prof = profile(alpha=1.0, p_s=1, p_f=1, lam=2.0, mode="unified")
        k_slow = slow_total(n, 1, 1, 1.0)
        ledger = LossLedger(n)
        planted = np.arange(11, 11 + k_slow)
        record_losses(ledger, np.arange(n), np.zeros(n), 0)
        record_losses(ledger, planted, np.full(k_slow, 9.0), 0)
        asn = assign(ledger, prof, RngStream(2, 0))
        assert set(asn[0].tolist()) == set(planted.tolist())
        assert not (set(asn[0].tolist()) & set(asn[1].tolist()))

    def test_single_fast_worker_gets_exact_complement(self):
        n = 100
        prof = profile(alpha=1.0, p_s=1, p_f=1, lam=2.0, mode="unified")
        ledger = LossLedger(n)
        asn = assign(ledger, prof, RngStream(4, 0))
        union = set(asn[0].tolist()) | set(asn[1].tolist())
        assert union == set(range(n))

    def test_globally_duplicate_free(self):
        n = 997
        prof = profile(alpha=4.0, p_s=2, p_f=3, lam=1.5, mode="unified")
        ledger = LossLedger(n)
        asn = assign(ledger, prof, RngStream(5, 0))
        allv = np.concatenate(asn)
        assert len(np.unique(allv)) == allv.size

    def test_fast_share_repaired_when_rounding_overshoots(self):
        # N=50000, P_S=2, P_F=8, alpha=32: rounded shares overshoot N by 4
        n, p_s, p_f, alpha = 50_000, 2, 8, 32.0
        assert slow_total(n, p_s, p_f, alpha) + p_f * fast_per_worker(n, p_s, p_f, alpha) > n
        prof = profile(alpha=alpha, p_s=p_s, p_f=p_f, lam=1.0, mode="unified")
        ledger = LossLedger(n)
        asn = assign(ledger, prof, RngStream(6, 0))
        allv = np.concatenate(asn)
        assert len(np.unique(allv)) == allv.size
        assert allv.size <= n
        _, _, k_fast = share_sizes(n, prof)
        assert k_fast == (n - slow_total(n, p_s, p_f, alpha)) // p_f
        assert [a.size for a in asn[p_s:]] == [k_fast] * p_f


class TestShareSizes:
    @pytest.mark.parametrize("mode", ["separated", "unified", "uniform"])
    def test_assign_hands_out_the_rule_sizes_in_worker_order(self, mode):
        rng = np.random.default_rng(17)
        for trial in range(40):
            n = int(rng.integers(8, 400))
            prof = profile(alpha=float(rng.choice([1.0, 2.0, 4.0])),
                           p_s=int(rng.integers(1, 4)), p_f=int(rng.integers(1, 4)),
                           lam=1.0, mode=mode)
            try:
                pool, slow, fast = share_sizes(n, prof)
            except ValueError:
                continue
            assert pool == (0 if mode == "uniform" else
                            pool_size(n, prof.p_s, prof.p_f, prof.alpha, prof.lam))
            asn = assign(LossLedger(n), prof, RngStream(trial, 0))
            assert [a.size for a in asn] == slow + [fast] * prof.p_f

    def test_infeasible_shares_rejected(self):
        with pytest.raises(ValueError, match="^training split of 3 cannot cover 4 workers$"):
            share_sizes(3, profile(p_s=2, p_f=2))
        with pytest.raises(InvalidLambdaError):
            share_sizes(100, profile(alpha=2.0, lam=4.0))
        share_sizes(100, profile(alpha=2.0, lam=4.0, mode="uniform"))  # no pool
        with pytest.raises(ValueError, match="slow worker without samples"):
            share_sizes(16, profile(alpha=32.0, lam=1.0))

    @pytest.mark.parametrize("mode", ["separated", "unified", "uniform"])
    def test_no_fast_worker_rejected(self, mode):
        # SystemProfile refuses p_f = 0 itself; the share rule must too
        prof = SimpleNamespace(p_s=1, p_f=0, alpha=2.0, lam=2.0, sampler_mode=mode)
        with pytest.raises(ValueError, match="P_F >= 1"):
            share_sizes(100, prof)
        with pytest.raises(ValueError, match="P_F >= 1"):
            pool_size(100, 1, 0, 2.0, 2.0)
        with pytest.raises(ValueError, match="P_F >= 1"):
            fast_per_worker(100, 1, 0, 2.0)

    @given(n=st.integers(2, 2000), p_s=st.integers(1, 6), p_f=st.integers(1, 6),
           alpha=st.floats(1.0, 64.0), mode=st.sampled_from(["separated", "unified",
                                                              "uniform"]))
    @settings(max_examples=300, deadline=None)
    def test_every_fast_worker_gets_a_sample_once_n_covers_the_workers(
            self, n, p_s, p_f, alpha, mode):
        prof = profile(alpha=alpha, p_s=p_s, p_f=p_f, lam=1.0, mode=mode)
        if n < prof.num_workers or slow_total(n, p_s, p_f, alpha) < p_s:
            return
        _, slow, fast = share_sizes(n, prof)
        assert fast >= 1
        assert sum(slow) + (p_f * fast if mode == "unified" else 0) <= n

    def test_val_size(self):
        assert val_size(20, 0.2) == 4
        assert val_size(5, 0.1) == 1  # never empty
        assert val_size(10, 0.25) == 3  # 2.5 rounds half up
        train, val = train_val_split(
            make_synthetic(SyntheticSpec(n=10, input_dim=1, num_classes=2), RngStream(0, 0)),
            0.25, RngStream(0, 1))
        assert (train.n, val.n) == (7, 3)


class TestUniformSampler:
    def test_share_counts(self):
        n = 990
        prof = profile(alpha=2.0, p_s=2, p_f=2, lam=1.0, mode="uniform")
        ledger = LossLedger(n)
        asn = assign(ledger, prof, RngStream(0, 0))
        k_slow = slow_total(n, 2, 2, 2.0)
        k_fast = fast_per_worker(n, 2, 2, 2.0)
        assert asn[0].size + asn[1].size == k_slow
        assert asn[2].size == asn[3].size == k_fast

    def test_pool_inclusion_uniformity(self):
        # N=20, draw 10: each index should appear with frequency 1/2
        n, k, rounds = 20, 10, 100_000
        stream = RngStream(31, 0)
        counts = np.zeros(n)
        for _ in range(rounds):
            counts[stream.choose(n, k)] += 1
        p = k / n
        sigma = math.sqrt(rounds * p * (1 - p))
        assert np.all(np.abs(counts - rounds * p) < 3 * sigma)


class TestLossLedger:
    def test_record_and_read_back(self):
        ledger = LossLedger(10)
        record_losses(ledger, [3, 5], [1.5, 2.5], 4)
        assert ledger.last_loss[3] == 1.5
        assert ledger.last_loss[5] == 2.5
        assert ledger.last_round[3] == 4
        assert ledger.last_round[5] == 4
        assert math.isinf(ledger.last_loss[0])

    def test_duplicate_id_last_write_wins(self):
        ledger = LossLedger(5)
        record_losses(ledger, [2, 2, 2], [9.0, 5.0, 1.0], 0)
        assert ledger.last_loss[2] == 1.0

    def test_worker_order_merge(self):
        # harness merges ascending by worker id: later call overwrites
        ledger = LossLedger(5)
        record_losses(ledger, [1], [3.0], 0)
        record_losses(ledger, [1], [7.0], 0)
        assert ledger.last_loss[1] == 7.0

    def test_one_concatenated_merge_equals_per_worker_merges(self):
        rng = np.random.default_rng(4)
        n = 50
        ids = [rng.integers(0, n, int(rng.integers(1, 40))) for _ in range(5)]
        losses = [rng.uniform(0, 3, i.size) for i in ids]
        one, many = LossLedger(n), LossLedger(n)
        record_losses(one, np.concatenate(ids), np.concatenate(losses), 2)
        for i, l in zip(ids, losses):
            record_losses(many, i, l, 2)
        assert one.last_loss.tobytes() == many.last_loss.tobytes()
        np.testing.assert_array_equal(one.last_round, many.last_round)

    def test_out_of_range_id_rejected(self):
        with pytest.raises(ValueError, match="range"):
            record_losses(LossLedger(3), [3], [1.0], 0)

    def test_negative_loss_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            record_losses(LossLedger(3), [0], [-1.0], 0)

    def test_mean_seen(self):
        ledger = LossLedger(4)
        assert math.isnan(ledger.mean_seen())
        record_losses(ledger, [0, 1], [2.0, 4.0], 0)
        assert ledger.mean_seen() == 3.0


class TestEpochCursor:
    def test_covers_everything_each_epoch(self):
        cursor = EpochCursor(30, RngStream(0, 0))
        seen = np.concatenate([cursor.take(10) for _ in range(3)])
        assert sorted(seen.tolist()) == list(range(30))

    def test_boundary_take_is_duplicate_free(self):
        cursor = EpochCursor(10, RngStream(1, 0))
        cursor.take(7)
        chunk = cursor.take(8)  # spans the reshuffle boundary
        assert len(set(chunk.tolist())) == 8

    def test_oversize_take_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            EpochCursor(5, RngStream(0, 0)).take(6)

    def test_matches_one_at_a_time_walk_across_many_epochs(self):
        def reference_take(state, k):
            # the element-by-element walk: finish the permutation, reshuffle,
            # then skip entries of the fresh one already taken this call
            perm, pos, stream, n = state["perm"], state["pos"], state["stream"], state["n"]
            if k <= n - pos:
                state["pos"] = pos + k
                return perm[pos:pos + k]
            head = perm[pos:]
            perm, pos = stream.permutation(n), 0
            rest = []
            while len(rest) < k - head.shape[0]:
                if perm[pos] not in head:
                    rest.append(perm[pos])
                pos += 1
            state["perm"], state["pos"] = perm, pos
            return np.concatenate([head, np.asarray(rest, dtype=perm.dtype)])

        rng = np.random.default_rng(8)
        for n in (1, 2, 7, 13):
            cursor = EpochCursor(n, RngStream(n, 3))
            stream = RngStream(n, 3)
            state = {"perm": stream.permutation(n), "pos": 0, "stream": stream, "n": n}
            for _ in range(300):
                k = int(rng.integers(0, n + 1))
                got, want = cursor.take(k), reference_take(state, k)
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)
                assert cursor._pos == state["pos"]
                assert len(set(got.tolist())) == k


class TestSyntheticData:
    def test_shapes_and_labels(self):
        spec = SyntheticSpec(n=120, input_dim=3, num_classes=4)
        ds = make_synthetic(spec, RngStream(0, 0))
        assert ds.features.shape == (120, 3)
        assert ds.labels.min() >= 0 and ds.labels.max() < 4

    def test_separable_blobs_trainable_to_99(self):
        from hetsgd.models import Batch, ModelSpec, accuracy, backward, init_params
        spec = SyntheticSpec(n=1000, input_dim=2, num_classes=2, separation=10.0, sigma=1.0)
        ds = make_synthetic(spec, RngStream(7, 0))
        mspec = ModelSpec("logistic_regression", 2, 2)
        params = init_params(mspec, RngStream(7, 1))
        batch = Batch(ds.features, ds.labels, np.arange(ds.n))
        for _ in range(200):
            params = params - 0.5 * backward(mspec, params, batch)
        assert accuracy(mspec, params, [batch]) >= 0.99

    def test_label_noise_rate(self):
        clean = SyntheticSpec(n=20_000, input_dim=2, num_classes=2, label_noise=0.0)
        noisy = SyntheticSpec(n=20_000, input_dim=2, num_classes=2, label_noise=0.1)
        a = make_synthetic(clean, RngStream(3, 0))
        b = make_synthetic(noisy, RngStream(3, 0))
        flipped = float(np.mean(a.labels != b.labels))
        assert abs(flipped - 0.1) < 0.01

    def test_explicit_means_respected(self):
        means = np.array([[0.0, 0.0], [100.0, 100.0]])
        spec = SyntheticSpec(n=200, input_dim=2, num_classes=2, means=means, sigma=0.1)
        ds = make_synthetic(spec, RngStream(1, 0))
        c1 = ds.features[ds.labels == 1]
        assert np.all(c1.mean(axis=0) > 90)


class TestDatasetIO:
    def test_csv_round_trip(self, tmp_path):
        ds = make_synthetic(SyntheticSpec(n=40, input_dim=3, num_classes=3), RngStream(0, 0))
        path = str(tmp_path / "data.csv")
        save_csv(ds, path)
        back = load_dataset(path, "csv")
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.labels, ds.labels)

    def test_binary_round_trip_f32(self, tmp_path):
        ds = make_synthetic(SyntheticSpec(n=25, input_dim=2, num_classes=2), RngStream(1, 0))
        path = str(tmp_path / "data.bin")
        save_binary(ds, path)
        back = load_dataset(path, "binary")
        np.testing.assert_array_equal(back.features,
                                      ds.features.astype(np.float32).astype(np.float64))
        np.testing.assert_array_equal(back.labels, ds.labels)
        assert back.num_classes == ds.num_classes

    def test_format_sniffing(self, tmp_path):
        ds = make_synthetic(SyntheticSpec(n=10, input_dim=2, num_classes=2), RngStream(2, 0))
        bin_path, csv_path = str(tmp_path / "d.bin"), str(tmp_path / "d.csv")
        save_binary(ds, bin_path)
        save_csv(ds, csv_path)
        assert load_dataset(bin_path).n == 10
        assert load_dataset(csv_path).n == 10

    def test_empty_file_rejected(self, tmp_path):
        path = str(tmp_path / "empty.csv")
        open(path, "w").close()
        with pytest.raises(ValueError, match="empty"):
            load_dataset(path, "csv")

    def test_bad_header_rejected(self, tmp_path):
        path = str(tmp_path / "bad.csv")
        with open(path, "w") as fh:
            fh.write("x,y\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            load_dataset(path, "csv")

    def test_non_finite_csv_feature_located(self, tmp_path):
        path = str(tmp_path / "nan.csv")
        with open(path, "w") as fh:
            fh.write("label,f0,f1\n0,0.5,1.0\n1,1.5,2.0\n0,nan,0.0\n1,0.1,0.2\n")
        with pytest.raises(ValueError, match=f"^{re.escape(path)}:4: non-finite feature$"):
            load_dataset(path, "csv")

    def test_non_finite_binary_feature_rejected(self, tmp_path):
        ds = make_synthetic(SyntheticSpec(n=25, input_dim=2, num_classes=2), RngStream(1, 0))
        ds.features[7, 1] = np.inf
        path = str(tmp_path / "d.bin")
        save_binary(ds, path)
        with pytest.raises(ValueError, match=f"^{re.escape(path)}: non-finite feature$"):
            load_dataset(path)

    def test_truncated_binary_rejected(self, tmp_path):
        ds = make_synthetic(SyntheticSpec(n=25, input_dim=2, num_classes=2), RngStream(1, 0))
        path = str(tmp_path / "d.bin")
        save_binary(ds, path)
        with open(path, "rb") as fh:
            data = fh.read()
        with open(path, "wb") as fh:
            fh.write(data[:-10])
        with pytest.raises(ValueError, match="truncated"):
            load_dataset(path)

    def test_single_class_binary_rejected(self, tmp_path):
        path = str(tmp_path / "d.bin")
        save_binary(Dataset(np.ones((4, 2)), np.zeros(4, dtype=np.int64), 1), path)
        with pytest.raises(ValueError, match=f"^{re.escape(path)}: need at least 2 classes$"):
            load_dataset(path)


# finite features the loader must read back bit for bit
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e-300,
                1e300, -1e300, 1.7976931348623157e308, -1.7976931348623157e308]


def _write(path, text):
    with open(path, "w", newline="") as fh:
        fh.write(text)
    return str(path)


class TestCsvLoaderOracle:
    @given(data=st.data())
    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_matches_the_reference_loader(self, tmp_path, data):
        draw = data.draw
        n, dim, classes = draw(st.integers(1, 12)), draw(st.integers(1, 5)), draw(st.integers(1, 4))
        value = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                          st.sampled_from(_EDGE_FLOATS))
        spelling = st.sampled_from([repr, "{:.17e}".format, "{:.17g}".format])
        quoted = st.booleans() if draw(st.booleans()) else st.just(False)

        def field(token):
            return f'"{token}"' if draw(quoted) else token

        eol = draw(st.sampled_from(["\n", "\r\n"]))
        lines = ["label," + ",".join(f"f{i}" for i in range(dim))]
        for _ in range(n):
            label = str(draw(st.integers(0, classes - 1)))
            feats = [draw(spelling)(draw(value)) for _ in range(dim)]
            lines.append(",".join(field(t) for t in [label] + feats))
        path = _write(tmp_path / "d.csv", eol.join(lines) + (eol if draw(st.booleans()) else ""))

        try:
            want = reference_load_csv(path)
        except ValueError as exc:  # a single-class file
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                load_dataset(path, "csv")
            return
        got = load_dataset(path, "csv")
        assert got.features.shape == want.features.shape
        assert got.features.tobytes() == want.features.tobytes()
        np.testing.assert_array_equal(got.labels, want.labels)
        assert got.num_classes == want.num_classes

    def test_saved_file_matches_the_reference_loader(self, tmp_path):
        ds = make_synthetic(SyntheticSpec(n=2000, input_dim=16, num_classes=3,
                                          label_noise=0.1), RngStream(3, 0))
        path = str(tmp_path / "d.csv")
        save_csv(ds, path)
        got, want = load_dataset(path), reference_load_csv(path)
        assert got.features.tobytes() == want.features.tobytes()
        assert got.labels.tobytes() == want.labels.tobytes()
        assert got.features.flags.c_contiguous and got.labels.flags.c_contiguous


# (file text, line of the located error or None for a whole-file error)
_REJECTED = {
    "empty file": ("", None),
    "header only": ("label,f0,f1\n", None),
    "bad header": ("x,f0,f1\n0,1,2\n", None),
    "short row": ("label,f0,f1\n0,1,2\n1,2\n", 3),
    "extra field": ("label,f0,f1\n0,1,2\n1,2,3,4\n", 3),
    "blank middle line": ("label,f0,f1\n0,1,2\n\n1,2,3\n", 3),
    "trailing blank line": ("label,f0,f1\n0,1,2\n1,2,3\n\n", 4),
    "nan feature": ("label,f0,f1\n0,1,2\n1,nan,3\n", 3),
    "inf feature": ("label,f0,f1\n0,1,2\n1,2,inf\n", 3),
    "abc feature": ("label,f0,f1\n0,1,2\n1,abc,3\n0,1,2\n", 3),
    "x label": ("label,f0,f1\n0,1,2\n0,1,2\nx,2,3\n", 4),
    "1.0 label": ("label,f0,f1\r\n0,1,2\r\n1.0,2,3\r\n", 3),
    "# inside a row": ("label,f0,f1\n0,1,2\n1,2 # note,3\n", 3),
    "negative label": ("label,f0,f1\n0,1,2\n1,2,3\n-1,2,3\n0,1,2\n-1,0,0\n", 4),
    "single class": ("label,f0,f1\n0,1,2\n0,2,3\n", None),
}


class TestCsvRejections:
    @pytest.mark.parametrize("case", list(_REJECTED))
    def test_rejected_like_the_reference_and_located(self, tmp_path, case):
        text, line = _REJECTED[case]
        path = _write(tmp_path / "d.csv", text)
        with pytest.raises(ValueError):
            reference_load_csv(path)
        with pytest.raises(ValueError) as err:
            load_dataset(path, "csv")
        if line is None:
            assert str(err.value).startswith(f"{path}: ")
        else:
            assert re.match(f"^{re.escape(path)}:{line}: ", str(err.value))

    @pytest.mark.parametrize("token", ["1_0.5", "\u0661\u0662"])
    def test_spellings_only_python_accepts_are_located_rejections(self, tmp_path, token):
        # deliberate narrowing: float() takes digit separators and non-ASCII
        # digits, numpy's parser does not
        path = _write(tmp_path / "d.csv", f"label,f0\n0,1.5\n1,{token}\n")
        assert reference_load_csv(path).n == 2
        with pytest.raises(ValueError, match=f"^{re.escape(path)}:3: could not convert"):
            load_dataset(path, "csv")


class TestTrainValSplit:
    def test_sizes_and_disjointness(self):
        ds = make_synthetic(SyntheticSpec(n=100, input_dim=2, num_classes=2), RngStream(0, 0))
        train, val = train_val_split(ds, 0.2, RngStream(0, 1))
        assert val.n == 20 and train.n == 80

    def test_deterministic_per_stream(self):
        ds = make_synthetic(SyntheticSpec(n=50, input_dim=2, num_classes=2), RngStream(0, 0))
        t1, _ = train_val_split(ds, 0.2, RngStream(5, 1))
        t2, _ = train_val_split(ds, 0.2, RngStream(5, 1))
        np.testing.assert_array_equal(t1.features, t2.features)

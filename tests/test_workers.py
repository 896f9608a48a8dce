"""Local training loops, update-count derivation, and schedules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetsgd.core import RngStream, log_softmax
from hetsgd.data import make_synthetic, SyntheticSpec
from hetsgd.models import Batch, ModelSpec, backward, init_params
from hetsgd.workers import (DivergenceError, LrSchedule, SystemProfile, WorkerSpec,
                            derive_tau_s, lr_at, measure_alpha, train_round)


def reference_loss_and_grad(spec, params, batch):
    """One batch's per-sample losses and gradient, written for a single model.

    The reference the stacked kernel is held to: plain 2-D arrays and one
    ``np.concatenate``, as the per-worker loop computed them.
    """
    x = batch.features
    n = len(batch)
    rows = np.arange(n)
    d, c, h = spec.input_dim, spec.num_classes, spec.hidden_dim
    if spec.kind == "logistic_regression":
        w, b = params[:d * c].reshape(d, c), params[d * c:]
        logp = log_softmax(x @ w + b)
        per_sample = -logp[rows, batch.labels]
        dlogits = np.exp(logp)
        dlogits[rows, batch.labels] -= 1.0
        dlogits /= n
        return per_sample, np.concatenate([(x.T @ dlogits).ravel(), dlogits.sum(axis=0)])
    w1 = params[:d * h].reshape(d, h)
    b1 = params[d * h:d * h + h]
    w2 = params[d * h + h:d * h + h + h * c].reshape(h, c)
    b2 = params[d * h + h + h * c:]
    z1 = x @ w1 + b1
    a1 = np.maximum(z1, 0.0)
    logp = log_softmax(a1 @ w2 + b2)
    per_sample = -logp[rows, batch.labels]
    dlogits = np.exp(logp)
    dlogits[rows, batch.labels] -= 1.0
    dlogits /= n
    dz1 = (dlogits @ w2.T) * (z1 > 0.0)
    grad = np.concatenate([(x.T @ dz1).ravel(), dz1.sum(axis=0),
                           (a1.T @ dlogits).ravel(), dlogits.sum(axis=0)])
    return per_sample, grad


def reference_local_train(spec, start_params, dataset, assigned, tau, lr, batch_size,
                          stream, weight_decay=0.0):
    """One worker's round, one step at a time: the oracle for ``train_round``."""
    assigned = np.asarray(assigned, dtype=np.int64)
    params = start_params.copy()
    order = assigned[stream.permutation(assigned.shape[0])]
    pos = 0
    seen_ids, seen_losses = [], []
    for _ in range(tau):
        if pos >= order.shape[0]:
            order = assigned[stream.permutation(assigned.shape[0])]
            pos = 0
        ids = order[pos:pos + batch_size]
        pos += ids.shape[0]
        batch = Batch(dataset.features[ids], dataset.labels[ids], ids)
        per_sample, grad = reference_loss_and_grad(spec, params, batch)
        if weight_decay:
            grad = grad + weight_decay * params
        params -= lr * grad
        seen_ids.append(ids)
        seen_losses.append(per_sample)
    return params, np.concatenate(seen_ids), np.concatenate(seen_losses), tau


def train_one(spec, start_params, dataset, assigned, tau, lr, batch_size, stream,
              weight_decay=0.0):
    """One worker's round: ``train_round`` on a one-worker stack, unstacked."""
    end, ids, losses, steps = train_round(spec, start_params, dataset, [assigned], [tau], lr,
                                          batch_size, [stream], weight_decay)
    return end[0], ids[0], losses[0], steps


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.fixture
def tiny_task():
    ds = make_synthetic(SyntheticSpec(n=64, input_dim=2, num_classes=2, separation=4.0),
                        RngStream(0, 0))
    spec = ModelSpec("logistic_regression", 2, 2)
    params = init_params(spec, RngStream(0, 1))
    return spec, params, ds


class TestDeriveTauS:
    def test_half_speed(self):
        assert derive_tau_s(32, 2.0) == 16

    def test_extreme_ratio_floors_at_one(self):
        assert derive_tau_s(32, 33.0) == 1

    def test_homogeneous_is_identity(self):
        assert derive_tau_s(32, 1.0) == 32

    def test_rounding_half_up(self):
        assert derive_tau_s(32, 12.8) == 3  # 2.5 rounds up

    def test_alpha_below_one_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            derive_tau_s(32, 0.5)


class TestMeasureAlpha:
    def test_measured_iteration_times(self):
        got = measure_alpha([0.1940], [6.5230])
        assert got == pytest.approx(33.62, abs=0.01)

    def test_equal_means(self):
        assert measure_alpha([0.3, 0.5], [0.4, 0.4]) == pytest.approx(1.0)

    def test_two_sample_means(self):
        assert measure_alpha([0.1, 0.3], [0.4, 0.4]) == pytest.approx(2.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="measurement"):
            measure_alpha([], [0.1])


class TestSystemProfile:
    def test_tau_s_derived(self):
        prof = SystemProfile(alpha=4.0, p_s=1, p_f=2, lam=2.0, tau_f=32)
        assert prof.tau_s == 8

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="sampler_mode"):
            SystemProfile(alpha=1.0, p_s=1, p_f=1, lam=1.0, tau_f=1, sampler_mode="greedy")


class TestLocalTrain:
    def test_single_full_batch_step_equals_one_gradient_step(self, tiny_task):
        spec, params, ds = tiny_task
        assigned = np.arange(ds.n)
        lr = 0.3
        end, ids, losses, steps = train_one(spec, params, ds, assigned, tau=1,
                                            lr=lr, batch_size=ds.n,
                                            stream=RngStream(1, 0))
        # same permuted batch, explicitly unrolled
        perm = RngStream(1, 0).permutation(ds.n)
        batch = Batch(ds.features[assigned[perm]], ds.labels[assigned[perm]], assigned[perm])
        expected = params - lr * backward(spec, params, batch)
        np.testing.assert_array_equal(end, expected)
        assert steps == 1
        assert ids.size == ds.n

    def test_zero_lr_keeps_params_but_records_losses(self, tiny_task):
        spec, params, ds = tiny_task
        end, ids, losses, _ = train_one(spec, params, ds, np.arange(ds.n), tau=3,
                                        lr=0.0, batch_size=16, stream=RngStream(2, 0))
        np.testing.assert_array_equal(end, params)
        assert ids.size == 3 * 16
        assert np.all(losses >= 0)

    def test_three_steps_match_hand_unrolled_oracle(self, tiny_task):
        spec, params, ds = tiny_task
        assigned = np.arange(20)
        lr, bs = 0.2, 8
        end, _, _, _ = train_one(spec, params, ds, assigned, tau=3, lr=lr,
                                 batch_size=bs, stream=RngStream(3, 0))
        # unroll with identical stream and the same boundary policy: a short
        # batch finishes the epoch, then the permutation is redrawn
        stream = RngStream(3, 0)
        order = assigned[stream.permutation(20)]
        pos = 0
        p = params.copy()
        for _ in range(3):
            if pos >= order.size:
                order = assigned[stream.permutation(20)]
                pos = 0
            ids = order[pos:pos + bs]
            pos += ids.size
            batch = Batch(ds.features[ids], ds.labels[ids], ids)
            p = p - lr * backward(spec, p, batch)
        np.testing.assert_array_equal(end, p)

    def test_cycles_with_reshuffle_when_budget_exceeds_assignment(self, tiny_task):
        spec, params, ds = tiny_task
        assigned = np.arange(10)
        end, ids, _, _ = train_one(spec, params, ds, assigned, tau=5, lr=0.1,
                                   batch_size=4, stream=RngStream(4, 0))
        assert ids.size == 5 * 4 - 2  # one short batch of 2 at the epoch boundary
        assert set(ids.tolist()) == set(range(10))  # full coverage each epoch

    def test_reproducible(self, tiny_task):
        spec, params, ds = tiny_task
        r1 = train_one(spec, params, ds, np.arange(30), 4, 0.1, 8, RngStream(5, 0))
        r2 = train_one(spec, params, ds, np.arange(30), 4, 0.1, 8, RngStream(5, 0))
        np.testing.assert_array_equal(r1[0], r2[0])
        np.testing.assert_array_equal(r1[1], r2[1])
        np.testing.assert_array_equal(r1[2], r2[2])

    def test_weight_decay_applied_after_gradient(self, tiny_task):
        spec, params, ds = tiny_task
        assigned = np.arange(ds.n)
        lr, wd = 0.3, 0.01
        end, _, _, _ = train_one(spec, params, ds, assigned, 1, lr, ds.n,
                                 RngStream(6, 0), weight_decay=wd)
        perm = RngStream(6, 0).permutation(ds.n)
        batch = Batch(ds.features[perm], ds.labels[perm], perm)
        expected = params - lr * (backward(spec, params, batch) + wd * params)
        np.testing.assert_array_equal(end, expected)

    def test_empty_assignment_rejected(self, tiny_task):
        spec, params, ds = tiny_task
        with pytest.raises(ValueError, match="empty"):
            train_one(spec, params, ds, np.array([], dtype=int), 1, 0.1, 4,
                      RngStream(0, 0))

    def test_loss_records_newest_last(self, tiny_task):
        spec, params, ds = tiny_task
        # tau large enough to revisit samples; last occurrence must reflect
        # the most recent forward pass
        _, ids, losses, _ = train_one(spec, params, ds, np.arange(8), 4, 0.5, 8,
                                      RngStream(7, 0))
        last = {}
        for i, l in zip(ids.tolist(), losses.tolist()):
            last[i] = l
        # replay: the final recorded value for each id comes from its last batch
        seen_order = list(zip(ids.tolist(), losses.tolist()))
        for i, l in last.items():
            assert (i, l) in seen_order[-16:]  # within the last two batches


class TestTrainRound:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_per_worker_oracle(self, data):
        # assignments as short as one sample and up to three batches and a
        # bit: short batches, reshuffles, and steps where workers of one
        # round take batches of different lengths
        kind = data.draw(st.sampled_from(["logistic_regression", "mlp2"]))
        p = data.draw(st.integers(1, 8))
        # sorted: the kernel takes workers in plan order, slow (small tau) first
        taus = sorted(data.draw(st.lists(st.integers(1, 6), min_size=p, max_size=p)))
        batch_size = data.draw(st.integers(1, 6))
        sizes = data.draw(st.lists(st.integers(1, 3 * batch_size + 2), min_size=p,
                                   max_size=p))
        weight_decay = data.draw(st.sampled_from([0.0, 0.01]))
        seed = data.draw(st.integers(0, 2**16))
        ds = make_synthetic(SyntheticSpec(n=40, input_dim=3, num_classes=3),
                            RngStream(seed, 0))
        spec = ModelSpec(kind, 3, 3, hidden_dim=5 if kind == "mlp2" else 0)
        params = init_params(spec, RngStream(seed, 1))
        assignments = [RngStream(seed, 2 + i).choose(ds.n, k) for i, k in enumerate(sizes)]
        streams = [RngStream(seed, 100 + i) for i in range(p)]
        end, ids, losses, steps = train_round(spec, params, ds, assignments, taus, 0.3,
                                              batch_size, streams, weight_decay)
        assert end.shape == (p, params.shape[0])
        assert steps == sum(taus)
        for i in range(p):
            oracle_stream = RngStream(seed, 100 + i)
            want = reference_local_train(spec, params, ds, assignments[i], taus[i], 0.3,
                                         batch_size, oracle_stream, weight_decay)
            assert_same_bits(end[i], want[0])
            assert_same_bits(ids[i], want[1])
            assert_same_bits(losses[i], want[2])
            # both consumed the worker's stream to the same point
            assert_same_bits(streams[i].permutation(8), oracle_stream.permutation(8))

    def test_duplicate_id_in_a_batch_rejected(self, tiny_task):
        spec, params, ds = tiny_task
        assignments = [np.arange(4), np.array([5, 5, 6, 7])]
        with pytest.raises(ValueError, match="worker 1 step 0: sample ids must be distinct"):
            train_round(spec, params, ds, assignments, [1, 1], 0.1, 4,
                        [RngStream(0, 0), RngStream(0, 1)])

    def test_decreasing_taus_rejected(self, tiny_task):
        spec, params, ds = tiny_task
        streams = [RngStream(0, i) for i in range(3)]
        with pytest.raises(ValueError, match="taus must not decrease"):
            train_round(spec, params, ds, [np.arange(8)] * 3, [2, 4, 3], 0.1, 4, streams)

    def test_non_finite_step_raises_divergence_error(self, tiny_task):
        spec, params, ds = tiny_task
        huge = params + 1e308
        with pytest.raises(DivergenceError, match="^worker 0 step 0: non-finite"):
            train_round(spec, huge, ds, [np.arange(8)] * 2, [1, 2], 0.1, 4,
                        [RngStream(0, 0), RngStream(0, 1)])


class TestWorkerSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="role"):
            WorkerSpec(0, "medium", 1, 0.1, 32)
        with pytest.raises(ValueError, match="tau"):
            WorkerSpec(0, "fast", 0, 0.1, 32)
        with pytest.raises(ValueError, match="iter_cost"):
            WorkerSpec(0, "fast", 1, 0.0, 32)


class TestLrSchedules:
    def test_constant(self):
        s = LrSchedule("constant", 0.1)
        assert lr_at(s, 0) == lr_at(s, 999) == 0.1

    def test_multistep_table_value(self):
        s = LrSchedule("multistep", 0.1, milestones=(60, 80))
        assert lr_at(s, 0) == pytest.approx(0.1)
        assert lr_at(s, 59) == pytest.approx(0.1)
        assert lr_at(s, 60) == pytest.approx(0.01)
        assert lr_at(s, 70) == pytest.approx(0.01)
        assert lr_at(s, 80) == pytest.approx(0.001)

    def test_cosine_endpoints(self):
        s = LrSchedule("cosine", 0.2, total_rounds=100)
        assert lr_at(s, 0) == pytest.approx(0.2)
        assert lr_at(s, 50) == pytest.approx(0.1, abs=1e-12)

    def test_cosine_horizon_enforced(self):
        s = LrSchedule("cosine", 0.2, total_rounds=10)
        with pytest.raises(ValueError, match="horizon"):
            lr_at(s, 10)

    def test_milestones_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            LrSchedule("multistep", 0.1, milestones=(80, 60))

    def test_positive_everywhere(self):
        s = LrSchedule("cosine", 1.0, total_rounds=50)
        assert all(lr_at(s, r) > 0 for r in range(50))

"""Local training loops, update-count derivation, and schedules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hetsgd.workers
from hetsgd.core import RngStream
from hetsgd.data import Dataset, make_synthetic, SyntheticSpec
from hetsgd.models import Batch, ModelSpec, backward, init_params
from hetsgd.config import ConfigError, ExperimentConfig, validate
from hetsgd.workers import (DivergenceError, SystemProfile, derive_tau_s, lr_schedule,
                            train_round)
from test_models import reference_log_softmax


def reference_lr_at(kind, base_lr, milestones, decay, total_rounds, round_idx):
    """One round's learning rate, computed alone: the oracle for ``lr_schedule``."""
    if round_idx < 0:
        raise ValueError("round index must be nonnegative")
    if kind == "constant":
        lr = base_lr
    elif kind == "multistep":
        hits = sum(1 for m in milestones if m <= round_idx)
        lr = base_lr * decay ** hits
    elif round_idx >= total_rounds:
        raise ValueError(f"round {round_idx} beyond cosine horizon {total_rounds}")
    else:
        lr = 0.5 * base_lr * (1.0 + np.cos(np.pi * round_idx / total_rounds))
    return float(lr)


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
        logp = reference_log_softmax(x @ w + b)
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
    logp = reference_log_softmax(a1 @ w2 + b2)
    per_sample = -logp[rows, batch.labels]
    dlogits = np.exp(logp)
    dlogits[rows, batch.labels] -= 1.0
    dlogits /= n
    dz1 = (dlogits @ w2.T) * (z1 > 0.0)
    grad = np.concatenate([(x.T @ dz1).ravel(), dz1.sum(axis=0),
                           (a1.T @ dlogits).ravel(), dlogits.sum(axis=0)])
    return per_sample, grad


def reference_local_train(spec, start_params, dataset, assigned, tau, lr, batch_size,
                          stream, weight_decay=0.0, finite_steps=None):
    """One worker's round, one step at a time: the oracle for ``train_round``.

    If ``finite_steps`` is a list, each step appends whether its losses and
    its gradient before weight decay are all finite.
    """
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
        if finite_steps is not None:
            finite_steps.append(bool(np.isfinite(per_sample).all() and np.isfinite(grad).all()))
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


class TestSystemProfile:
    def test_tau_s_derived(self):
        prof = SystemProfile(alpha=4.0, p_s=1, p_f=2, lam=2.0, tau_f=32)
        assert prof.tau_s == 8


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
    @settings(max_examples=60)
    def test_matches_per_worker_oracle(self, data):
        # assignments as short as one sample and up to three batches and a
        # bit: short batches, reshuffles, and steps where workers of one
        # round take batches of different lengths
        kind = data.draw(st.sampled_from(["logistic_regression", "mlp2"]))
        p = data.draw(st.integers(1, 8))
        # in any order: the kernel steps the rows sorted by tau itself
        taus = data.draw(st.lists(st.integers(1, 6), min_size=p, max_size=p))
        batch_size = data.draw(st.integers(1, 6))
        sizes = data.draw(st.lists(st.integers(1, 3 * batch_size + 2), min_size=p,
                                   max_size=p))
        weight_decay = data.draw(st.sampled_from([0.0, 0.01]))
        # each path of the class-major softmax's sum: sequential, 8
        # accumulators, halves
        c = data.draw(st.sampled_from([*range(2, 11), 16, 130]))
        seed = data.draw(st.integers(0, 2**16))
        ds = make_synthetic(SyntheticSpec(n=max(40, c), input_dim=3, num_classes=c),
                            RngStream(seed, 0))
        spec = ModelSpec(kind, 3, c, hidden_dim=5 if kind == "mlp2" else 0)
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

    @pytest.mark.parametrize("kind, d, c, h, g", [
        ("logistic_regression", 16, 2, 0, 1),
        ("logistic_regression", 16, 2, 0, 5),
        ("logistic_regression", 16, 2, 0, 10),
        ("logistic_regression", 16, 2, 0, 16),
        ("logistic_regression", 16, 4, 0, 1),
        ("logistic_regression", 16, 4, 0, 5),
        ("logistic_regression", 16, 4, 0, 10),
        ("logistic_regression", 16, 4, 0, 16),
        ("mlp2", 32, 10, 64, 4),
        ("mlp2", 32, 10, 64, 8),
    ])
    @pytest.mark.parametrize("schedule", ["sync", "local"])
    def test_matches_per_worker_oracle_at_benchmark_shapes(self, kind, d, c, h, g, schedule):
        # B = 32 at the shapes the benchmark runs: the stack sizes and BLAS
        # paths that the small hypothesis shapes above never reach
        batch_size = 32
        spec = ModelSpec(kind, d, c, hidden_dim=h)
        ds = make_synthetic(SyntheticSpec(n=3000, input_dim=d, num_classes=c, separation=3.0,
                                          label_noise=0.05), RngStream(g, 0))
        params = init_params(spec, RngStream(g, 1))
        # slow workers first; shares of 100 end every third step on a short batch
        taus = [1] * g if schedule == "sync" else sorted([2] * (g // 2) + [8] * (g - g // 2))
        sizes = [256 if i % 2 else 100 for i in range(g)]
        assignments = [RngStream(g, 2 + i).choose(ds.n, k) for i, k in enumerate(sizes)]
        end, ids, losses, steps = train_round(spec, params, ds, assignments, taus, 0.1,
                                              batch_size, [RngStream(g, 100 + i)
                                                           for i in range(g)], 1e-4)
        assert steps == sum(taus)
        for i in range(g):
            want = reference_local_train(spec, params, ds, assignments[i], taus[i], 0.1,
                                         batch_size, RngStream(g, 100 + i), 1e-4)
            assert_same_bits(end[i], want[0])
            assert_same_bits(ids[i], want[1])
            assert_same_bits(losses[i], want[2])

    def test_duplicate_id_in_a_batch_rejected(self, tiny_task):
        spec, params, ds = tiny_task
        assignments = [np.arange(4), np.array([5, 5, 6, 7])]
        with pytest.raises(ValueError, match="worker 1 step 0: sample ids must be distinct"):
            train_round(spec, params, ds, assignments, [1, 1], 0.1, 4,
                        [RngStream(0, 0), RngStream(0, 1)])

    @given(data=st.data())
    @settings(max_examples=60)
    def test_any_row_order_equals_the_tau_sorted_call(self, data):
        # rows in a drawn order, taus mixed and batches ragged, each row with
        # its own start, share, stream and map into one of two datasets
        # stored one after another; the tau-sorted call is the same rows
        # sorted stably by tau, the one order the kernel steps in
        kind = data.draw(st.sampled_from(["logistic_regression", "mlp2"]))
        p = data.draw(st.integers(1, 8))
        taus = data.draw(st.lists(st.integers(1, 6), min_size=p, max_size=p))
        batch_size = data.draw(st.integers(1, 5))
        sizes = data.draw(st.lists(st.integers(1, 3 * batch_size + 2), min_size=p,
                                   max_size=p))
        sources = data.draw(st.lists(st.integers(0, 1), min_size=p, max_size=p))
        weight_decay = data.draw(st.sampled_from([0.0, 0.01]))
        seed = data.draw(st.integers(0, 2**16))
        # a row whose start is not finite, or None
        fault = data.draw(st.sampled_from([None, *range(p)]))
        perm = data.draw(st.permutations(range(p)))
        parts = [make_synthetic(SyntheticSpec(n=40, input_dim=3, num_classes=3),
                                RngStream(seed, k)) for k in range(2)]
        both = Dataset(np.concatenate([d.features for d in parts]),
                       np.concatenate([d.labels for d in parts]), 3)
        train = [RngStream(seed, 10 + k).choose(40, 30) + 40 * k for k in range(2)]
        spec = ModelSpec(kind, 3, 3, hidden_dim=5 if kind == "mlp2" else 0)
        starts = np.stack([init_params(spec, RngStream(seed, 20 + i)) for i in range(p)])
        if fault is not None:
            starts[fault, 0] = np.nan
        assignments = [RngStream(seed, 50 + i).choose(30, k) for i, k in enumerate(sizes)]

        def call(rows):
            return train_round(spec, starts[rows], both, [assignments[i] for i in rows],
                               [taus[i] for i in rows], 0.3, batch_size,
                               [RngStream(seed, 100 + i) for i in rows], weight_decay,
                               [train[sources[i]] for i in rows])

        ranked = sorted(range(p), key=taus.__getitem__)
        if fault is not None:
            for rows in (ranked, perm):
                with pytest.raises(DivergenceError, match=f"^worker {rows.index(fault)} "
                                                          "step 0: non-finite"):
                    call(rows)
            return
        want, got = call(ranked), call(perm)
        assert got[3] == want[3] == sum(taus)
        for j, i in enumerate(perm):
            k = ranked.index(i)
            assert_same_bits(got[0][j], want[0][k])
            assert_same_bits(got[1][j], want[1][k])
            assert_same_bits(got[2][j], want[2][k])

    def test_faults_name_the_callers_row(self, tiny_task):
        spec, params, ds = tiny_task
        streams = [RngStream(0, i) for i in range(4)]
        # the kernel steps the rows as 1, 3, 2, 0; rows 0 and 3 fail in the
        # first call, and the lower caller row is named
        starts = np.stack([params] * 4)
        starts[[0, 3]] = np.inf
        with pytest.raises(DivergenceError, match="^worker 0 step 0: non-finite loss or "
                                                  "gradient$"):
            train_round(spec, starts, ds, [np.arange(8)] * 4, [3, 1, 2, 1], 0.1, 4, streams)
        # finite losses and gradients, but the weight decay overflows row 1,
        # which the kernel steps first
        with pytest.raises(DivergenceError, match="^worker 1: local training diverged to "
                                                  "non-finite parameters$"):
            train_round(spec, np.stack([params, params + 1e300]), ds, [np.arange(8)] * 2,
                        [2, 1], 0.1, 4, streams[:2], weight_decay=1e10)

    def test_non_finite_step_raises_divergence_error(self, tiny_task):
        spec, params, ds = tiny_task
        huge = params + 1e308
        with pytest.raises(DivergenceError, match="^worker 0 step 0: non-finite"):
            train_round(spec, huge, ds, [np.arange(8)] * 2, [1, 2], 0.1, 4,
                        [RngStream(0, 0), RngStream(0, 1)])


    def test_finite_steps_whose_sum_overflows_still_train(self):
        # the bias puts each sample's loss at 0.9e308: finite, but the
        # screen's sum of a step's losses and gradient overflows to inf
        spec = ModelSpec("logistic_regression", 2, 2)
        params = np.array([0.0, 0.0, 0.0, 0.0, 0.9e308, 0.0])
        ds = Dataset(np.array([[0.5, -1.0], [1.5, 2.0]]), np.array([1, 1]), 2)
        end, ids, losses, steps = train_one(spec, params, ds, np.arange(2), 2, 0.1, 2,
                                            RngStream(4, 0))
        want = reference_local_train(spec, params, ds, np.arange(2), 2, 0.1, 2,
                                     RngStream(4, 0))
        assert np.isfinite(losses).all()
        with np.errstate(over="ignore"):
            assert losses[:2].sum() == np.inf
        assert_same_bits(end, want[0])
        assert_same_bits(losses, want[2])

    def test_failed_row_leaves_the_other_rows_alone(self, tiny_task):
        # rows 1 and 3 fail in the first call: it raises, naming the lower,
        # and leaves the caller's start stack as it was
        spec, params, ds = tiny_task
        taus = [1, 2, 3, 3]
        assignments = [np.arange(i, 40 + i) for i in range(4)]
        starts = np.stack([params + 0.1 * i for i in range(4)])
        starts[[1, 3]] = np.inf
        before = starts.copy()
        with pytest.raises(DivergenceError, match="^worker 1 step 0: non-finite loss or "
                                                  "gradient$"):
            train_round(spec, starts, ds, assignments, taus, 0.2, 8,
                        [RngStream(3, i) for i in range(4)])
        assert_same_bits(starts, before)

    def test_first_fault_follows_the_stepping_order(self, tiny_task):
        # both rows fail at step 0; the stack steps the 2-sample batch before
        # the 4-sample one and stops there, so it names worker 1
        spec, params, ds = tiny_task
        with pytest.raises(DivergenceError, match="^worker 1 step 0: non-finite loss or "
                                                  "gradient$"):
            train_round(spec, np.full((2, params.shape[0]), np.nan), ds,
                        [np.arange(8), np.arange(2)], [1, 1], 0.1, 4,
                        [RngStream(0, 0), RngStream(0, 1)])
        # equal huge weights give finite losses and gradients, but the weight
        # decay overflows every row's step: the lowest is named
        with pytest.raises(DivergenceError, match="^worker 0: local training diverged to "
                                                  "non-finite parameters$"):
            train_round(spec, params + 1e300, ds, [np.arange(8)] * 2, [1, 1], 0.1, 4,
                        [RngStream(0, 0), RngStream(0, 1)], weight_decay=1e10)

    @staticmethod
    def overflowing_gap_round():
        """A two-row round whose row 1 first faults with an infinite loss but a finite gradient.

        Biases of +-1e308 overflow row 1's logit gap, so its one label-1
        sample has an infinite loss, while its gradient and end parameters
        stay finite.  With batch size 1 that sample is stepped at its
        position ``t`` in the row's permutation.
        """
        n = 6
        ds = Dataset(RngStream(5, 0).normal(0.0, 1.0, (n, 2)), np.array([1] + [0] * (n - 1)), 2)
        spec = ModelSpec("logistic_regression", 2, 2)
        starts = np.stack([init_params(spec, RngStream(5, 1))] * 2)
        starts[1, 4:] = [1e308, -1e308]
        t = int(np.flatnonzero(RngStream(5, 3).permutation(n) == 0)[0])
        args = (spec, starts, ds, [np.arange(n)] * 2, [n, n], 0.1, 1)
        return args, [RngStream(5, 2), RngStream(5, 3)], t

    def test_infinite_loss_with_a_finite_gradient_raises_at_its_step(self):
        args, streams, t = self.overflowing_gap_round()
        spec, starts, ds, assignments, taus, lr, batch_size = args
        assert t >= 1
        finite_steps = []
        with np.errstate(all="ignore"):
            end, _, losses, _ = reference_local_train(spec, starts[1], ds, assignments[1],
                                                      taus[1], lr, batch_size, RngStream(5, 3),
                                                      finite_steps=finite_steps)
        # only the loss shows the fault: the end parameters are finite
        assert np.isfinite(end).all() and losses[t] == np.inf
        assert finite_steps.index(False) == t
        before = starts.copy()
        with pytest.raises(DivergenceError, match=f"^worker 1 step {t}: non-finite loss or "
                                                  "gradient$"):
            train_round(*args, streams)
        assert_same_bits(starts, before)

    @given(data=st.data())
    @settings(max_examples=60)
    def test_round_screen_matches_the_per_step_rule(self, data):
        # rounds as in test_matches_per_worker_oracle, with no ragged step
        # and some start rows scaled toward overflow or made non-finite
        kind = data.draw(st.sampled_from(["logistic_regression", "mlp2"]))
        p = data.draw(st.integers(1, 6))
        taus = data.draw(st.lists(st.integers(1, 5), min_size=p, max_size=p))
        batch_size = data.draw(st.integers(1, 4))
        sizes = [batch_size * k for k in data.draw(st.lists(st.integers(1, 3), min_size=p,
                                                            max_size=p))]
        lr = data.draw(st.sampled_from([0.3, 1e300]))
        weight_decay = data.draw(st.sampled_from([0.0, 0.01, 1e10]))
        c = data.draw(st.sampled_from([2, 3, 10]))
        seed = data.draw(st.integers(0, 2**16))
        ds = make_synthetic(SyntheticSpec(n=40, input_dim=3, num_classes=c), RngStream(seed, 0))
        spec = ModelSpec(kind, 3, c, hidden_dim=5 if kind == "mlp2" else 0)
        starts = np.stack([init_params(spec, RngStream(seed, 1 + i)) for i in range(p)])
        faults = data.draw(st.lists(st.sampled_from([1.0, 1e150, 1e300, 1e306, np.inf, np.nan]),
                                    min_size=p, max_size=p))
        for row, fault in zip(starts, faults):
            if np.isfinite(fault):
                row *= fault
            else:
                row[data.draw(st.integers(0, row.shape[0] - 1))] = fault
        assignments = [RngStream(seed, 50 + i).choose(ds.n, k) for i, k in enumerate(sizes)]
        # the per-step rule: the first step where a row's loss or gradient is
        # non-finite names its lowest such row; else non-finite end parameters
        wants, steps_ok = [], []
        with np.errstate(all="ignore"):
            for i in range(p):
                steps_ok.append([])
                wants.append(reference_local_train(spec, starts[i], ds, assignments[i], taus[i],
                                                   lr, batch_size, RngStream(seed, 100 + i),
                                                   weight_decay, steps_ok[i]))
        step_faults = [(t, i) for i in range(p) for t, ok in enumerate(steps_ok[i]) if not ok]
        bad_ends = [i for i in range(p) if not np.isfinite(wants[i][0]).all()]
        before = starts.copy()

        def run():
            return train_round(spec, starts, ds, assignments, taus, lr, batch_size,
                               [RngStream(seed, 100 + i) for i in range(p)], weight_decay)

        if step_faults:
            t, i = min(step_faults)
            with pytest.raises(DivergenceError, match=f"^worker {i} step {t}: non-finite loss "
                                                      "or gradient$"):
                run()
        elif bad_ends:
            with pytest.raises(DivergenceError, match=f"^worker {bad_ends[0]}: local training "
                                                      "diverged to non-finite parameters$"):
                run()
        else:
            end, ids, losses, _ = run()
            for i in range(p):
                assert_same_bits(end[i], wants[i][0])
                assert_same_bits(ids[i], wants[i][1])
                assert_same_bits(losses[i], wants[i][2])
        assert_same_bits(starts, before)

    def test_only_a_diverging_round_replays(self, monkeypatch):
        calls = []
        kernel = hetsgd.workers.stacked_loss_and_grad

        def counted(spec, params, x, labels, views=None):
            calls.append(params.shape[0])
            return kernel(spec, params, x, labels, views)

        monkeypatch.setattr(hetsgd.workers, "stacked_loss_and_grad", counted)
        # a finite round with ragged steps: one call per batch length among
        # the rows still stepping
        ds = make_synthetic(SyntheticSpec(n=64, input_dim=2, num_classes=2), RngStream(0, 0))
        spec = ModelSpec("logistic_regression", 2, 2)
        taus, sizes, b = [2, 5, 7, 7], [16, 20, 13, 24], 8
        train_round(spec, init_params(spec, RngStream(0, 1)), ds,
                    [np.arange(k) for k in sizes], taus, 0.1, b,
                    [RngStream(0, 2 + i) for i in range(4)])

        def length(n, t):  # the batch length a share of n takes at step t
            return b if t % -(-n // b) < n // b else n % b

        assert len(calls) == sum(len({length(n, t) for n, tau in zip(sizes, taus) if tau > t})
                                 for t in range(max(taus)))
        assert sum(calls) == sum(taus)
        # a round that faults at step t: one full pass, then the checked replay to step t
        calls.clear()
        args, streams, t = self.overflowing_gap_round()
        with pytest.raises(DivergenceError, match=f"^worker 1 step {t}: "):
            train_round(*args, streams)
        assert calls == [2] * (args[4][0] + t + 1)

    def test_a_replay_without_a_fault_is_an_error(self, monkeypatch, tiny_task):
        # an entry point whose fault does not repeat breaks the replay's premise
        spec, params, ds = tiny_task
        kernel, calls = hetsgd.workers.stacked_loss_and_grad, []

        def faults_once(*args):
            per_sample, grad = kernel(*args)
            calls.append(args[1].shape[0])
            if len(calls) == 1:
                per_sample[0, 0] = np.inf
            return per_sample, grad

        monkeypatch.setattr(hetsgd.workers, "stacked_loss_and_grad", faults_once)
        with pytest.raises(RuntimeError, match="replayed without a fault"):
            train_one(spec, params, ds, np.arange(16), 2, 0.1, 8, RngStream(0, 0))
        assert calls == [1] * 4

    def test_row_maps_address_one_feature_source(self, tiny_task):
        # two datasets one after another, each row reading its own through a map
        spec, params, ds = tiny_task
        other = make_synthetic(SyntheticSpec(n=30, input_dim=2, num_classes=2), RngStream(4, 0))
        both = Dataset(np.concatenate([ds.features, other.features]),
                       np.concatenate([ds.labels, other.labels]), 2)
        train = [np.arange(0, 64, 2), np.arange(5, 30)]  # each dataset's train rows
        maps = [train[0], train[1] + ds.n]
        assignments = [np.arange(20), np.arange(10, 25)]
        end, ids, losses, _ = train_round(spec, params, both, assignments, [2, 5], 0.3, 6,
                                          [RngStream(8, 0), RngStream(8, 1)], 0.01, maps)
        for i, source in enumerate([ds, other]):
            copy = Dataset(source.features[train[i]], source.labels[train[i]], 2)
            want = train_one(spec, params, copy, assignments[i], [2, 5][i], 0.3, 6,
                             RngStream(8, i), 0.01)
            assert_same_bits(end[i], want[0])
            assert_same_bits(ids[i], want[1])
            assert_same_bits(losses[i], want[2])


class TestLrSchedules:
    def test_constant(self):
        lr = lr_schedule("constant", 0.1, (), 0.1, 1000)
        assert lr.dtype == np.float64 and lr.shape == (1000,)
        assert lr[0] == lr[999] == 0.1

    def test_multistep_table_value(self):
        lr = lr_schedule("multistep", 0.1, (60, 80), 0.1, 100)
        assert lr[0] == pytest.approx(0.1)
        assert lr[59] == pytest.approx(0.1)
        assert lr[60] == pytest.approx(0.01)
        assert lr[70] == pytest.approx(0.01)
        assert lr[80] == pytest.approx(0.001)

    def test_cosine_endpoints(self):
        lr = lr_schedule("cosine", 0.2, (), 0.1, 100)
        assert lr[0] == pytest.approx(0.2)
        assert lr[50] == pytest.approx(0.1, abs=1e-12)

    def test_cosine_horizon_enforced(self):
        # one rate per round of the run, none past its horizon
        lr = lr_schedule("cosine", 0.2, (), 0.1, 10)
        assert lr.shape == (10,)
        with pytest.raises(IndexError):
            lr[10]

    def test_milestones_must_increase(self):
        # the rule lives in the config's key table, checked by validate
        with pytest.raises(ConfigError, match="schedule.milestones must be strictly increasing"):
            validate(ExperimentConfig(schedule_kind="multistep", milestones=(80, 60)))

    def test_positive_everywhere(self):
        assert (lr_schedule("cosine", 1.0, (), 0.1, 50) > 0).all()

    @given(kind=st.sampled_from(["constant", "multistep", "cosine"]),
           base_lr=st.floats(1e-4, 10.0), decay=st.floats(0.01, 4.0),
           milestones=st.lists(st.integers(-5, 70), max_size=6, unique=True).map(sorted),
           rounds=st.integers(1, 64))
    @settings(max_examples=300)
    def test_matches_the_scalar_oracle(self, kind, base_lr, decay, milestones, rounds):
        lr = lr_schedule(kind, base_lr, tuple(milestones), decay, rounds)
        assert lr.tolist() == [reference_lr_at(kind, base_lr, milestones, decay, rounds, r)
                               for r in range(rounds)]

    def test_milestones_beyond_int64_match_the_oracle(self):
        milestones = (-10**30, 2, 10**30)
        assert lr_schedule("multistep", 0.5, milestones, 0.5, 4).tolist() == [
            reference_lr_at("multistep", 0.5, milestones, 0.5, 4, r) for r in range(4)]

    def test_overflowing_rate_is_inf(self):
        # 0.1 * 1e300 ** 2 overflows, which Python's float ** int raises on
        lr = lr_schedule("multistep", 0.1, (1, 3), 1e300, 5)
        assert lr.tolist() == [0.1, 0.1 * 1e300, 0.1 * 1e300, np.inf, np.inf]

    def test_only_reached_milestones_are_computed(self):
        # two rounds reach milestone 1; milestone 3's rate would overflow
        assert lr_schedule("multistep", 0.1, (1, 3), 1e300, 2).tolist() == [0.1, 0.1 * 1e300]

"""Model forward/backward correctness against independent oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetsgd.core import RngStream
from hetsgd.models import (Batch, ModelSpec, _forward, accuracy, backward, finite_diff_grad,
                           forward_logits, forward_loss, init_params, param_count,
                           relu_crossing_mask, stacked_loss_and_grad)

LOGREG = ModelSpec("logistic_regression", 3, 2)
MLP = ModelSpec("mlp2", 4, 3, hidden_dim=5)


def random_instance(seed, kind="mlp2", batch=8):
    stream = RngStream(seed, 0)
    if kind == "mlp2":
        spec = ModelSpec("mlp2", 3, 3, hidden_dim=4)
    else:
        spec = ModelSpec("logistic_regression", 4, 3)
    params = stream.normal(0.0, 1.0, param_count(spec))
    feats = stream.normal(0.0, 1.0, (batch, spec.input_dim))
    labels = stream.integers(0, spec.num_classes, size=batch)
    return spec, params, Batch(feats, labels, np.arange(batch))


class TestShapesAndInit:
    def test_logreg_param_count(self):
        assert param_count(LOGREG) == 3 * 2 + 2 == 8

    def test_mlp_param_count(self):
        assert param_count(MLP) == 4 * 5 + 5 + 5 * 3 + 3 == 43

    def test_init_deterministic(self):
        a = init_params(MLP, RngStream(5, 1))
        b = init_params(MLP, RngStream(5, 1))
        np.testing.assert_array_equal(a, b)

    def test_init_scale_and_zero_biases(self):
        p = init_params(MLP, RngStream(0, 0))
        w1 = p[:20]
        b1 = p[20:25]
        assert np.all(np.abs(w1) <= 1 / math.sqrt(4))
        np.testing.assert_array_equal(b1, np.zeros(5))

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            ModelSpec("transformer", 4, 2)
        with pytest.raises(ValueError, match="hidden"):
            ModelSpec("mlp2", 4, 2, hidden_dim=0)


class TestForwardLoss:
    def test_zero_init_logreg_gives_log_c(self):
        spec = ModelSpec("logistic_regression", 5, 4)
        params = np.zeros(param_count(spec))
        rng = np.random.default_rng(0)
        batch = Batch(rng.normal(size=(6, 5)), rng.integers(0, 4, 6), np.arange(6))
        mean, per_sample = forward_loss(spec, params, batch)
        np.testing.assert_allclose(per_sample, math.log(4), rtol=1e-12)
        assert mean == pytest.approx(math.log(4), rel=1e-12)

    def test_singleton_batch(self):
        spec, params, batch = random_instance(1, batch=1)
        mean, per_sample = forward_loss(spec, params, batch)
        assert mean == per_sample[0]

    def test_mean_matches_per_sample_recomputation(self):
        spec, params, batch = random_instance(2, batch=8)
        mean, per_sample = forward_loss(spec, params, batch)
        singles = []
        for i in range(len(batch)):
            one = Batch(batch.features[i:i + 1], batch.labels[i:i + 1],
                        batch.sample_ids[i:i + 1])
            singles.append(forward_loss(spec, params, one)[0])
        assert mean == pytest.approx(np.mean(singles), rel=1e-12)
        np.testing.assert_allclose(per_sample, singles, rtol=1e-12)

    def test_mean_is_mean_of_per_sample(self):
        spec, params, batch = random_instance(3)
        mean, per_sample = forward_loss(spec, params, batch)
        assert mean == pytest.approx(per_sample.mean(), abs=1e-12)

    def test_param_length_checked(self):
        spec, params, batch = random_instance(4)
        with pytest.raises(ValueError, match="expected"):
            forward_loss(spec, params[:-1], batch)

    def test_row_permutation_invariance(self):
        spec, params, batch = random_instance(5)
        perm = np.random.default_rng(0).permutation(len(batch))
        shuffled = Batch(batch.features[perm], batch.labels[perm], batch.sample_ids[perm])
        m1, _ = forward_loss(spec, params, batch)
        m2, _ = forward_loss(spec, params, shuffled)
        assert m1 == pytest.approx(m2, abs=1e-12)
        np.testing.assert_allclose(backward(spec, params, batch),
                                   backward(spec, params, shuffled), atol=1e-12)


class TestBackward:
    def test_matches_finite_differences_100_instances(self):
        h = 1e-5
        worst = 0.0
        for seed in range(100):
            kind = "mlp2" if seed % 2 else "logreg"
            spec, params, batch = random_instance(seed, kind=kind, batch=6)
            analytic = backward(spec, params, batch)
            numeric = finite_diff_grad(spec, params, batch, h)
            keep = ~relu_crossing_mask(spec, params, batch, h)
            denom = np.maximum(np.abs(analytic[keep]), 1e-8)
            rel = float(np.max(np.abs(analytic[keep] - numeric[keep]) / denom))
            worst = max(worst, rel)
        assert worst < 1e-4, f"max relative error {worst:.3e}"

    def test_duplicated_batch_same_gradient(self):
        spec, params, batch = random_instance(10, batch=5)
        dup = Batch(np.concatenate([batch.features, batch.features]),
                    np.concatenate([batch.labels, batch.labels]),
                    np.arange(10))
        np.testing.assert_allclose(backward(spec, params, batch),
                                   backward(spec, params, dup), atol=1e-12)

    def test_gradient_vanishes_at_converged_point(self):
        # converge full-batch GD on a tiny separable problem, then push the
        # margins with normalized steps; cross-entropy saturates and the
        # gradient norm collapses below 1e-6
        spec = ModelSpec("mlp2", 2, 2, hidden_dim=4)
        feats = np.array([[3.0, 3.0], [3.5, 2.5], [-3.0, -3.0], [-2.5, -3.5]])
        batch = Batch(feats, np.array([0, 0, 1, 1]), np.arange(4))
        params = init_params(spec, RngStream(0, 7))
        for _ in range(300):
            params = params - 1.0 * backward(spec, params, batch)
        for _ in range(200):
            g = backward(spec, params, batch)
            norm = float(np.linalg.norm(g))
            if norm < 1e-9:
                break
            params = params - 0.2 * g / norm
        grad_norm = float(np.linalg.norm(backward(spec, params, batch)))
        assert grad_norm < 1e-6, f"gradient norm {grad_norm:.2e}"

    def test_loss_and_grad_consistent_with_parts(self):
        spec, params, batch = random_instance(11)
        per_sample, grad = stacked_loss_and_grad(spec, params[None], batch.features[None],
                                                 batch.labels[None])
        mean2, per_sample2 = forward_loss(spec, params, batch)
        assert float(per_sample[0].mean()) == mean2
        np.testing.assert_array_equal(per_sample[0], per_sample2)
        np.testing.assert_array_equal(grad[0], backward(spec, params, batch))

    def test_non_finite_gradient_rejected(self):
        spec, params, batch = random_instance(14, kind="logreg")
        with np.errstate(invalid="ignore"), \
                pytest.raises(ValueError, match="non-finite loss or gradient"):
            backward(spec, params + np.inf, batch)


class TestForward:
    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_one_model_matches_its_row_of_a_stack(self, data):
        draw = data.draw
        kind = draw(st.sampled_from(["logistic_regression", "mlp2"]))
        g_count, b = draw(st.integers(1, 5)), draw(st.integers(1, 40))
        spec = ModelSpec(kind, draw(st.integers(1, 9)), draw(st.integers(2, 6)),
                         hidden_dim=draw(st.integers(1, 12)) if kind == "mlp2" else 0)
        stream = RngStream(draw(st.integers(0, 2**16)), 0)
        params = stream.normal(0.0, 1.0, (g_count, param_count(spec)))
        x = stream.normal(0.0, 1.0, (g_count, b, spec.input_dim))
        stacked = _forward(spec, params, x)[1]
        for g in range(g_count):
            assert forward_logits(spec, params[g], x[g]).tobytes() == stacked[g].tobytes()


class TestFiniteDiff:
    def test_rejects_nonpositive_h(self):
        spec, params, batch = random_instance(12)
        with pytest.raises(ValueError, match="positive"):
            finite_diff_grad(spec, params, batch, 0.0)

    def test_exact_on_logreg_with_wide_h(self):
        # central differences have O(h^2) error; on a well-conditioned
        # logistic problem even h=1e-4 agrees tightly
        spec, params, batch = random_instance(13, kind="logreg")
        np.testing.assert_allclose(finite_diff_grad(spec, params, batch, 1e-4),
                                   backward(spec, params, batch), atol=1e-6)

    def test_cross_check_both_model_kinds(self):
        for seed, kind in [(20, "logreg"), (21, "mlp2")]:
            spec, params, batch = random_instance(seed, kind=kind)
            h = 1e-5
            numeric = finite_diff_grad(spec, params, batch, h)
            analytic = backward(spec, params, batch)
            keep = ~relu_crossing_mask(spec, params, batch, h)
            denom = np.maximum(np.abs(analytic[keep]), 1e-8)
            assert np.max(np.abs(analytic[keep] - numeric[keep]) / denom) < 1e-4


class TestAccuracy:
    def test_all_correct(self):
        spec = ModelSpec("logistic_regression", 2, 2)
        # identity-ish weights: class 0 favored by negative x0
        params = np.array([1.0, -1.0, 0.0, 0.0, 0.0, 0.0])
        feats = np.array([[2.0, 0.0], [-2.0, 0.0]])
        batch = Batch(feats, np.array([0, 1]), np.arange(2))
        assert accuracy(spec, params, [batch]) == 1.0

    def test_all_wrong(self):
        spec = ModelSpec("logistic_regression", 2, 2)
        params = np.array([1.0, -1.0, 0.0, 0.0, 0.0, 0.0])
        feats = np.array([[2.0, 0.0], [-2.0, 0.0]])
        batch = Batch(feats, np.array([1, 0]), np.arange(2))
        assert accuracy(spec, params, [batch]) == 0.0

    def test_random_labels_near_chance(self):
        c, n = 4, 20_000
        spec = ModelSpec("logistic_regression", 3, c)
        stream = RngStream(77, 0)
        params = stream.normal(0.0, 1.0, param_count(spec))
        feats = stream.normal(0.0, 1.0, (n, 3))
        labels = stream.integers(0, c, size=n)
        acc = accuracy(spec, params, [Batch(feats, labels, np.arange(n))])
        p = 1.0 / c
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(acc - p) < 3 * sigma

    def test_tie_breaks_to_lowest_class(self):
        spec = ModelSpec("logistic_regression", 1, 3)
        params = np.zeros(param_count(spec))  # all logits equal
        batch = Batch(np.ones((4, 1)), np.array([0, 0, 1, 2]), np.arange(4))
        assert accuracy(spec, params, [batch]) == 0.5  # predicts class 0 always

    def test_empty_rejected(self):
        spec = ModelSpec("logistic_regression", 1, 2)
        with pytest.raises(ValueError, match="empty"):
            accuracy(spec, np.zeros(param_count(spec)), [])


class TestBatchInvariants:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            Batch(np.zeros((2, 1)), np.zeros(2, dtype=int), np.array([3, 3]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="batch size"):
            Batch(np.zeros((2, 1)), np.zeros(3, dtype=int), np.arange(2))

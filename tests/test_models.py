"""Model forward/backward correctness against independent oracles."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetsgd.core import RngStream
from hetsgd.models import (Batch, ModelSpec, _class_major, _class_sums, _forward, _hits,
                           _log_softmax, _unpack, backward, finite_diff_grad,
                           forward_loss, init_params, param_count, relu_crossing_mask,
                           stacked_hits, stacked_loss_and_grad)


def reference_log_softmax(logits):
    """Row-wise log-softmax with max-subtraction: the oracle for the class-major kernel."""
    z = np.asarray(logits, dtype=np.float64)
    shifted = z - z.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


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


def class_major_logits(spec, params, x):
    """Class-major ``(c, G, n)`` logits of a ``(G, n_params)`` stack on ``(G, n, d)`` features."""
    layers = _unpack(spec, params)
    return _class_major(_forward(layers, x)[1], layers[-1])


class TestForward:
    @given(data=st.data())
    @settings(max_examples=80)
    def test_one_model_matches_its_row_of_a_stack(self, data):
        draw = data.draw
        kind = draw(st.sampled_from(["logistic_regression", "mlp2"]))
        g_count, b = draw(st.integers(1, 5)), draw(st.integers(1, 40))
        spec = ModelSpec(kind, draw(st.integers(1, 9)), draw(st.integers(2, 6)),
                         hidden_dim=draw(st.integers(1, 12)) if kind == "mlp2" else 0)
        stream = RngStream(draw(st.integers(0, 2**16)), 0)
        params = stream.normal(0.0, 1.0, (g_count, param_count(spec)))
        x = stream.normal(0.0, 1.0, (g_count, b, spec.input_dim))
        stacked = class_major_logits(spec, params, x)
        for g in range(g_count):
            alone = class_major_logits(spec, params[g][None], x[g][None])
            assert alone.tobytes() == np.ascontiguousarray(stacked[:, g]).tobytes()


# entries that round, overflow, cancel or are not numbers
SPECIAL_SUMMANDS = [0.0, -0.0, 1.0, -1.0, 1e-300, 1e308, -1e308, np.inf, -np.inf, np.nan]


class TestClassMajorSoftmax:
    @pytest.mark.parametrize("c", range(2, 301))
    def test_class_sums_are_numpys_row_sums(self, c):
        # both sides of the cut at 8 classes and of numpy's 128; rows of
        # scaled normals, zeros, infs and nans
        rng = np.random.default_rng(c)
        rows = rng.normal(size=(40, c)) * np.exp(rng.uniform(-40.0, 40.0, (40, c)))
        rows[:20] = rng.choice(SPECIAL_SUMMANDS, size=(20, c))
        rows[20] = 0.0
        rows[21] = -0.0
        rows[22, :] = 1.0
        rows[22, ::3] = 1e16  # order-sensitive: 1 + 1e16 rounds
        rows[23, 0], rows[23, -1] = np.inf, -np.inf
        rows[24, c // 2] = np.nan
        with np.errstate(over="ignore", invalid="ignore"):
            got = _class_sums(np.ascontiguousarray(rows.T))
            want = np.add.reduce(rows, axis=-1)
        # which NaN comes out of two NaNs depends on the compiled operand order
        nan = np.isnan(want)
        assert (np.isnan(got) == nan).all()
        assert got[~nan].tobytes() == want[~nan].tobytes()

    @pytest.mark.parametrize("c", [*range(2, 11), 16, 130])
    def test_log_softmax_matches_the_row_major_oracle(self, c):
        rng = np.random.default_rng(c)
        logits = rng.normal(scale=5.0, size=(300, c))
        logits[:10] = 0.0  # all equal
        logits[10:20, 0] = 800.0  # other classes' exps underflow
        got = _log_softmax(np.ascontiguousarray(logits.T)).T
        assert np.ascontiguousarray(got).tobytes() == reference_log_softmax(logits).tobytes()


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


def reference_hits(logits, labels):
    """Row-wise ``np.argmax`` count of ``(n, c)`` logits: the oracle for the class-major count."""
    return int((np.argmax(logits, axis=1) == labels).sum())


def reference_logits(spec, params, x):
    """One model's logits with row-major bias adds: the oracle for the class-major adds."""
    d, c, h = spec.input_dim, spec.num_classes, spec.hidden_dim
    if spec.kind == "logistic_regression":
        logits = x @ params[:d * c].reshape(d, c)
        logits += params[d * c:]
        return logits
    hidden = x @ params[:d * h].reshape(d, h)
    hidden += params[d * h:d * h + h]
    np.maximum(hidden, 0.0, out=hidden)
    logits = hidden @ params[d * h + h:d * h + h + h * c].reshape(h, c)
    logits += params[d * h + h + h * c:]
    return logits


def reference_accuracy(spec, params, batches):
    """Row-wise ``np.argmax`` over each batch's logits: the oracle for ``stacked_hits``."""
    correct = 0
    total = 0
    for batch in batches:
        with np.errstate(over="ignore", invalid="ignore"):
            logits = reference_logits(spec, params, batch.features)
        correct += reference_hits(logits, batch.labels)
        total += len(batch)
    if total == 0:
        raise ValueError("empty evaluation set")
    return correct / total


def one_model_hits(spec, params, batch):
    """``stacked_hits`` of one model on one batch: a stack of one."""
    return stacked_hits(spec, params[None], batch.features[None], batch.labels[None])[0]


# logits that tie, overflow or are not numbers; -0.0 ties with 0.0
SPECIAL_LOGITS = [-np.inf, -1.0, -0.0, 0.0, 0.5, 1.0, np.inf, np.nan]


class TestAccuracyOracle:
    @pytest.mark.parametrize("c", [*range(2, 13), 16, 20])
    @pytest.mark.parametrize("values", ["normal", "ties", "special", "all_equal", "one_nan"])
    def test_count_matches_argmax(self, c, values):
        rng = np.random.default_rng(c)
        n = 300
        if values == "normal":  # no ties: the class-major count decides
            logits = rng.normal(size=(n, c))
        elif values == "ties":
            logits = rng.integers(-2, 3, size=(n, c)).astype(np.float64)
        elif values == "special":
            logits = rng.choice(SPECIAL_LOGITS, size=(n, c))
        elif values == "all_equal":
            logits = np.full((n, c), 0.25)
        else:  # one NaN among distinct values
            logits = rng.normal(size=(n, c))
            logits[n // 2, c // 2] = np.nan
        for labels in (rng.integers(0, c, n), np.argmax(logits, axis=1),
                       np.full(n, c - 1)):
            assert _hits(np.ascontiguousarray(logits.T), labels) == reference_hits(logits, labels)

    @given(data=st.data())
    @settings(max_examples=200)
    def test_count_matches_argmax_on_drawn_rows(self, data):
        c = data.draw(st.integers(2, 20))
        n = data.draw(st.integers(0, 20))
        cells = data.draw(st.lists(st.sampled_from(SPECIAL_LOGITS), min_size=n * c,
                                   max_size=n * c))
        labels = np.array(data.draw(st.lists(st.integers(0, c - 1), min_size=n, max_size=n)),
                          dtype=np.int64)
        logits = np.array(cells, dtype=np.float64).reshape(n, c)
        assert _hits(np.ascontiguousarray(logits.T), labels) == reference_hits(logits, labels)

    @pytest.mark.parametrize("spec", [
        ModelSpec("logistic_regression", 16, 4),
        ModelSpec("logistic_regression", 16, 2),
        ModelSpec("mlp2", 32, 10, hidden_dim=64),
        ModelSpec("mlp2", 8, 7, hidden_dim=16),
    ], ids=["lr-16-4", "lr-16-2", "mlp2-32-64-10", "mlp2-8-16-7"])
    def test_accuracy_matches_the_oracle_at_benchmark_size(self, spec):
        stream = RngStream(21, 0)
        n = 20_000
        params = stream.normal(0.0, 0.3, param_count(spec))
        batches = [Batch(stream.normal(0.0, 1.0, (n, spec.input_dim)),
                         stream.integers(0, spec.num_classes, size=n), np.arange(n)),
                   Batch(np.zeros((5, spec.input_dim)), np.arange(5) % spec.num_classes,
                         np.arange(5))]  # zero inputs: every row's logits are the biases
        for p in (params, np.zeros_like(params), params * 1e300):
            for batch in batches:
                assert (one_model_hits(spec, p, batch) / len(batch)
                        == reference_accuracy(spec, p, [batch]))


class TestStackedEvaluation:
    @pytest.mark.parametrize("c", [2, 3, 10])
    @pytest.mark.parametrize("special", ["tie", "nan"])
    def test_only_the_model_with_a_tie_or_nan_falls_back(self, c, special, monkeypatch):
        rng = np.random.default_rng(c)
        g, n, odd = 4, 300, 1
        logits = rng.normal(size=(g, n, c))
        labels = rng.integers(0, c, size=(g, n))
        if special == "tie":  # argmax takes class 0; the fast count would hit class c - 1
            logits[odd, n // 2] = 0.25
            labels[odd, n // 2] = c - 1
        else:  # argmax takes the NaN's class; the fast count would miss it
            logits[odd, n // 2, c // 2] = np.nan
            labels[odd, n // 2] = c // 2
        want = [reference_hits(z, y) for z, y in zip(logits, labels)]
        calls = []
        argmax = np.argmax

        def counted_argmax(*args, **kwargs):
            calls.append(args)
            return argmax(*args, **kwargs)

        monkeypatch.setattr(np, "argmax", counted_argmax)
        by_class = np.ascontiguousarray(logits.transpose(2, 0, 1))
        # strided (c, n) blocks of one (c, G, n) array, as in stacked_hits
        assert [_hits(by_class[:, k], labels[k]) for k in range(g)] == want
        assert len(calls) == 1

    @pytest.mark.parametrize("spec", [
        ModelSpec("logistic_regression", 16, 4),
        ModelSpec("mlp2", 8, 7, hidden_dim=16),
    ], ids=["lr-16-4", "mlp2-8-16-7"])
    def test_each_count_is_its_models_alone(self, spec):
        stream = RngStream(22, 0)
        g, n = 3, 1000
        params = stream.normal(0.0, 0.5, (g, param_count(spec)))
        x = stream.normal(0.0, 1.0, (g, n, spec.input_dim))
        y = stream.integers(0, spec.num_classes, size=(g, n))
        hits = stacked_hits(spec, params, x, y)
        for k in range(g):
            alone = reference_accuracy(spec, params[k], [Batch(x[k], y[k], np.arange(n))])
            assert hits[k] / n == alone


class TestAccuracy:
    def test_all_correct(self):
        spec = ModelSpec("logistic_regression", 2, 2)
        # identity-ish weights: class 0 favored by negative x0
        params = np.array([1.0, -1.0, 0.0, 0.0, 0.0, 0.0])
        feats = np.array([[2.0, 0.0], [-2.0, 0.0]])
        batch = Batch(feats, np.array([0, 1]), np.arange(2))
        assert one_model_hits(spec, params, batch) == 2

    def test_all_wrong(self):
        spec = ModelSpec("logistic_regression", 2, 2)
        params = np.array([1.0, -1.0, 0.0, 0.0, 0.0, 0.0])
        feats = np.array([[2.0, 0.0], [-2.0, 0.0]])
        batch = Batch(feats, np.array([1, 0]), np.arange(2))
        assert one_model_hits(spec, params, batch) == 0

    def test_random_labels_near_chance(self):
        c, n = 4, 20_000
        spec = ModelSpec("logistic_regression", 3, c)
        stream = RngStream(77, 0)
        params = stream.normal(0.0, 1.0, param_count(spec))
        feats = stream.normal(0.0, 1.0, (n, 3))
        labels = stream.integers(0, c, size=n)
        acc = one_model_hits(spec, params, Batch(feats, labels, np.arange(n))) / n
        p = 1.0 / c
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(acc - p) < 3 * sigma

    def test_tie_breaks_to_lowest_class(self):
        spec = ModelSpec("logistic_regression", 1, 3)
        params = np.zeros(param_count(spec))  # all logits equal
        batch = Batch(np.ones((4, 1)), np.array([0, 0, 1, 2]), np.arange(4))
        assert one_model_hits(spec, params, batch) == 2  # predicts class 0 always

    def test_empty_set_scores_no_hits(self):
        spec = ModelSpec("logistic_regression", 1, 2)
        params = np.zeros((2, param_count(spec)))
        assert stacked_hits(spec, params, np.zeros((2, 0, 1)), np.zeros((2, 0), int)) == [0, 0]

    def test_overflowing_logits_scored_without_a_warning(self):
        # huge but finite params: the evaluation forward pass overflows
        spec = ModelSpec("logistic_regression", 2, 2)
        batch = Batch(np.full((3, 2), 1e10), np.array([0, 1, 0]), np.arange(3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            one_model_hits(spec, np.full(param_count(spec), 1e300), batch)


class TestBatchInvariants:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            Batch(np.zeros((2, 1)), np.zeros(2, dtype=int), np.array([3, 3]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="batch size"):
            Batch(np.zeros((2, 1)), np.zeros(3, dtype=int), np.arange(2))

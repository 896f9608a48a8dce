"""Vector arithmetic, RNG streams, and loss primitives."""

import math
from decimal import Decimal, getcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetsgd.core import (RngStream, axpy, log_softmax, rng_choose_without_replacement,
                         round_half_up, weighted_sum)


def _softmax_ce_decimal(logits, label, digits=50):
    """High-precision cross-entropy oracle via the decimal module."""
    getcontext().prec = digits
    exps = [Decimal(str(v)).exp() for v in logits]
    total = sum(exps)
    return float(-(exps[label] / total).ln())


def _xent(logits, label):
    """Cross-entropy of one logit vector, as every model takes it from log_softmax."""
    return float(-log_softmax(np.asarray(logits, dtype=np.float64))[label])


class TestAxpy:
    def test_zero_scale_is_identity(self):
        v = np.array([1.0, -2.0, 3.5])
        x = np.array([9.0, 9.0, 9.0])
        np.testing.assert_array_equal(axpy(0.0, x, v), v)

    def test_unit_scale_against_zero(self):
        v = np.array([1.0, -2.0, 3.5])
        np.testing.assert_array_equal(axpy(1.0, v, np.zeros(3)), v)

    def test_negation_cancels(self):
        v = np.array([0.25, -4.0, 7.0])
        np.testing.assert_array_equal(axpy(-1.0, v, v), np.zeros(3))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length mismatch"):
            axpy(1.0, np.zeros(3), np.zeros(4))

    def test_nonfinite_result_rejected(self):
        big = np.full(2, 1e308)
        with pytest.raises(ValueError, match="non-finite"):
            axpy(10.0, big, big)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_matches_elementwise_definition(self, seed):
        rng = np.random.default_rng(seed)
        a = float(rng.normal())
        x, y = rng.normal(size=6), rng.normal(size=6)
        expected = np.array([a * xi + yi for xi, yi in zip(x, y)])
        np.testing.assert_array_equal(axpy(a, x, y), expected)


class TestWeightedSum:
    def test_identical_vectors_uniform_weights(self):
        v = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(weighted_sum([v, v], [0.5, 0.5]), v, rtol=0, atol=1e-15)

    def test_degenerate_weight_selects_one(self):
        u = np.array([4.0, -1.0])
        np.testing.assert_array_equal(weighted_sum([u, u * 3], [1.0, 0.0]), u)

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(7)
        models = [rng.normal(size=5) for _ in range(3)]
        w = rng.dirichlet(np.ones(3))
        expected = np.zeros(5)
        for k in range(5):
            acc = 0.0
            for i in range(3):
                acc += w[i] * models[i][k]
            expected[k] = acc
        np.testing.assert_allclose(weighted_sum(models, w), expected, rtol=1e-14)

    def test_uniform_weights_equal_mean(self):
        rng = np.random.default_rng(3)
        models = [rng.normal(size=8) for _ in range(5)]
        got = weighted_sum(models, np.full(5, 0.2))
        np.testing.assert_allclose(got, np.mean(models, axis=0), rtol=0, atol=1e-12)

    def test_bad_weight_sum_rejected(self):
        with pytest.raises(ValueError, match="sum"):
            weighted_sum([np.ones(2), np.ones(2)], [0.6, 0.6])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            weighted_sum([np.ones(2), np.ones(2)], [1.5, -0.5])


class TestCrossEntropy:
    def test_uniform_logits_give_log_c(self):
        for c in (2, 3, 10):
            logits = np.full(c, 0.7)
            for label in range(c):
                assert _xent(logits, label) == pytest.approx(math.log(c), abs=1e-12)

    def test_saturated_logit_near_zero_loss(self):
        assert _xent([1000.0, 0.0], 0) == pytest.approx(0.0, abs=1e-9)

    def test_saturated_logits_stay_finite(self):
        # max-subtraction: exp never sees 1000, so no overflow and no nan
        for logits in ([1000.0, 0.0], [-1000.0, 0.0], [1000.0, 1000.0]):
            got = log_softmax(np.array(logits))
            assert np.all(np.isfinite(got))
        assert log_softmax(np.array([1000.0, 0.0]))[1] == pytest.approx(-1000.0)
        rows = log_softmax(np.array([[1000.0, 0.0], [0.0, 1000.0]]))
        np.testing.assert_allclose(rows, [[0.0, -1000.0], [-1000.0, 0.0]], atol=1e-9)

    def test_matches_high_precision_oracle(self):
        logits = [0.2, -0.3, 1.1]
        expected = _softmax_ce_decimal(logits, 2)
        assert _xent(logits, 2) == pytest.approx(expected, abs=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(11)
        logits = rng.normal(size=6)
        base = _xent(logits, 4)
        for c in (-1e3, -1.0, 1.0, 1e3):
            assert _xent(logits + c, 4) == pytest.approx(base, abs=1e-9)

    def test_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            logits = rng.normal(scale=5.0, size=4)
            assert _xent(logits, int(rng.integers(4))) >= 0.0


class TestRngStream:
    def test_same_key_same_sequence(self):
        a = RngStream(42, 7)
        b = RngStream(42, 7)
        np.testing.assert_array_equal(a.permutation(100), b.permutation(100))
        np.testing.assert_array_equal(a.uniform(0, 1, 10), b.uniform(0, 1, 10))

    def test_distinct_streams_differ(self):
        a = RngStream(42, 0).permutation(50)
        b = RngStream(42, 1).permutation(50)
        assert not np.array_equal(a, b)

    def test_creation_order_irrelevant(self):
        first = RngStream(9, 3).uniform(0, 1, 5)
        RngStream(9, 4).uniform(0, 1, 5)  # interleaved unrelated stream
        second = RngStream(9, 3).uniform(0, 1, 5)
        np.testing.assert_array_equal(first, second)


class TestChooseWithoutReplacement:
    def test_full_draw_is_permutation(self):
        s = RngStream(0, 0)
        got = rng_choose_without_replacement(s, 8, 8)
        assert sorted(got) == list(range(8))

    def test_empty_draw(self):
        assert rng_choose_without_replacement(RngStream(0, 0), 5, 0).size == 0

    def test_oversized_draw_rejected(self):
        with pytest.raises(ValueError, match="without replacement"):
            rng_choose_without_replacement(RngStream(0, 0), 3, 4)

    def test_distinct_indices(self):
        s = RngStream(1, 2)
        for _ in range(100):
            got = rng_choose_without_replacement(s, 30, 10)
            assert len(set(got.tolist())) == 10
            assert got.min() >= 0 and got.max() < 30

    def test_pairs_uniform_over_many_draws(self):
        # n=5, k=2: 10 unordered pairs, each with probability 1/10
        s = RngStream(123, 0)
        draws = 100_000
        counts = {}
        for _ in range(draws):
            i, j = sorted(rng_choose_without_replacement(s, 5, 2).tolist())
            counts[(i, j)] = counts.get((i, j), 0) + 1
        assert len(counts) == 10
        p = 0.1
        sigma = math.sqrt(draws * p * (1 - p))
        for pair, c in counts.items():
            assert abs(c - draws * p) < 3 * sigma, f"pair {pair} count {c}"


class TestShuffle:
    def test_is_permutation(self):
        got = RngStream(4, 4).permutation(20)
        assert sorted(got.tolist()) == list(range(20))

    def test_deterministic(self):
        np.testing.assert_array_equal(RngStream(6, 1).permutation(16),
                                      RngStream(6, 1).permutation(16))


def test_round_half_up():
    assert round_half_up(0.5) == 1
    assert round_half_up(1.5) == 2
    assert round_half_up(2.4999) == 2
    assert round_half_up(3030.303) == 3030
    assert round_half_up(387.597) == 388

"""RNG streams, rounding and loss primitives."""

import math
from decimal import Decimal, getcontext

import numpy as np
import pytest

from hetsgd.core import RngStream, log_softmax, rng_choose_without_replacement, round_half_up


def _softmax_ce_decimal(logits, label, digits=50):
    """High-precision cross-entropy oracle via the decimal module."""
    getcontext().prec = digits
    exps = [Decimal(str(v)).exp() for v in logits]
    total = sum(exps)
    return float(-(exps[label] / total).ln())


def _xent(logits, label):
    """Cross-entropy of one logit vector, as every model takes it from log_softmax."""
    return float(-log_softmax(np.asarray(logits, dtype=np.float64))[label])


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

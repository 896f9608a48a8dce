"""Aggregation rules: weights and model combination."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetsgd.aggregation import RULES, aggregate, aggregation_weights

taus_strategy = st.lists(st.integers(1, 64), min_size=1, max_size=12)


def _scalar_loop(rule, models, taus, start):
    """The combination one element and one worker at a time, in worker order."""
    w = aggregation_weights(rule, taus)
    out = np.empty(len(start))
    for k in range(len(start)):
        acc = 0.0
        for i in range(len(models)):
            acc += w[i] * (models[i][k] - start[k] if rule == "fednova" else models[i][k])
        out[k] = acc + start[k] if rule == "fednova" else acc
    return out


class TestWeights:
    def test_tau_weighted_32_1_exact(self):
        w = aggregation_weights("tau_weighted", [32, 1])
        assert w[0] == float(Fraction(32, 33))
        assert w[1] == float(Fraction(1, 33))

    def test_tau_weighted_32_16(self):
        np.testing.assert_allclose(aggregation_weights("tau_weighted", [32, 16]),
                                   [2 / 3, 1 / 3], rtol=0)

    def test_tau_weighted_three_workers(self):
        np.testing.assert_allclose(aggregation_weights("tau_weighted", [32, 4, 4]),
                                   [0.8, 0.1, 0.1], atol=1e-15)

    def test_fednova_reverses_tau_weighting(self):
        w = aggregation_weights("fednova", [32, 1])
        assert w[0] == pytest.approx(1 / 33)
        assert w[1] == pytest.approx(32 / 33)

    def test_balanced_uniform(self):
        np.testing.assert_allclose(aggregation_weights("balanced", [5, 9, 2]),
                                   np.full(3, 1 / 3), rtol=0)

    @given(st.sampled_from(RULES), taus_strategy)
    @settings(max_examples=200, deadline=None)
    def test_simplex(self, rule, taus):
        w = aggregation_weights(rule, taus)
        assert np.all(w >= 0)
        assert abs(w.sum() - 1.0) <= 1e-12

    @given(taus_strategy)
    @settings(max_examples=100, deadline=None)
    def test_ordering(self, taus):
        order = np.argsort(taus, kind="stable")
        tw = aggregation_weights("tau_weighted", taus)[order]
        fn = aggregation_weights("fednova", taus)[order]
        assert np.all(np.diff(tw) >= -1e-15)  # nondecreasing in tau
        assert np.all(np.diff(fn) <= 1e-15)  # nonincreasing in tau

    @given(taus_strategy, st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_permutation_equivariance(self, taus, rnd):
        perm = list(range(len(taus)))
        rnd.shuffle(perm)
        rng = np.random.default_rng(0)
        models = [rng.normal(size=4) for _ in taus]
        for rule in RULES:
            start = np.zeros(4)
            direct = aggregate(rule, models, taus, round_start=start)
            permuted = aggregate(rule, [models[i] for i in perm],
                                 [taus[i] for i in perm], round_start=start)
            np.testing.assert_allclose(direct, permuted, atol=1e-12)

    def test_equal_taus_degenerate_to_balanced(self):
        rng = np.random.default_rng(1)
        models = [rng.normal(size=6) for _ in range(4)]
        bal = aggregate("balanced", models, [7, 7, 7, 7])
        tw = aggregate("tau_weighted", models, [7, 7, 7, 7])
        np.testing.assert_allclose(bal, tw, atol=1e-12)

    def test_bad_rule_rejected(self):
        with pytest.raises(ValueError, match="rule"):
            aggregation_weights("median", [1, 2])

    def test_zero_tau_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            aggregation_weights("balanced", [1, 0])


class TestAggregate:
    def test_identical_models_fixed_point(self):
        v = np.array([1.0, -2.0, 0.5])
        for rule in RULES:
            got = aggregate(rule, [v.copy(), v.copy()], [32, 1], round_start=v * 0.5)
            np.testing.assert_allclose(got, v, atol=1e-12)

    def test_tau_weighted_two_models(self):
        a, b = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        got = aggregate("tau_weighted", [a, b], [32, 16])
        np.testing.assert_allclose(got, [2 / 3, 1 / 3], rtol=1e-15)

    def test_fednova_two_worker_hand_computation(self):
        # scalar model: start 1.0; fast ends 3.0 (delta 2), slow ends 0.5
        # (delta -0.5); weights (1/33, 32/33)
        start = np.array([1.0])
        fast, slow = np.array([3.0]), np.array([0.5])
        got = aggregate("fednova", [fast, slow], [32, 1], round_start=start)
        expected = 1.0 + (1 / 33) * 2.0 + (32 / 33) * (-0.5)
        np.testing.assert_allclose(got, [expected], rtol=1e-15)

    def test_fednova_requires_round_start(self):
        with pytest.raises(ValueError, match="round-start"):
            aggregate("fednova", [np.ones(2), np.ones(2)], [2, 1])

    def test_convex_hull_containment(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            p = int(rng.integers(2, 6))
            models = [rng.normal(size=5) for _ in range(p)]
            taus = rng.integers(1, 40, p).tolist()
            stack = np.stack(models)
            lo, hi = stack.min(axis=0), stack.max(axis=0)
            for rule in ("balanced", "tau_weighted"):
                out = aggregate(rule, models, taus)
                assert np.all(out >= lo - 1e-12) and np.all(out <= hi + 1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="worker count"):
            aggregate("balanced", [np.ones(2)], [1, 2])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length mismatch"):
            aggregate("balanced", [np.zeros(3), np.zeros(4)], [1, 2])
        with pytest.raises(ValueError, match="length mismatch"):
            aggregate("fednova", [np.zeros(3), np.zeros(3)], [1, 2], round_start=np.zeros(4))

    def test_nonfinite_result_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            aggregate("balanced", [np.ones(2), np.array([1.0, np.inf])], [1, 2])
        # each delta overflows although every model is finite
        with pytest.raises(ValueError, match="non-finite"):
            aggregate("fednova", [np.full(2, 1e308)] * 2, [1, 2],
                      round_start=np.full(2, -1e308))

    def test_balanced_equals_mean(self):
        rng = np.random.default_rng(3)
        models = [rng.normal(size=8) for _ in range(5)]
        got = aggregate("balanced", models, [4, 4, 9, 9, 9])
        np.testing.assert_allclose(got, np.mean(models, axis=0), rtol=0, atol=1e-12)

    def test_one_worker_is_identity(self):
        v = np.array([1.0, -2.0, 3.5])
        for rule in ("balanced", "tau_weighted"):
            np.testing.assert_array_equal(aggregate(rule, [v], [5]), v)

    def test_fednova_unmoved_workers_return_round_start(self):
        start = np.array([0.25, -4.0, 7.0])
        got = aggregate("fednova", np.stack([start] * 3), [1, 4, 4], round_start=start)
        np.testing.assert_array_equal(got, start)

    def test_identical_models_uniform_weights(self):
        v = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(aggregate("balanced", [v, v], [3, 8]), v, rtol=0, atol=1e-15)

    @given(st.integers(0, 2**32 - 1), st.sampled_from(("balanced", "tau_weighted")),
           st.integers(1, 64), st.integers(1, 64))
    @settings(max_examples=25, deadline=None)
    def test_matches_elementwise_definition(self, seed, rule, tau_x, tau_y):
        rng = np.random.default_rng(seed)
        x, y = rng.normal(size=6), rng.normal(size=6)
        wx, wy = aggregation_weights(rule, [tau_x, tau_y])
        expected = np.array([wx * xi + wy * yi for xi, yi in zip(x, y)])
        np.testing.assert_array_equal(aggregate(rule, [x, y], [tau_x, tau_y]), expected)

    @given(st.integers(0, 2**32 - 1), st.sampled_from(RULES), taus_strategy,
           st.integers(1, 6))
    @settings(max_examples=100, deadline=None)
    def test_matches_scalar_loop_oracle(self, seed, rule, taus, n):
        rng = np.random.default_rng(seed)
        stack = rng.normal(scale=10.0, size=(len(taus), n))
        start = rng.normal(size=n)
        expected = _scalar_loop(rule, stack, taus, start)
        for models in (list(stack), stack):
            np.testing.assert_array_equal(aggregate(rule, models, taus, round_start=start),
                                          expected)

"""Simulated-clock arithmetic: compute, blocking, and aggregation counts."""

import numpy as np
import pytest

import hetsgd.simclock
from hetsgd.simclock import CostModel, clock, clock_end, round_timing
from hetsgd.workers import WorkerSpec

# measured single-iteration costs used throughout the timing checks
FAST_COST = 0.1940
SLOW_COST = 6.5230


def fleet(tau_f, tau_s, cost, p_f=1, p_s=1, batch=32):
    workers = [WorkerSpec(i, "slow", tau_s, cost.iter_cost_slow, batch)
               for i in range(p_s)]
    workers += [WorkerSpec(p_s + j, "fast", tau_f, cost.iter_cost_fast, batch)
                for j in range(p_f)]
    return workers


class TestRoundTiming:
    def test_unbalanced_residual_blocking(self):
        # tau_F=32 against tau_S=1 with a 33.6x cost gap leaves a small
        # residual from the integer floor of tau_S
        cost = CostModel(FAST_COST, SLOW_COST)
        timing = round_timing(fleet(32, 1, cost), cost)
        np.testing.assert_allclose(timing.compute_time, [6.5230, 6.2080], rtol=1e-12)
        slow_block, fast_block = timing.blocking_time
        assert slow_block == pytest.approx(0.0, abs=1e-12)
        assert fast_block == pytest.approx(0.315, abs=1e-9)

    def test_exact_ratio_zero_blocking(self):
        cost = CostModel(0.25, 1.0)  # ratio exactly 4
        timing = round_timing(fleet(32, 8, cost), cost)
        np.testing.assert_allclose(timing.blocking_time, 0.0, atol=1e-12)

    def test_balanced_local_blocking_from_measured_costs(self):
        cost = CostModel(FAST_COST, SLOW_COST)
        timing = round_timing(fleet(32, 32, cost), cost)
        fast_block = timing.blocking_time[1]
        assert fast_block == pytest.approx(32 * (SLOW_COST - FAST_COST), abs=1e-6)
        assert fast_block == pytest.approx(202.528, abs=1e-6)

    def test_wall_includes_agg_cost(self):
        cost = CostModel(0.1, 0.2, agg_cost=0.5)
        timing = round_timing(fleet(4, 2, cost), cost)
        assert timing.round_wall == pytest.approx(0.4 + 0.5)

    def test_invariants_hold(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            fast_c = float(rng.uniform(0.01, 1.0))
            slow_c = fast_c * float(rng.uniform(1.0, 50.0))
            cost = CostModel(fast_c, slow_c, agg_cost=float(rng.uniform(0, 1)))
            workers = fleet(int(rng.integers(1, 64)), int(rng.integers(1, 64)), cost,
                            p_f=int(rng.integers(1, 4)), p_s=int(rng.integers(1, 4)))
            t = round_timing(workers, cost)
            assert t.round_wall == pytest.approx(t.compute_time.max() + cost.agg_cost)
            np.testing.assert_allclose(
                t.blocking_time, t.round_wall - cost.agg_cost - t.compute_time,
                atol=1e-9)
            assert np.all(t.blocking_time >= 0.0)

    def test_monotone_in_tau_and_cost(self):
        cost = CostModel(0.1, 0.5)
        base = round_timing(fleet(8, 4, cost), cost).round_wall
        more_tau = round_timing(fleet(8, 5, cost), cost).round_wall
        assert more_tau >= base
        costlier = CostModel(0.1, 0.6)
        assert round_timing(fleet(8, 4, costlier), costlier).round_wall >= base


class TestRunTimeline:
    def test_aggregation_count_ratio_vs_per_step(self):
        # equal fast-worker update budget U: per-step aggregation does U
        # rounds of tau=1; periodic averaging with tau_F=32 does U/32
        cost = CostModel(FAST_COST, SLOW_COST)
        u = 320
        sync_wall, _ = clock(fleet(1, 1, cost), cost, u)
        local_wall, _ = clock(fleet(32, 1, cost), cost, u // 32)
        assert len(sync_wall) == 32 * len(local_wall)

    def test_single_worker_zero_agg_cost(self):
        cost = CostModel(0.25, 0.25, agg_cost=0.0)
        workers = [WorkerSpec(0, "fast", 10, 0.25, 8)]
        wall, blocked = clock(workers, cost, 7)
        assert wall[-1] == pytest.approx(7 * 10 * 0.25)
        assert len(wall) == 7
        assert (blocked == 0.0).all()

    def test_cost_doubling_doubles_compute(self):
        cost1 = CostModel(0.1, 0.3)
        cost2 = CostModel(0.2, 0.6)
        wall1, _ = clock(fleet(8, 2, cost1), cost1, 5)
        wall2, _ = clock(fleet(8, 2, cost2), cost2, 5)
        assert wall2[-1] == pytest.approx(2 * wall1[-1])

    def test_zero_rounds_rejected(self):
        # a run has at least one round: validate rejects zero
        from hetsgd.config import ConfigError, ExperimentConfig, validate
        with pytest.raises(ConfigError, match="rounds"):
            validate(ExperimentConfig(rounds=0, epochs=0))

    def test_matches_a_running_sum(self):
        # entry r has the bits of adding one round's values r + 1 times in turn
        rng = np.random.default_rng(1)
        for _ in range(300):
            fast_c = float(rng.uniform(0.001, 10.0))
            cost = CostModel(fast_c, fast_c * float(rng.uniform(1.0, 50.0)),
                             agg_cost=float(rng.choice([0.0, rng.uniform(0, 3)])))
            workers = fleet(int(rng.integers(1, 64)), int(rng.integers(1, 64)), cost,
                            p_f=int(rng.integers(1, 4)), p_s=int(rng.integers(1, 4)))
            rounds = int(rng.integers(1, 400))
            timing = round_timing(workers, cost)
            wall, blocked, walls, blocks = 0.0, 0.0, [], []
            for _ in range(rounds):
                wall += timing.round_wall
                blocked += float(timing.blocking_time.sum())
                walls.append(wall)
                blocks.append(blocked)
            got_wall, got_blocked = clock(workers, cost, rounds)
            assert got_wall.tolist() == walls
            assert got_blocked.tolist() == blocks

    @pytest.mark.parametrize("rounds", [1, 2, 6, 7, 8, 9, 20, 301])
    def test_end_is_the_last_entry_across_chunks(self, monkeypatch, rounds):
        monkeypatch.setattr(hetsgd.simclock, "_CHUNK", 4)
        for fast_c, agg in [(FAST_COST, 0.05), (0.1, 0.0), (1e306, 1e306)]:
            cost = CostModel(fast_c, fast_c * 33.6, agg_cost=agg)
            workers = fleet(32, 1, cost, p_f=3)
            wall, blocked = clock(workers, cost, rounds)
            got = clock_end(workers, cost, rounds)
            assert [repr(v) for v in got] == [repr(float(wall[-1])), repr(float(blocked[-1]))]

    def test_overflow_is_left_for_the_caller(self):
        # no numpy warning: the caller checks for non-finite entries
        cost = CostModel(1e308, 1e308, agg_cost=1e308)
        wall, blocked = clock(fleet(4, 4, cost), cost, 3)
        assert not np.isfinite(wall).any()
        assert not np.isfinite(blocked).all()

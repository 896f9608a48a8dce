"""Where does the time go? Compute, blocking, and communication counts.

Walks through the simulated-clock model for three scheduling policies on a
machine whose slow resource is ~33.6x slower per iteration than its fast one
(measured costs: 0.1940 s vs 6.5230 s per mini-batch).
"""

import numpy as np

from hetsgd.simclock import CostModel, clock, round_timing
from hetsgd.workers import WorkerSpec, derive_tau_s

FAST, SLOW = 0.1940, 6.5230
cost = CostModel(FAST, SLOW, agg_cost=0.05)


def fleet(tau_f, tau_s):
    return [WorkerSpec(0, "slow", tau_s, SLOW, 32),
            WorkerSpec(1, "fast", tau_f, FAST, 32)]


alpha = SLOW / FAST
print(f"measured cost ratio alpha = {alpha:.2f}")
tau_f = 32
tau_s = derive_tau_s(tau_f, alpha)
print(f"tau_F = {tau_f} -> tau_S = {tau_s} (floor at 1)\n")

print("per-round timing breakdown")
print(f"{'policy':<28}{'slow compute':>14}{'fast compute':>14}{'fast blocking':>14}")
for name, tf, ts in [
    ("per-step averaging (tau=1)", 1, 1),
    ("balanced local (tau=32)", 32, 32),
    (f"system-aware (32, {tau_s})", tau_f, tau_s),
]:
    t = round_timing(fleet(tf, ts), cost)
    print(f"{name:<28}{t.compute_time[0]:>13.3f}s{t.compute_time[1]:>13.3f}s"
          f"{t.blocking_time[1]:>13.3f}s")

print("""
The balanced policies idle the fast worker for the full cost gap every
round; scaling the slow worker's update count by 1/alpha leaves only the
residual from rounding tau_S to an integer (0.315 s here).
""")

# communication counts at an equal fast-worker update budget
updates = 320
# clock() gives the cumulative wall after each round, one entry per aggregation
sync, _ = clock(fleet(1, 1), cost, updates)
balanced, _ = clock(fleet(32, 32), cost, updates // 32)
aware, _ = clock(fleet(32, tau_s), cost, updates // 32)
print(f"equal budget of {updates} fast-worker updates:")
print(f"{'policy':<28}{'aggregations':>13}{'total wall':>12}")
for name, wall in [("per-step averaging", sync), ("balanced local", balanced),
                   ("system-aware", aware)]:
    print(f"{name:<28}{len(wall):>13}{wall[-1]:>11.1f}s")
print(f"\naggregation ratio per-step vs local: "
      f"{len(sync) // len(aware)}x (exactly tau_F)")

# the zero-blocking identity: integer tau_S with an exact cost ratio
exact = CostModel(0.25, 1.0)
workers = [WorkerSpec(0, "slow", 8, 1.0, 32), WorkerSpec(1, "fast", 32, 0.25, 32)]
t = round_timing(workers, exact)
print(f"\nexact ratio (alpha=4, tau 32 vs 8): blocking = {np.abs(t.blocking_time).max():.1e} s")

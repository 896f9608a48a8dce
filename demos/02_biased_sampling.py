"""The three-step loss-biased sampler, step by step.

A round's assignment is built from per-sample loss records: draw a candidate
pool, keep the highest-loss members for the slow workers, and let fast
workers sample freely (separated) or from the remainder (unified).
"""

from dataclasses import replace

import numpy as np

from hetsgd.core import RngStream
from hetsgd.data import (InvalidLambdaError, LossLedger, assign, fast_per_worker, pool_size,
                         record_losses, slow_total)
from hetsgd.workers import SystemProfile

N = 1000
prof = SystemProfile(alpha=8.0, p_s=2, p_f=2, lam=2.0, tau_f=32, sampler_mode="separated")

print(f"N={N}, P_S={prof.p_s}, P_F={prof.p_f}, alpha={prof.alpha}, lambda={prof.lam}")
print(f"candidate pool size : {pool_size(N, prof.p_s, prof.p_f, prof.alpha, prof.lam)}")
print(f"slow selection total: {slow_total(N, prof.p_s, prof.p_f, prof.alpha)}")
print(f"fast draw per worker: {fast_per_worker(N, prof.p_s, prof.p_f, prof.alpha)}")

# plant a recognizable loss landscape: indices 0..49 are "hard"
ledger = LossLedger(N)
record_losses(ledger, np.arange(N), np.full(N, 0.1), round_idx=0)
record_losses(ledger, np.arange(50), np.linspace(5.0, 3.0, 50), round_idx=0)

asn = assign(ledger, prof, RngStream(0, 0))
for wid in range(prof.p_s):
    share = asn[wid]
    hard = np.sum(share < 50)
    print(f"slow worker {wid}: {share.size} samples, {hard} from the planted hard set")
for wid in range(prof.p_s, prof.p_s + prof.p_f):
    share = asn[wid]
    hard = np.sum(share < 50)
    print(f"fast worker {wid}: {share.size} samples, {hard} hard (free draw, overlap allowed)")

slow_set = set(asn[0].tolist()) | set(asn[1].tolist())
fast_set = set(asn[2].tolist()) | set(asn[3].tolist())
print(f"separated mode: fast/slow overlap = {len(slow_set & fast_set)} samples")

uni = assign(ledger, replace(prof, sampler_mode="unified"), RngStream(0, 1))
uslow = set(uni[0].tolist()) | set(uni[1].tolist())
ufast = set(uni[2].tolist()) | set(uni[3].tolist())
print(f"unified mode  : fast/slow overlap = {len(uslow & ufast)} samples (by construction 0)")

# lambda controls how aggressive the pool is; too large and it cannot exist
print("\npool size as lambda grows:")
for lam in (1.0, 2.0, 4.0, 8.0, 16.0, 32.0):
    try:
        k = pool_size(N, prof.p_s, prof.p_f, prof.alpha, lam)
        print(f"  lambda={lam:>4g}: pool={k}")
    except InvalidLambdaError:
        print(f"  lambda={lam:>4g}: N/A (pool would exceed the dataset)")

"""
More codewords, better fidelity
===============================

Bob's codebook holds s_B codewords per shared-randomness bin. Growing it
should push the realized measurement statistics toward the real ones.
On the trine scenario the conditional laws are genuinely random, so the
improvement is visible at desk scale: this script sweeps s_B, reports
the median deviation d at each size, and scores the trend with a
rank-based statistic whose null is "no ordering".
"""

import numpy as np

from povmcast import (
    jonckheere_terpstra,
    load_config,
    params_with_axis,
    prepare_scenario,
    simulate_trials,
)

cfg = load_config("preset:three-outcome-split")
single = prepare_scenario(cfg.rho, cfg.povm, cfg.g_a, cfg.g_b)

sizes = (1, 2, 4, 8)
trials = 30
groups = []
print(f"scenario: {cfg.name}, {trials} trials per size")
print()
print(" s_B   median d   mean d     shortfall rate")
for s_b in sizes:
    params = params_with_axis(cfg.params, "sB", s_b)
    records = simulate_trials(single, params, mode=cfg.mode, trials=trials)
    ds = [rec.report.d_bob for rec in records]
    ec = float(np.mean([rec.report.ec_rate for rec in records]))
    groups.append(ds)
    print(f"  {s_b}    {np.median(ds):.6f}   {np.mean(ds):.6f}   {ec:.3f}")

# rank test across the ordered groups: a negative z score means d tends
# to fall as s_B grows
trend = jonckheere_terpstra(groups)
print()
print(f"trend statistic {trend.statistic:.1f}, null mean {trend.mean:.1f},"
      f" z = {trend.zscore:.3f}")
print(f"one-sided p (decreasing) = {trend.p_decreasing:.4f}")
print(f"one-sided p (increasing) = {trend.p_increasing:.4f}")
if trend.p_decreasing < 0.05:
    print("verdict: d decreases with s_B at the 0.05 level")
else:
    print("verdict: no significant trend at this sample size")

"""Rank statistics used by the sweep reports."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Values closer than this count as a tie. The swept deviations lie in
# [0, 2], so equal-in-exact-arithmetic values that differ only in their
# last bits would otherwise score 0, 1/2 or 1 depending on roundoff.
TIE_TOL = 1e-12


@dataclass(frozen=True)
class TrendResult:
    """Jonckheere-Terpstra statistic with its normal-approximation p-values."""

    statistic: float
    mean: float
    variance: float
    zscore: float
    p_increasing: float
    p_decreasing: float


def jonckheere_terpstra(groups) -> TrendResult:
    """Trend test across ordered groups.

    Large statistic means later groups tend to exceed earlier ones.
    p_increasing is the one-sided p-value against an increasing trend,
    p_decreasing against a decreasing one. Pairs within TIE_TOL of each
    other are ties and count one half; the normal approximation carries
    no tie correction, which is adequate for effectively continuous data
    and conservative for heavily tied data.
    """
    arrs = [np.asarray(g, dtype=np.float64).ravel() for g in groups]
    arrs = [a for a in arrs if a.size]
    if len(arrs) < 2:
        raise ValueError("need at least two nonempty groups")
    jt = 0.0
    for i in range(len(arrs)):
        for j in range(i + 1, len(arrs)):
            diff = arrs[j][None, :] - arrs[i][:, None]
            jt += float((diff > TIE_TOL).sum())
            jt += 0.5 * float((np.abs(diff) <= TIE_TOL).sum())
    ns = np.array([a.size for a in arrs], dtype=np.float64)
    n_total = float(ns.sum())
    mean = (n_total**2 - float((ns**2).sum())) / 4.0
    variance = (
        n_total**2 * (2 * n_total + 3) - float((ns**2 * (2 * ns + 3)).sum())
    ) / 72.0
    if variance <= 0:
        z = 0.0
    else:
        z = (jt - mean) / math.sqrt(variance)
    p_inc = 0.5 * math.erfc(z / math.sqrt(2.0))
    p_dec = 0.5 * math.erfc(-z / math.sqrt(2.0))
    return TrendResult(
        statistic=float(jt),
        mean=float(mean),
        variance=float(variance),
        zscore=float(z),
        p_increasing=float(p_inc),
        p_decreasing=float(p_dec),
    )

"""Rank trend statistic tests against scipy's pairwise Mann-Whitney counts."""

import math

import numpy as np
import pytest
from scipy import stats as sps

from povmcast import TrendResult, jonckheere_terpstra

import oracles


def test_statistic_matches_scipy_pairwise_sum():
    rng = np.random.default_rng(71)
    for _ in range(10):
        k = int(rng.integers(2, 5))
        groups = [rng.normal(size=int(rng.integers(3, 12))) for _ in range(k)]
        res = jonckheere_terpstra(groups)
        assert np.isclose(res.statistic, oracles.jt_statistic_oracle(groups))


def test_statistic_with_ties_matches_scipy():
    rng = np.random.default_rng(73)
    groups = [rng.integers(0, 4, size=15).astype(float) for _ in range(3)]
    res = jonckheere_terpstra(groups)
    assert np.isclose(res.statistic, oracles.jt_statistic_oracle(groups))


def test_roundoff_neighbours_tie():
    x = 0.7310585786300049
    res = jonckheere_terpstra([[x], [x * (1.0 + 1e-15)]])
    assert res.statistic == 0.5
    res = jonckheere_terpstra([[x * (1.0 + 1e-15)], [x]])
    assert res.statistic == 0.5
    # a gap well above the tolerance still orders the pair
    assert jonckheere_terpstra([[x], [x + 1e-9]]).statistic == 1.0


def test_null_moments():
    # equal group sizes m, k groups: mean = (k^2 - k) m^2 / 4
    groups = [np.arange(5, dtype=float) + 10 * i for i in range(3)]
    res = jonckheere_terpstra(groups)
    assert np.isclose(res.mean, (9 * 25 - 3 * 25) / 4.0)
    n = 15.0
    var = (n**2 * (2 * n + 3) - 3 * 25 * (2 * 5 + 3)) / 72.0
    assert np.isclose(res.variance, var)
    # strictly increasing groups max out the statistic
    assert res.statistic == 3 * 25.0
    assert res.p_increasing < 0.01
    assert res.p_decreasing > 0.99


def test_constant_groups_give_center_point():
    groups = [np.ones(6), np.ones(6), np.ones(6)]
    res = jonckheere_terpstra(groups)
    assert res.statistic == res.mean
    assert res.zscore == 0.0
    assert res.p_increasing == 0.5
    assert res.p_decreasing == 0.5


def test_decreasing_trend_flags_p_decreasing():
    groups = [np.arange(8, dtype=float) - 10 * i for i in range(4)]
    res = jonckheere_terpstra(groups)
    assert res.p_decreasing < 1e-4
    assert np.isclose(res.p_increasing + res.p_decreasing, 1.0)
    # z matches the closed-form normal approximation
    assert np.isclose(
        res.p_decreasing, 0.5 * math.erfc(-res.zscore / math.sqrt(2.0))
    )
    # cross-check the tail against scipy's normal survival function
    assert np.isclose(res.p_increasing, sps.norm.sf(res.zscore))


def test_group_validation():
    with pytest.raises(ValueError):
        jonckheere_terpstra([np.ones(3)])
    with pytest.raises(ValueError):
        jonckheere_terpstra([np.ones(3), np.array([])])
    res = jonckheere_terpstra([[1.0, 2.0], [3.0, 4.0]])
    assert isinstance(res, TrendResult)
    assert res.statistic == 4.0

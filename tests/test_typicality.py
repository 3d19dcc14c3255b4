"""Typical set tests against brute-force enumeration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from povmcast import (
    EmptySupport,
    NotADistribution,
    SizeLimitExceeded,
    SizeMismatch,
    build_typical_set,
    conditional_typical_set,
    prune,
    quantum_typical_projector,
    sample_sequence,
    sample_sequences,
)
from povmcast.typicality import (
    conditional_quantum_typical_projector,
    prune_conditional,
    typical_set_to_json,
)

import oracles


def laws(k):
    """Probability vectors of length k from small integer weights, so
    zeros, ties and deterministic laws all come up."""
    weights = st.lists(st.integers(0, 9), min_size=k, max_size=k)
    return weights.filter(any).map(lambda w: np.array(w, dtype=float) / sum(w))


@st.composite
def marginal_cases(draw):
    k = draw(st.integers(1, 3))
    return draw(laws(k)), draw(st.integers(1, 5)), draw(st.floats(0.0, 1.5))


@st.composite
def conditional_cases(draw):
    k_a = draw(st.integers(1, 3))
    k_b = draw(st.integers(1, 3))
    p_cond = np.stack([draw(laws(k_b)) for _ in range(k_a)])
    n = draw(st.integers(1, 5))
    cond_seq = tuple(draw(st.lists(st.integers(0, k_a - 1), min_size=n, max_size=n)))
    return p_cond, cond_seq, draw(st.floats(0.0, 1.5))


@settings(max_examples=150, deadline=None)
@given(marginal_cases())
def test_typical_set_matches_enumeration_oracle(case):
    p, n, delta = case
    ts = build_typical_set(p, n, delta)
    expected = tuple(oracles.enumerate_typical(p, n, delta))
    assert ts.members == expected
    ref_mass = sum(float(np.prod(p[list(m)])) for m in expected)
    assert np.isclose(ts.total_prob, ref_mass, atol=1e-12)


def test_typical_set_frozen_binary_case():
    # p = (3/4, 1/4), n = 2: deviations are 0.3962406 for (0,0), (0,1),
    # (1,0) and 1.1887219 for (1,1)
    p = [0.75, 0.25]
    assert build_typical_set(p, 2, 0.2).members == ()
    assert build_typical_set(p, 2, 0.3).members == ()
    ts = build_typical_set(p, 2, 0.4)
    assert ts.members == ((0, 0), (0, 1), (1, 0))
    assert np.isclose(ts.total_prob, 9 / 16 + 3 / 16 + 3 / 16)
    full = build_typical_set(p, 2, 1.2)
    assert len(full.members) == 4
    assert np.isclose(full.total_prob, 1.0)


def test_typical_set_validation():
    with pytest.raises(SizeMismatch):
        build_typical_set([0.5, 0.5], 0, 0.1)
    with pytest.raises(ValueError):
        build_typical_set([0.5, 0.5], 2, -0.1)
    with pytest.raises(NotADistribution):
        build_typical_set([0.5, 0.4], 2, 0.1)
    with pytest.raises(SizeLimitExceeded):
        build_typical_set(np.ones(3) / 3, 9, 0.1)  # 3^9 > 4096


def test_membership_boundary_is_inclusive():
    # uniform law: every sequence has deviation exactly 0
    ts = build_typical_set([0.5, 0.5], 3, 0.0)
    assert len(ts.members) == 8
    assert (1, 0, 1) in ts
    assert ts.members.index((0, 0, 1)) == 1


def test_prune_renormalizes():
    p = [0.75, 0.25]
    ts = build_typical_set(p, 2, 0.4)
    pd = prune(p, ts)
    vec = pd.prob_vector()
    assert np.isclose(vec.sum(), 1.0)
    assert np.isclose(pd.prob((0, 0)), (9 / 16) / (15 / 16))
    assert pd.prob((1, 1)) == 0.0
    assert pd.support() == ts.members
    with pytest.raises(SizeMismatch):
        prune([0.2, 0.3, 0.5], ts)


@settings(max_examples=150, deadline=None)
@given(conditional_cases())
def test_conditional_typical_set_matches_oracle(case):
    p_cond, cond_seq, delta = case
    n = len(cond_seq)
    expected = tuple(oracles.enumerate_conditional_typical(p_cond, cond_seq, delta))
    if expected:
        ts = conditional_typical_set(p_cond, cond_seq, n, delta)
        assert ts.members == expected
        ref_mass = oracles.conditional_mass(p_cond, cond_seq, expected)
        assert np.isclose(ts.total_prob, ref_mass, atol=1e-12)
    else:
        with pytest.raises(EmptySupport):
            conditional_typical_set(p_cond, cond_seq, n, delta)
    # diagonal states: the quantum projector is the classical indicator
    states = {a: np.diag(row) for a, row in enumerate(p_cond)}
    tp = conditional_quantum_typical_projector(states, cond_seq, delta)
    indicator = np.zeros(p_cond.shape[1] ** n)
    for seq in expected:
        indicator[np.ravel_multi_index(seq, (p_cond.shape[1],) * n)] = 1.0
    assert np.allclose(tp.projector, np.diag(indicator), atol=1e-12)
    assert tp.rank == len(expected)


def test_conditional_typical_set_uses_empirical_average_entropy():
    # deterministic rows have zero entropy, so along any conditioning the
    # only typical output is the deterministic image even at delta = 0
    p_cond = np.array([[1.0, 0.0], [0.0, 1.0]])
    ts = conditional_typical_set(p_cond, (0, 1, 1), 3, 0.0)
    assert ts.members == ((0, 1, 1),)
    assert np.isclose(ts.total_prob, 1.0)


def test_prune_conditional_weights():
    p_cond = np.array([[0.8, 0.2], [0.5, 0.5]])
    cond_seq = (0, 1)
    ts = conditional_typical_set(p_cond, cond_seq, 2, 2.0)
    pd = prune_conditional(p_cond, cond_seq, ts)
    assert np.isclose(pd.prob_vector().sum(), 1.0)
    # full set at generous delta: pruned law equals the raw conditional law
    assert np.isclose(pd.prob((0, 0)), 0.8 * 0.5)
    assert np.isclose(pd.prob((1, 1)), 0.2 * 0.5)
    with pytest.raises(SizeMismatch):
        prune_conditional(p_cond, (0,), ts)


def test_quantum_projector_matches_classical_spectrum():
    # diag(3/4, 1/4) squared: eigenvalues 9/16, 3/16, 3/16, 1/16 mirror the
    # classical two-symbol law, so ranks match the classical counts
    rho = np.diag([0.75, 0.25])
    tp = quantum_typical_projector(rho, 2, 0.4)
    assert tp.kind == "marginal"
    assert tp.rank == 3
    p = tp.projector
    assert np.allclose(p @ p, p)
    assert np.allclose(p, np.diag([1.0, 1.0, 1.0, 0.0]))
    assert quantum_typical_projector(rho, 2, 0.3).rank == 0
    assert quantum_typical_projector(rho, 2, 1.2).rank == 4


def test_conditional_quantum_projector_branches():
    states = {0: np.diag([1.0, 0.0]), 1: np.eye(2) / 2}
    tp = conditional_quantum_typical_projector(states, (0, 1), 0.0)
    assert tp.kind == "conditional"
    assert tp.conditioning == (0, 1)
    # symbol 0 contributes one surviving branch, symbol 1 both
    assert tp.rank == 2
    with pytest.raises(SizeMismatch):
        conditional_quantum_typical_projector(states, (0, 2), 0.1)


def test_sampling_is_deterministic_and_consistent():
    p = [0.6, 0.4]
    ts = build_typical_set(p, 3, 2.0)
    pd = prune(p, ts)
    one_by_one = [sample_sequence(pd, np.random.default_rng(61)) for _ in range(1)]
    batch = sample_sequences(pd, np.random.default_rng(61), 5)
    assert batch[0] == one_by_one[0]
    again = sample_sequences(pd, np.random.default_rng(61), 5)
    assert batch == again
    assert sample_sequences(pd, np.random.default_rng(61), 0) == []
    with pytest.raises(ValueError):
        sample_sequences(pd, np.random.default_rng(61), -1)
    # empirical frequencies approach the pruned law
    draws = sample_sequences(pd, np.random.default_rng(67), 4000)
    freq = sum(1 for d in draws if d == (0, 0, 0)) / 4000
    assert abs(freq - pd.prob((0, 0, 0))) < 0.03


def test_typical_set_json_shape():
    p = [0.75, 0.25]
    ts = build_typical_set(p, 2, 0.4)
    doc = typical_set_to_json(ts, prune(p, ts))
    assert doc["n"] == 2
    assert doc["members"] == [[0, 0], [0, 1], [1, 0]]
    assert np.isclose(sum(doc["pruned_probs"]), 1.0)

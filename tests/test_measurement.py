"""POVM algebra tests: coarse graining, conditioning, equivalence."""

import numpy as np
import pytest

from povmcast import (
    DimensionMismatch,
    EmptyBranch,
    LabelMismatch,
    NegligibleProbability,
    NotHermitian,
    NotPsd,
    OutcomeFunction,
    Povm,
    SizeMismatch,
    born_probabilities,
    coarse_grain,
    conditional_povm,
    measurements_equivalent,
    post_measurement_state,
    reference_blocks,
    sequential_composition,
    support_projector,
)

import oracles
from conftest import random_density, random_povm, random_scenario

PLUS = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]])
MINUS = 0.5 * np.array([[1.0, -1.0], [-1.0, 1.0]])


def trine_povm():
    """Three rank-one elements (2/3)|psi_k><psi_k| summing to the identity."""
    vecs = [
        np.array([1.0, 0.0]),
        np.array([0.5, np.sqrt(3) / 2]),
        np.array([-0.5, np.sqrt(3) / 2]),
    ]
    elems = tuple((2.0 / 3.0) * np.outer(v, v) for v in vecs)
    return Povm(elements=elems, labels=(0, 1, 2))


def test_povm_validation_cites_offending_index():
    bad = np.array([[0.5, 0.3], [0.0, 0.5]])
    with pytest.raises(NotHermitian, match="element 1"):
        Povm(elements=(0.4 * np.eye(2), bad), labels=(0, 1))
    with pytest.raises(NotPsd, match="element 0"):
        Povm(elements=(np.diag([1.5, -0.5]), np.diag([-0.5, 1.5])), labels=(0, 1))


def test_povm_label_and_sum_checks():
    halves = (0.5 * np.eye(2), 0.5 * np.eye(2))
    with pytest.raises(LabelMismatch):
        Povm(elements=halves, labels=(0,))
    with pytest.raises(LabelMismatch):
        Povm(elements=halves, labels=(0, 0))
    with pytest.raises(NotPsd):
        Povm(elements=(0.5 * np.eye(2), 0.4 * np.eye(2)), labels=(0, 1))
    with pytest.raises(NotPsd):
        Povm(elements=(0.8 * np.eye(2), 0.4 * np.eye(2)), labels=(0, 1), complete=False)
    sub = Povm(elements=(0.5 * np.eye(2), 0.4 * np.eye(2)), labels=(0, 1), complete=False)
    assert sub.n_outcomes == 2
    with pytest.raises(SizeMismatch):
        Povm(elements=(), labels=())


def test_povm_element_lookup_by_label():
    p = Povm(elements=(PLUS, MINUS), labels=("p", "m"))
    assert np.allclose(p.elements[p.labels.index("m")], MINUS)
    assert p.dim == 2


def test_outcome_function_validation():
    with pytest.raises(SizeMismatch):
        OutcomeFunction(domain_size=3, image_size=2, table=(0, 1))
    with pytest.raises(LabelMismatch, match=r"table\[2\]"):
        OutcomeFunction(domain_size=3, image_size=2, table=(0, 1, 2))
    with pytest.raises(LabelMismatch, match="never attained"):
        OutcomeFunction(domain_size=3, image_size=2, table=(0, 0, 0))
    g = OutcomeFunction(domain_size=4, image_size=2, table=(0, 0, 1, 1))
    assert g(2) == 1
    assert g.preimage(0) == (0, 1)
    assert OutcomeFunction.identity(3).table == (0, 1, 2)
    assert OutcomeFunction.constant(3).image_size == 1


def test_born_probabilities_known_case():
    rho = np.diag([0.6, 0.4])
    p = born_probabilities(rho, Povm(elements=(PLUS, MINUS), labels=(0, 1)))
    assert np.allclose(p, [0.5, 0.5])
    p = born_probabilities(rho, trine_povm())
    expected = [(2 / 3) * 0.6, (2 / 3) * (0.25 * 0.6 + 0.75 * 0.4)]
    assert np.allclose(p[:2], expected)
    assert np.isclose(p.sum(), 1.0)


def test_coarse_grain_sums_preimages():
    povm = trine_povm()
    g = OutcomeFunction(domain_size=3, image_size=2, table=(0, 1, 1))
    coarse = coarse_grain(povm, g)
    assert np.allclose(coarse.elements[0], povm.elements[0])
    assert np.allclose(coarse.elements[1], povm.elements[1] + povm.elements[2])
    assert coarse.labels == (0, 1)
    with pytest.raises(SizeMismatch):
        coarse_grain(povm, OutcomeFunction.identity(2))


def test_post_measurement_state_known_collapse():
    rho = np.diag([0.6, 0.4])
    prob, state = post_measurement_state(rho, PLUS)
    assert np.isclose(prob, 0.5)
    assert np.allclose(state.mat, PLUS)
    with pytest.raises(NegligibleProbability):
        post_measurement_state(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))


def test_conditional_povm_sums_to_support_with_sink():
    povm = trine_povm()
    g_a = OutcomeFunction(domain_size=3, image_size=2, table=(0, 1, 1))
    g_b = OutcomeFunction(domain_size=3, image_size=2, table=(0, 0, 1))
    for x_a in range(2):
        cond = conditional_povm(povm, g_a, g_b, x_a)
        assert cond.labels == (0, 1, 2)
        branch = sum(povm.elements[x] for x in g_a.preimage(x_a))
        proj = support_projector(branch, 1e-10 * np.linalg.norm(branch, 2))
        real = cond.elements[0] + cond.elements[1]
        assert np.allclose(real, proj, atol=1e-10)
        assert np.allclose(cond.elements[2], np.eye(2) - proj, atol=1e-10)
    with pytest.raises(LabelMismatch):
        conditional_povm(povm, g_a, g_b, 5)


def test_conditional_povm_empty_branch():
    povm = Povm(elements=(np.eye(2), np.zeros((2, 2))), labels=(0, 1))
    g = OutcomeFunction.identity(2)
    with pytest.raises(EmptyBranch):
        conditional_povm(povm, g, g, 1)


def test_sequential_composition_matches_direct_coarse_graining():
    rng = np.random.default_rng(29)
    for _ in range(5):
        dim = int(rng.integers(2, 4))
        outcomes = int(rng.integers(2, 6))
        rho, elems, g_a, g_b = random_scenario(rng, dim, outcomes)
        povm = Povm(elements=tuple(elems), labels=tuple(range(outcomes)))
        fa = OutcomeFunction(domain_size=outcomes, image_size=max(g_a) + 1, table=tuple(g_a))
        fb = OutcomeFunction(domain_size=outcomes, image_size=max(g_b) + 1, table=tuple(g_b))
        seq = sequential_composition(povm, fa, fb)
        direct = coarse_grain(povm, fb)
        verdict = measurements_equivalent(rho, seq, direct, tol=1e-7)
        assert verdict.equivalent, verdict.max_deviation


def test_reference_blocks_match_purified_route():
    # the d x d sandwich sqrt(rho) E sqrt(rho) stands for the reference
    # block of a literal purification: same spectrum, Born traces, and a
    # sum equal to rho; the equivalence check agrees with trace norms of
    # the purified blocks
    rng = np.random.default_rng(31)
    for _ in range(10):
        dim = int(rng.integers(2, 4))
        outcomes = int(rng.integers(2, 6))
        rho, elems, _, _ = random_scenario(rng, dim, outcomes)
        phi = oracles.canonical_purification(rho)
        joint = np.outer(phi, phi.conj()).reshape(dim, dim, dim, dim)
        assert np.allclose(np.einsum("ijik->jk", joint), rho, atol=1e-12)
        povm = Povm(elements=tuple(elems), labels=tuple(range(outcomes)))
        blocks = reference_blocks(rho, povm.elements)
        purified = oracles.purified_reference_blocks(rho, elems)
        for blk, ref in zip(blocks, purified):
            assert np.allclose(
                np.linalg.eigvalsh(blk), np.linalg.eigvalsh(ref), atol=1e-12
            )
        traces = np.trace(blocks, axis1=1, axis2=2)
        assert np.allclose(traces, born_probabilities(rho, povm), atol=1e-12)
        assert np.allclose(blocks.sum(axis=0), rho, atol=1e-12)
        other = Povm(
            elements=tuple(random_povm(rng, dim, outcomes)),
            labels=tuple(range(outcomes)),
        )
        for b in (povm, other):
            got = measurements_equivalent(rho, povm, b, tol=1e-7).max_deviation
            ref = max(oracles.purified_trace_norms(rho, elems, b.elements))
            assert abs(got - ref) <= 1e-12, (got, ref)


def test_measurements_equivalent_detects_differences():
    rng = np.random.default_rng(37)
    rho = random_density(rng, 2)
    a = Povm(elements=(PLUS, MINUS), labels=(0, 1))
    same = measurements_equivalent(rho, a, a, tol=1e-12)
    assert same.equivalent and same.max_deviation <= 1e-14
    b = Povm(elements=(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])), labels=(0, 1))
    diff = measurements_equivalent(rho, a, b, tol=1e-7)
    assert not diff.equivalent
    assert diff.max_deviation > 0.1
    c = Povm(elements=(PLUS, MINUS), labels=(0, 2))
    with pytest.raises(LabelMismatch):
        measurements_equivalent(rho, a, c, tol=1e-7)
    with pytest.raises(DimensionMismatch):
        measurements_equivalent(random_density(rng, 3), a, b, tol=1e-7)

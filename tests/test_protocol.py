"""Protocol construction tests: scenario prep, codebooks, operators, trials."""

import collections
import json
from dataclasses import fields, is_dataclass, replace
from functools import reduce
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from povmcast import (
    Codebook,
    DensityOperator,
    OutcomeFunction,
    Povm,
    build_block_scenario,
    build_protocol_instance,
    empirical_e0_check,
    faithfulness_distance,
    generate_codebook,
    instance_report,
    prepare_scenario,
    run_protocol_trial,
    simulate_trials,
)
from povmcast.config import config_from_dict
from povmcast.errors import EmptySupport, NegligibleProbability
from povmcast.presets import preset_document, preset_names
from povmcast.protocol import (
    STAGE_COLUMN,
    STAGE_EXACT,
    STAGE_NORMS,
    STAGE_TRACE,
    BobOperatorSet,
    ProtocolParams,
    _ProductEigs,
    _build_conditioning_block,
    _by_shape,
    _codeword_weights,
    _collapsed_state,
    _first_draws,
    _Kron,
    _kron_halves,
    _permute_copies,
    _pooled,
    _psd_factor,
    _settle_bins,
    _signed_trace_norms,
    _thin_roots,
    _top_eigenvalues,
    assemble_bob_povm,
    build_alice_measurement,
    build_gamma,
    build_omega_and_cutoff,
    build_xi_prime,
    validate_subpovm,
)
from povmcast.linalg import TAU_PROB, TAU_PSD, hermitian_part, kron_all, sqrt_psd
from povmcast.measurement import SUPPORT_CUTOFF_REL
from povmcast.typicality import (
    branch_eigensystem,
    build_typical_set,
    conditional_quantum_typical_projector,
    conditional_typical_set,
    prune,
    prune_conditional,
)

import oracles
from conftest import (
    COMPLEX_TRINE,
    phase_unitary,
    random_density,
    random_povm,
    random_surjection,
    rotated_document,
)


def bell_single():
    rho = DensityOperator.maximally_mixed(2)
    povm = Povm(elements=(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])), labels=(0, 1))
    g = OutcomeFunction.identity(2)
    return prepare_scenario(rho, povm, g, g)


def trine_single():
    vecs = [
        np.array([1.0, 0.0]),
        np.array([0.5, np.sqrt(3) / 2]),
        np.array([-0.5, np.sqrt(3) / 2]),
    ]
    elems = tuple((2.0 / 3.0) * np.outer(v, v) for v in vecs)
    povm = Povm(elements=elems, labels=(0, 1, 2))
    rho = DensityOperator(np.diag([0.6, 0.4]))
    g_a = OutcomeFunction(domain_size=3, image_size=2, table=(0, 1, 1))
    g_b = OutcomeFunction(domain_size=3, image_size=2, table=(0, 0, 1))
    return prepare_scenario(rho, povm, g_a, g_b)


BELL_PARAMS = ProtocolParams(
    n=2, delta=0.5, delta2=0.25, eps=0.1, s_b=2, m_b=2, s_a=4, m_a=2, case=2, seed=7
)
TRINE_PARAMS = ProtocolParams(
    n=2, delta=0.65, delta2=0.25, eps=0.1, s_b=4, m_b=2, s_a=6, m_a=2,
    s_b_prime=24, case=1, seed=11,
)


def test_params_validation():
    with pytest.raises(ValueError):
        ProtocolParams(n=0, delta=0.5, delta2=0.1, eps=0.1, s_b=1, m_b=1)
    with pytest.raises(ValueError):
        ProtocolParams(n=1, delta=-0.1, delta2=0.1, eps=0.1, s_b=1, m_b=1)
    with pytest.raises(ValueError):
        ProtocolParams(n=1, delta=0.5, delta2=0.1, eps=0.1, s_b=0, m_b=1)
    with pytest.raises(ValueError):
        ProtocolParams(n=1, delta=0.5, delta2=0.1, eps=0.1, s_b=1, m_b=1, case=3)
    with pytest.raises(ValueError):
        ProtocolParams(
            n=1, delta=0.5, delta2=0.1, eps=0.1, s_b=4, m_b=1, s_b_prime=2, case=1
        )
    with pytest.raises(ValueError):
        ProtocolParams(n=1, delta=0.5, delta2=0.1, eps=0.1, s_b=1, m_b=1, seed=-1)
    for name in ("delta", "delta2", "eps"):
        for bad in (float("nan"), float("inf")):
            kwargs = dict(n=1, delta=0.5, delta2=0.1, eps=0.1, s_b=1, m_b=1)
            kwargs[name] = bad
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                ProtocolParams(**kwargs)


def test_prepare_scenario_reconstructs_post_states():
    # sum_b p(b|a) rho_hat_{b|a} must rebuild the post-measurement state
    for single in (bell_single(), trine_single()):
        for a, rho_a in single.post_states.items():
            dim = rho_a.dim
            recon = np.zeros((dim, dim), dtype=complex)
            for b in range(single.n_bob):
                if (a, b) in single.hat_states:
                    recon = recon + single.p_cond[a, b] * single.hat_states[(a, b)]
            assert np.allclose(recon, rho_a.mat, atol=1e-10)
            assert np.isclose(single.p_cond[a].sum(), 1.0)


def test_prepare_scenario_total_probability():
    single = trine_single()
    # p_b through the sequential chain equals the mixture of conditionals
    mix = single.p_a @ single.p_cond
    assert np.allclose(mix, single.p_b, atol=1e-10)
    # entropy bookkeeping
    assert np.isclose(single.h_r, 0.9709505944546686, atol=1e-12)  # H(0.6, 0.4)
    acc = sum(
        single.p_a[a] * float(-(w * np.log2(w)).sum())
        for a, st in single.post_states.items()
        for w in [np.linalg.eigvalsh(st.mat)[np.linalg.eigvalsh(st.mat) > 0]]
    )
    assert np.isclose(single.h_r_given_xa, acc, atol=1e-10)


def test_build_xi_prime_is_projected_hermitian():
    rng = np.random.default_rng(79)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    state = g @ g.conj().T
    proj = np.diag([1.0, 1.0, 0.0, 0.0])
    # a wide delta keeps every branch, so P_hat is the identity
    f = proj @ build_xi_prime([branch_eigensystem(state)], 100.0)
    out = f @ f.conj().T
    assert np.allclose(out, out.conj().T)
    assert np.allclose(out, proj @ state @ proj, atol=1e-12)

    # two positions with a typical-branch mask: the factor rebuilds the
    # dense sandwich P_C P_hat (a (x) b) P_hat P_C
    a = np.diag([0.7, 0.3])
    h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = h @ h.conj().T
    b = b / np.trace(b).real
    pair_seq = ((0, 0), (0, 1))
    hats = {(0, 0): a, (0, 1): b}
    eigs = [branch_eigensystem(a), branch_eigensystem(b)]
    proj_hat = conditional_quantum_typical_projector(hats, pair_seq, 0.5).projector
    proj_c = np.diag([1.0, 1.0, 1.0, 0.0])
    f = proj_c @ build_xi_prime(eigs, 0.5)
    dense = proj_c @ proj_hat @ np.kron(a, b) @ proj_hat @ proj_c
    assert np.allclose(f @ f.conj().T, dense, atol=1e-12)
    assert f.shape == (4, 2)
    # no typical branch: an empty factor, a zero compressed state
    assert (proj_c @ build_xi_prime(eigs, 0.2)).shape == (4, 0)


def _diag_factor(values):
    return np.diag(np.sqrt(np.asarray(values, dtype=float)))


def test_omega_cutoff_keeps_eigenvalues_above_threshold():
    # xi_bar = 0.5 * diag(0.3, 0.01, 0.002) + 0.5 * diag(0.7, 0.03, 0.008)
    #        = diag(0.5, 0.02, 0.005)
    factors = [
        _diag_factor([0.3, 0.01, 0.002]),
        _diag_factor([0.7, 0.03, 0.008]),
    ]
    probs = np.array([0.5, 0.5])
    # threshold = 0.1 * 2^{-log2(10)} = 0.01
    res = build_omega_and_cutoff(factors, probs, 1, 0.1, 0.0, np.log2(10))
    assert np.isclose(res.threshold, 0.01)
    assert np.allclose(res.projector, np.diag([1.0, 1.0, 0.0]))
    assert np.allclose(oracles.cut_average(res), np.diag([0.5, 0.02, 0.0]))
    assert np.allclose(res.eigenvalues, [0.5, 0.02])
    assert res.basis.shape[1] == 2

    # everything below threshold: empty cutoff
    res = build_omega_and_cutoff(
        [_diag_factor([1e-6, 1e-7])], np.array([1.0]), 1, 0.5, 0.0, 0.0
    )
    assert res.basis.shape[1] == 0
    assert np.allclose(res.projector, np.zeros((2, 2)))

    # eps = 0 keeps exactly the positive spectrum
    res = build_omega_and_cutoff(
        [_diag_factor([0.4, 0.0])], np.array([1.0]), 1, 0.0, 1.0, 0.5
    )
    assert np.allclose(res.projector, np.diag([1.0, 0.0]))

    # fewer factor columns than rows: the cutoff runs on the Gram matrix
    u = np.array([[1.0], [1.0], [0.0]]) / np.sqrt(2.0)
    v = np.array([[0.0], [0.0], [1.0]])
    res = build_omega_and_cutoff(
        [np.sqrt(0.6) * u, np.sqrt(0.004) * v],
        np.array([0.5, 0.5]), 1, 0.1, 0.0, np.log2(10),
    )
    assert np.allclose(res.projector, u @ u.T)
    assert np.allclose(oracles.cut_average(res), 0.3 * u @ u.T)
    # the dropped member lies outside the kept space
    assert np.allclose(res.basis.conj().T @ v, 0.0)


def _oracle_cases(single, block):
    """(conditioning, block, base states, conditional rows, hat states,
    entropy) for Alice's block and every typical Alice sequence, in the
    form the dense oracle takes. The block is None for a dropped
    conditioning."""
    sqrt_rho = sqrt_psd(single.rho.mat)
    alice_hat = {
        (0, a): hermitian_part(sqrt_rho @ e @ sqrt_rho / single.p_a[a])
        for a, e in enumerate(single.alice_povm.elements)
        if single.p_a[a] > TAU_PROB
    }
    yield (
        block.alice_block.cond_seq, block.alice_block, {0: single.rho.mat},
        single.p_a.reshape(1, -1), alice_hat, single.h_r,
    )
    bob_states = {a: st.mat for a, st in single.post_states.items()}
    for cond_seq in block.alice_block.typical.members:
        code = oracles.code(cond_seq, single.n_alice)
        yield (
            cond_seq, block.bob_blocks.get(code), bob_states,
            single.p_cond, single.hat_states, single.h_r_given_xa,
        )


def _assert_matches_dense_oracle(single, params, sqrt_tol=1e-10):
    block = build_block_scenario(single, params)

    def close(got, want, tol=1e-10):
        assert np.abs(got - want).max() <= tol

    for cond_seq, blk, states, rows, hats, h in _oracle_cases(single, block):
        args = (cond_seq, states, rows, hats, h, params.n, params.delta, params.eps)
        if blk is None:
            assert cond_seq in block.dropped_cond
            with pytest.raises(EmptySupport):
                oracles.dense_conditioning_block(*args)
            continue
        assert blk.cond_seq == cond_seq
        ref = oracles.dense_conditioning_block(*args)
        close(blk.cutoff.projector, ref["projector"])
        close(oracles.cut_average(blk.cutoff), ref["omega"])
        assert (blk.cutoff.basis.shape[1] == 0) == ref["empty"]
        assert blk.cutoff.threshold == ref["threshold"]
        # The dense oracle's whitened operators carry a forward error of
        # about machine epsilon times the condition number of rho_cond
        # on its support, so that bound joins the tolerance when it is
        # the larger one.
        spec = np.linalg.eigvalsh(oracles.conditioning_state(block, blk))
        support = spec[spec > SUPPORT_CUTOFF_REL * max(spec[-1], 1.0)]
        tol = max(1e-10, 1e-15 * spec[-1] / support[0])
        assert set(blk.typical.members) == set(ref["whitened"])
        assert len(blk.gamma_factors) == len(blk.typical.members)
        for member, w in zip(blk.typical.members, blk.gamma_factors):
            close(w @ w.conj().T, ref["whitened"][member], tol)
    rho_n = oracles.dense_kron(block.rho_n)
    close(rho_n, kron_all([single.rho.mat] * params.n), 1e-14)
    close(oracles.dense_kron(block.sqrt_rho_n), sqrt_psd(rho_n))
    # references exist exactly for the sequences a codebook can draw,
    # keyed by their product-order codes
    n, k_a, k_b = params.n, single.n_alice, single.n_bob
    lambda_a_n = oracles.by_sequence(block.lambda_a_n, k_a, n)
    sqrt_lambda_a_n = oracles.by_sequence(block.sqrt_lambda_a_n, k_a, n)
    lambda_ref_b = oracles.by_sequence(block.lambda_ref_b, k_b, n)
    alice_members = set(block.alice_block.typical.members)
    assert set(sqrt_lambda_a_n) == alice_members
    assert set(lambda_a_n) == alice_members
    bob_members = set()
    for blk in block.bob_blocks.values():
        bob_members.update(blk.typical.members)
    assert set(lambda_ref_b) == bob_members
    # each reference is held already sandwiched, by the Kronecker halves
    # of sqrt(rho^n) F with Lambda_x = F F^dag, F the Kronecker product
    # of single-letter factors: compared as a factor against the
    # Kronecker product of sqrt(rho) F_a over the letters, and as an
    # operator against sqrt(rho^n) Lambda_x sqrt(rho^n)
    dim = block.rho_n.shape[0]
    sqrt_rho = sqrt_psd(single.rho.mat)
    sqrt_rho_n = sqrt_psd(rho_n)

    def sandwiched_factors(elements):
        factors = [_psd_factor(e) for e in elements]
        for f, e in zip(factors, elements):
            close(f @ f.conj().T, e, 1e-14)
        return [sqrt_rho @ f for f in factors]

    alice_letters = sandwiched_factors(single.alice_povm.elements)
    for seq, halves in lambda_a_n.items():
        f = halves.dense()
        close(f, reduce(np.kron, [alice_letters[a] for a in seq]), 1e-14)
        mat = kron_all([single.alice_povm.elements[a] for a in seq])
        assert f.shape[0] == dim and f.shape[1] <= dim
        close(f @ f.conj().T, sqrt_rho_n @ mat @ sqrt_rho_n, 1e-14)
        sqrt_true = oracles.dense_kron(sqrt_lambda_a_n[seq])
        close(sqrt_true, sqrt_psd(mat), sqrt_tol)
    bob_letters = sandwiched_factors(single.bob_reference.elements)
    for seq, halves in lambda_ref_b.items():
        f = halves.dense()
        close(f, reduce(np.kron, [bob_letters[b] for b in seq]), 1e-14)
        mat = kron_all([single.bob_reference.elements[b] for b in seq])
        assert f.shape[0] == dim and f.shape[1] <= dim
        close(f @ f.conj().T, sqrt_rho_n @ mat @ sqrt_rho_n, 1e-14)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("name", preset_names())
def test_factored_block_matches_dense_oracle_on_presets(name, n):
    cfg = config_from_dict(preset_document(name), name=name)
    single = prepare_scenario(cfg.rho, cfg.povm, cfg.g_a, cfg.g_b)
    _assert_matches_dense_oracle(single, replace(cfg.params, n=n))


def _owner(a):
    """The array whose buffer a view a keeps alive."""
    while a.base is not None:
        a = a.base
    return a


def _buffer_ids(obj) -> set:
    """ids of the owners of every ndarray buffer reachable from obj."""
    if isinstance(obj, np.ndarray):
        return {id(_owner(obj))}
    if isinstance(obj, dict):
        obj = list(obj.values())
    elif is_dataclass(obj):
        obj = [getattr(obj, f.name) for f in fields(obj)]
    elif not isinstance(obj, (list, tuple)):
        return set()
    return set().union(*map(_buffer_ids, obj))


@pytest.mark.parametrize("n", [3, 4])
def test_cutoff_keeps_only_its_factors(n):
    # the projector is formed from the basis on request; a block holds
    # its gamma factors (one shared buffer), the cutoff's basis and
    # eigenvalues, its member norms, its members' codes and its law's
    # probabilities and their cumulative sums, and no other array
    name = "three-outcome-split"
    cfg = config_from_dict(preset_document(name), name=name)
    single = prepare_scenario(cfg.rho, cfg.povm, cfg.g_a, cfg.g_b)
    block = build_block_scenario(single, replace(cfg.params, n=n))
    dim = block.rho_n.shape[0]
    for blk in [block.alice_block, *block.bob_blocks.values()]:
        cut = blk.cutoff
        rank = cut.basis.shape[1]
        assert cut.basis.shape == (dim, rank)
        assert cut.eigenvalues.shape == (rank,)
        gamma = {id(_owner(w)) for w in blk.gamma_factors}
        assert len(gamma) == 1
        held = (
            cut.basis, cut.eigenvalues, blk.norms, blk.typical.codes,
            blk.pruned.probs, blk.pruned.cum,
        )
        want = gamma | {id(_owner(a)) for a in held}
        assert _buffer_ids(blk) == want


@pytest.mark.parametrize("k", [0, 1, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_kron_halves_apply_matches_kron_all(n, k):
    # n = 1 leaves the first half empty, odd n splits unevenly, and the
    # letters mix dimensions 2 and 3
    rng = np.random.default_rng(10 * n + k)
    dims = [2, 3, 2, 3, 2][:n]
    mats = [
        (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / d
        for d in dims
    ]
    dense = kron_all(mats)
    g = rng.normal(size=(dense.shape[0], k)) + 1j * rng.normal(
        size=(dense.shape[0], k)
    )
    halves = _kron_halves(mats, tuple(range(n)), {})
    assert halves.shape == dense.shape
    got = halves @ g
    assert got.shape == (dense.shape[0], k)
    assert np.abs(got - dense @ g).max(initial=0.0) <= 1e-13
    assert np.abs(halves.H @ g - dense.conj().T @ g).max(initial=0.0) <= 1e-13
    # the product of two Kronecker products split at the same position,
    # here with a rectangular right factor of k columns per letter
    right = [
        rng.normal(size=(d, k)) + 1j * rng.normal(size=(d, k)) for d in dims
    ]
    product = halves @ _kron_halves(right, tuple(range(n)), {})
    assert product.shape == (dense.shape[0], k**n)
    want = dense @ reduce(np.kron, right)
    assert np.abs(oracles.dense_kron(product) - want).max(initial=0.0) <= 1e-13


def test_kron_halves_share_equal_halves():
    # equal halves are formed once and shared through the memo
    mats = [np.diag([1.0, 2.0]), np.array([[0.0, 1.0], [1.0, 0.0]])]
    memo = {}
    first = _kron_halves(mats, (0, 1, 0, 1), memo)
    assert list(memo) == [(0, 1)]
    assert first.left is first.right
    assert _kron_halves(mats, (0, 1, 0, 1), memo).left is first.left


def _arrays(obj) -> list:
    """Every ndarray reachable from obj through dict values, sequences,
    dataclass fields and the buffers views keep alive, each once."""
    seen, found, stack = set(), [], [obj]
    while stack:
        o = stack.pop()
        if id(o) in seen:
            continue
        seen.add(id(o))
        if isinstance(o, np.ndarray):
            found.append(o)
            if o.base is not None:
                stack.append(o.base)
        elif isinstance(o, dict):
            stack.extend(o.values())
        elif isinstance(o, (list, tuple)):
            stack.extend(o)
        elif is_dataclass(o):
            stack.extend(getattr(o, f.name) for f in fields(o))
    return found


@pytest.mark.parametrize("name", ["bell-computational", "three-outcome-split"])
def test_square_roots_hold_no_dense_block_operator(name):
    # sqrt(Lambda_a^n) is held as Kronecker half-products shared between
    # sequences, and Alice's realized roots as thin (U, s) pairs. Her
    # covering-lemma sizes keep bins from falling back, so the trial has
    # roots to check.
    doc = preset_document(name)
    doc["protocol"].update(
        n=6, sA="I(X_A;R) + delta2", MA="H(X_A) - I(X_A;R) + delta2"
    )
    cfg = config_from_dict(doc, name=name)
    single = prepare_scenario(cfg.rho, cfg.povm, cfg.g_a, cfg.g_b)
    block = build_block_scenario(single, cfg.params)
    dim = block.rho_n.shape[0]
    full = dim**2
    # rho^n and sqrt(rho^n) are Kronecker powers held as two halves
    powers = _arrays([block.rho_n, block.sqrt_rho_n])
    assert powers
    assert all(a.size <= dim for a in powers)
    table = _arrays(block.sqrt_lambda_a_n)
    assert table
    assert all(a.size < full for a in table)
    assert sum(a.size for a in table) < full
    instance = build_protocol_instance(
        block, cfg.params, mode=cfg.mode, seed_seq=np.random.SeedSequence(0)
    )
    roots = _arrays(instance.alice.sqrt_lambda_tilde)
    assert roots
    assert all(a.size < full for a in roots)


@st.composite
def rank_two_scenarios(draw, max_n=(3, 2)):
    """A random scenario with rank-2 POVM elements and its params; max_n
    bounds n for a qubit and for a qutrit."""
    dim = draw(st.sampled_from([2, 3]))
    outcomes = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rho = DensityOperator(random_density(rng, dim))
    elems = tuple(random_povm(rng, dim, outcomes, rank=2))
    povm = Povm(elements=elems, labels=tuple(range(outcomes)))
    image_a = draw(st.integers(1, outcomes))
    image_b = draw(st.integers(1, outcomes))
    g_a = OutcomeFunction(
        domain_size=outcomes, image_size=image_a,
        table=tuple(random_surjection(rng, outcomes, image_a)),
    )
    g_b = OutcomeFunction(
        domain_size=outcomes, image_size=image_b,
        table=tuple(random_surjection(rng, outcomes, image_b)),
    )
    params = ProtocolParams(
        n=draw(st.integers(1, max_n[0] if dim == 2 else max_n[1])),
        delta=draw(st.floats(0.3, 1.5)),
        delta2=0.25,
        eps=draw(st.sampled_from([0.0, 0.05, 0.3])),
        s_b=1,
        m_b=1,
    )
    return prepare_scenario(rho, povm, g_a, g_b), params


@settings(max_examples=40, deadline=None)
@given(rank_two_scenarios())
def test_factored_block_matches_dense_oracle_on_rank_two_scenarios(case):
    single, params = case
    # Rank-2 elements of a qutrit are singular, and the principal square
    # root of a singular matrix is only accurate to about the square root
    # of machine epsilon, by the dense route and the Kronecker one alike.
    try:
        _assert_matches_dense_oracle(single, params, sqrt_tol=1e-7)
    except (EmptySupport, NegligibleProbability):
        assume(False)


def _assert_blocks_match_per_sequence_route(single, params):
    """Every Bob block of build_block_scenario, most of them permutations
    of their type's block, against the block built along its own
    conditioning. Probabilities are compared to a few ulps, as their
    products run in another order; operators are compared by the trace
    norm of their difference, from their factors. The whitened factors
    of either route carry a forward error of about machine epsilon times
    the condition number of rho_cond on its support, so that bound joins
    their tolerance when it is the larger one, as for the dense
    oracle."""
    block = build_block_scenario(single, params)
    eigs = _ProductEigs({a: rho.mat for a, rho in single.post_states.items()})
    hats = {pair: branch_eigensystem(m) for pair, m in single.hat_states.items()}
    dropped = []
    for cond_seq in block.alice_block.typical.members:
        try:
            want = _build_conditioning_block(
                cond_seq, eigs, single.p_cond, hats, single.h_r_given_xa,
                params.n, params.delta, params.eps,
            )
        except EmptySupport:
            dropped.append(cond_seq)
            continue
        got = block.bob_blocks[oracles.code(cond_seq, single.n_alice)]
        members = want.typical.members
        assert got.cond_seq == cond_seq
        assert got.typical.members == members
        assert np.array_equal(got.typical.codes, want.typical.codes)
        assert got.pruned.probs.shape == (len(members),)
        assert len(got.gamma_factors) == len(members)
        assert np.all(np.abs(got.pruned.probs - want.pruned.probs) <= 1e-15)
        assert abs(
            got.typical.total_prob - want.typical.total_prob
        ) <= 1e-15
        assert got.cutoff.threshold == want.cutoff.threshold
        top = max(1.0, float(want.cutoff.eigenvalues.max(initial=0.0)))
        assert got.cutoff.eigenvalues.shape == want.cutoff.eigenvalues.shape
        assert np.abs(
            got.cutoff.eigenvalues - want.cutoff.eigenvalues
        ).max(initial=0.0) <= 1e-12 * top
        assert oracles.signed_trace_norm(
            got.cutoff.basis, want.cutoff.basis
        ) <= 1e-12
        spec = reduce(np.multiply.outer, eigs.eigenvalues(cond_seq)).ravel()
        support = spec[spec > SUPPORT_CUTOFF_REL * max(spec.max(), 1.0)]
        tol = max(1e-12, 1e-15 * spec.max() / support.min())
        for g, w in zip(got.gamma_factors, want.gamma_factors):
            scale = max(1.0, float(np.linalg.norm(w)) ** 2)
            assert oracles.signed_trace_norm(g, w) <= tol * scale
        # the carried member norms are the ones built along cond_seq
        scale = np.maximum(1.0, want.norms)
        assert np.all(np.abs(got.norms - want.norms) <= tol * scale)
    assert block.dropped_cond == tuple(dropped)
    assert len(block.bob_blocks) + len(dropped) == len(
        block.alice_block.typical.members
    )
    return block


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("name", preset_names())
def test_shared_block_geometry_matches_per_sequence_route_on_presets(name, n):
    cfg = config_from_dict(preset_document(name), name=name)
    single = prepare_scenario(cfg.rho, cfg.povm, cfg.g_a, cfg.g_b)
    _assert_blocks_match_per_sequence_route(single, replace(cfg.params, n=n))


@settings(max_examples=40, deadline=None)
@given(rank_two_scenarios(max_n=(4, 3)))
def test_shared_block_geometry_matches_per_sequence_route(case):
    single, params = case
    try:
        _assert_blocks_match_per_sequence_route(single, params)
    except (EmptySupport, NegligibleProbability):
        assume(False)


def test_shared_block_geometry_drops_whole_types():
    # a classical joint law on a ququart: x_A = 0 leaves x_B with law
    # (0.9, 0.1), whose conditional typical sets at delta = 0.2 are empty
    # along the types (0, 0, 0, 0) and (0, 0, 0, 1), x_A = 1 leaves x_B
    # uniform
    rho = DensityOperator(np.diag([0.45, 0.05, 0.25, 0.25]))
    povm = Povm(
        elements=tuple(np.diag(e) for e in np.eye(4)), labels=(0, 1, 2, 3)
    )
    single = prepare_scenario(
        rho, povm,
        OutcomeFunction(domain_size=4, image_size=2, table=(0, 0, 1, 1)),
        OutcomeFunction(domain_size=4, image_size=2, table=(0, 1, 0, 1)),
    )
    params = ProtocolParams(n=4, delta=0.2, delta2=0.25, eps=0.05, s_b=1, m_b=1)
    block = _assert_blocks_match_per_sequence_route(single, params)
    assert len(block.bob_blocks) == 11
    assert block.dropped_cond == (
        (0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0),
    )


def test_block_geometry_is_built_once_per_type(monkeypatch):
    # three-outcome-split at n = 5 has 32 typical x_A^n in 6 types: one
    # build per type, plus Alice's block
    calls = []

    def counted(cond_seq, *args):
        calls.append(cond_seq)
        return _build_conditioning_block(cond_seq, *args)

    monkeypatch.setattr(
        "povmcast.protocol._build_conditioning_block", counted
    )
    name = "three-outcome-split"
    cfg = config_from_dict(preset_document(name), name=name)
    single = prepare_scenario(cfg.rho, cfg.povm, cfg.g_a, cfg.g_b)
    block = build_block_scenario(single, replace(cfg.params, n=5))
    assert len(block.bob_blocks) == 32
    types = {tuple(sorted(b.cond_seq)) for b in block.bob_blocks.values()}
    assert len(types) == 6
    assert calls == [block.alice_block.cond_seq, *sorted(types)]


def _orbit_count(blk) -> int:
    """Member orbits under the copy permutations that fix the conditioning:
    two members share one exactly when their multisets of (conditioning,
    output) pairs agree."""
    return len({tuple(sorted(zip(blk.cond_seq, x))) for x in blk.typical.members})


def _assert_members_carry_their_representative(blk, dim):
    # each member x's factor is, bit for bit, the factor of rep, x sorted
    # within each conditioning symbol's positions, with its row axes
    # permuted by axes, where x[i] = rep[axes[i]] and axes follows the
    # stable sort
    cond = np.array(blk.cond_seq)
    for x in blk.typical.members:
        x = np.array(x)
        rep = x.copy()
        axes = np.arange(x.size)
        for sym in np.unique(cond):
            pos = np.flatnonzero(cond == sym)
            order = np.argsort(x[pos], kind="stable")
            rep[pos] = x[pos][order]
            axes[pos[order]] = pos
        assert np.array_equal(rep[axes], x)
        factor = blk.gamma_factors[blk.typical.members.index(tuple(rep))]
        want = _permute_copies(factor, axes, dim)
        got = blk.gamma_factors[blk.typical.members.index(tuple(x))]
        assert np.array_equal(got, want)


def _count_xi_prime(monkeypatch) -> list:
    """A list that gets one entry per build_xi_prime call."""
    calls = []

    def counted(pair_eigs, delta):
        calls.append(len(pair_eigs))
        return build_xi_prime(pair_eigs, delta)

    monkeypatch.setattr("povmcast.protocol.build_xi_prime", counted)
    return calls


def _three_outcome_split_at(n):
    name = "three-outcome-split"
    cfg = config_from_dict(preset_document(name), name=name)
    single = prepare_scenario(cfg.rho, cfg.povm, cfg.g_a, cfg.g_b)
    return single, replace(cfg.params, n=n)


def test_block_factors_are_built_once_per_member_orbit(monkeypatch):
    # three-outcome-split at n = 5: Alice's 32 members fall into 6
    # orbits under S_5, and the Bob type with k ones into k + 1 orbits,
    # so 6 + (1 + 2 + ... + 6) = 27 compressed states are built
    calls = _count_xi_prime(monkeypatch)
    single, params = _three_outcome_split_at(5)
    block = build_block_scenario(single, params)
    types = {tuple(sorted(b.cond_seq)): b for b in block.bob_blocks.values()}
    want = _orbit_count(block.alice_block) + sum(map(_orbit_count, types.values()))
    assert len(calls) == want == 27
    for blk in [block.alice_block, *block.bob_blocks.values()]:
        _assert_members_carry_their_representative(blk, single.rho.dim)


@pytest.mark.parametrize(
    "cond_seq", [(0, 1, 1, 0, 1), (1, 0, 0, 1, 0), (1, 1, 0, 0, 1)]
)
def test_unsorted_conditioning_builds_once_per_member_orbit(
    monkeypatch, cond_seq
):
    # a block built straight along an unsorted conditioning: its orbits
    # permute the positions of each symbol, which are not runs
    calls = _count_xi_prime(monkeypatch)
    single, params = _three_outcome_split_at(5)
    eigs = _ProductEigs({a: rho.mat for a, rho in single.post_states.items()})
    hats = {pair: branch_eigensystem(m) for pair, m in single.hat_states.items()}
    blk = _build_conditioning_block(
        cond_seq, eigs, single.p_cond, hats, single.h_r_given_xa,
        params.n, params.delta, params.eps,
    )
    ones = sum(cond_seq)
    assert len(blk.typical.members) == 2**ones
    assert len(calls) == _orbit_count(blk) == ones + 1
    _assert_members_carry_their_representative(blk, single.rho.dim)


def test_codebook_case2_semantics():
    single = trine_single()
    block = build_block_scenario(single, TRINE_PARAMS)
    conditionals = {c: b.pruned for c, b in block.bob_blocks.items()}
    cb = generate_codebook(
        TRINE_PARAMS, block.bob_marg_pruned, conditionals,
        np.random.default_rng(5), case=2,
    )
    assert cb.case == 2
    for cond_seq, law in conditionals.items():
        rows = cb.cells[cond_seq]
        assert rows.shape == (cb.m_count, cb.size)
        for m in range(cb.m_count):
            words = cb.codewords(cond_seq, m)
            assert len(words) == cb.size
            # member indices of the conditioning's own law
            assert words.dtype.kind == "i"
            assert np.all((0 <= words) & (words < len(law.support())))
            # a cell is its entry, a view of its conditioning's row
            assert words.base is rows.base or words.base is rows
            assert cb.entries[(cond_seq, m)] is words or np.shares_memory(
                cb.entries[(cond_seq, m)], rows
            )
            # identity index map in case 2
            assert cb.selected_index(cond_seq, m, 1) == 1
    again = generate_codebook(
        TRINE_PARAMS, block.bob_marg_pruned, conditionals,
        np.random.default_rng(5), case=2,
    )
    assert again.entries.keys() == cb.entries.keys()
    for key, row in cb.entries.items():
        assert np.array_equal(again.entries[key], row)


def test_codebook_case1_selection_semantics():
    single = trine_single()
    block = build_block_scenario(single, TRINE_PARAMS)
    conditionals = {c: b.pruned for c, b in block.bob_blocks.items()}
    cb = generate_codebook(
        TRINE_PARAMS, block.bob_marg_pruned, conditionals, np.random.default_rng(9)
    )
    assert cb.case == 1
    assert cb.size_prime == TRINE_PARAMS.s_b_prime
    marginal = block.bob_marg_pruned.support()
    for m in range(cb.m_count):
        assert len(cb.entries[m]) == cb.size_prime
    for cond_seq, law in conditionals.items():
        members = law.support()
        for m in range(cb.m_count):
            pool = [marginal[i] for i in cb.entries[m]]
            picked = cb.selection[(cond_seq, m)]
            # first `size` typical draws, in draw order
            expected = [j for j, seq in enumerate(pool) if seq in members][
                : cb.size
            ]
            assert list(picked) == expected
            assert cb.failure_flags[(cond_seq, m)] == (len(picked) < cb.size)
            # the selected draws as member indices of the conditional law
            words = cb.codewords(cond_seq, m)
            assert [members[i] for i in words] == [pool[j] for j in picked]
            # a cell is a view of its conditioning's row, -1 past it
            row = cb.cells[cond_seq][m]
            assert np.shares_memory(words, row)
            assert np.all(row[len(words):] == -1)
            if not cb.failure_flags[(cond_seq, m)]:
                assert cb.selected_index(cond_seq, m, 0) == picked[0]
                assert type(cb.selected_index(cond_seq, m, 0)) is int


@st.composite
def codebook_cases(draw):
    """Random laws over one alphabet and length: a pruned marginal and
    up to four pruned conditional laws (conditionings whose set is empty
    are left out), with case, size, m_count, s', seed, eps and a fallback
    flag per (conditioning, bin)."""
    k = draw(st.integers(2, 3))
    n = draw(st.integers(1, 3))

    def law():
        w = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k)))
        return w / w.sum()

    rows = np.array([law() for _ in range(draw(st.integers(1, 3)))])
    symbols = st.integers(0, len(rows) - 1)
    conds = draw(
        st.lists(st.tuples(*[symbols] * n), min_size=1, max_size=4, unique=True)
    )
    delta = draw(st.floats(0.0, 1.5))
    conditionals = {}
    for cond_seq in conds:
        try:
            ts = conditional_typical_set(rows, cond_seq, n, delta)
        except EmptySupport:
            continue
        conditionals[cond_seq] = prune_conditional(rows, cond_seq, ts)
    assume(conditionals)
    try:
        marginal = prune(law(), build_typical_set(law(), n, draw(st.floats(0.0, 2.0))))
    except EmptySupport:
        assume(False)
    case = draw(st.sampled_from([1, 2]))
    size = draw(st.integers(1, 4))
    m_count = draw(st.integers(1, 4))
    # pools long enough that a selection often needs more than 4 * size
    size_prime = size + draw(st.integers(0, 40)) if case == 1 else 0
    seed = draw(st.integers(0, 2**32 - 1))
    eps = draw(st.one_of(st.sampled_from([0.0, 0.1, 1.0]), st.floats(0.0, 2.0)))
    fell = {
        (cond_seq, m): draw(st.booleans())
        for cond_seq in conditionals
        for m in range(m_count)
    }
    return marginal, conditionals, case, size, m_count, size_prime, seed, eps, fell


def test_index_codebook_matches_the_literal_route():
    # the codebook held as member indices, drawn once per conditioning
    # (case 2) or once for all pools (case 1) and selected by member
    # codes, against the tuple route of tests/oracles.py: a draw per bin,
    # sequences as codewords, the scan of each pool per conditioning and
    # per-bin count dicts. Cells read back as sequences, selection,
    # failure flags, selected_index, each bin's first-draw-order counts,
    # the pooled counts over the bins that did not fall back, and the
    # e0 report must all be equal
    seen = collections.Counter()

    @settings(max_examples=200, deadline=None)
    @given(codebook_cases())
    def check(data):
        marginal, conditionals, case, size, m_count, size_prime, seed, eps, fell = data
        params = ProtocolParams(
            n=len(next(iter(conditionals))), delta=0.5, delta2=0.25, eps=eps,
            s_b=size, m_b=m_count, s_b_prime=size_prime, case=case,
        )
        cb = generate_codebook(
            params, marginal, conditionals, np.random.default_rng(seed)
        )
        lit = oracles.literal_codebook(
            marginal, conditionals, np.random.default_rng(seed),
            case=case, size=size, m_count=m_count, size_prime=size_prime,
        )
        assert oracles.tuple_cells(cb, conditionals) == lit["cells"]
        assert cb.failure_flags == lit["failure_flags"]
        assert cb.selection == lit["selection"]
        if case == 1:
            pools = marginal.support()
            assert {
                m: tuple(pools[i] for i in pool) for m, pool in cb.entries.items()
            } == lit["pools"]
        for (cond_seq, m), cell in lit["cells"].items():
            for j in range(len(cell)):
                want = lit["selection"][(cond_seq, m)][j] if case == 1 else j
                assert cb.selected_index(cond_seq, m, j) == want
        for cond_seq, law in conditionals.items():
            members = law.support()
            block = SimpleNamespace(typical=law.base)
            opset = build_gamma(block, cb, cond_seq, eps=eps)
            assert [members[x] for x in opset.gamma] == [
                seq for m in range(m_count) for seq in lit["cells"][(cond_seq, m)]
            ]
            # each bin's distinct codewords, in first-draw order
            tally = _first_draws([opset], m_count)
            owner, words, counts = (a.tolist() for a in tally)
            want = [
                (m, seq, k)
                for m in range(m_count)
                for seq, k in lit["bin_counts"][(cond_seq, m)].items()
            ]
            assert list(zip(owner, (members[x] for x in words), counts)) == want
            # the same tally pooled over the bins that did not fall back
            fallback = {m: fell[(cond_seq, m)] for m in range(m_count)}
            row = np.array([list(fallback.values())], dtype=bool)
            got = zip(*(a.tolist() for a in _pooled(tally, row)[0]))
            want = oracles.pooled_counts(
                {m: lit["bin_counts"][(cond_seq, m)] for m in range(m_count)},
                fallback,
            )
            assert [(members[x], k) for x, k in got] == list(want.items())
        rep = empirical_e0_check(cb, conditionals, eps)
        assert (rep.ok, rep.violation, rep.draw_counts) == oracles.e0_check(
            lit["cells"], lit["failure_flags"], m_count, conditionals, eps
        )
        seen[case] += 1
        seen["failed"] += any(cb.failure_flags.values())
        seen["selected"] += case == 1 and not all(cb.failure_flags.values())

    check()
    assert seen[1] and seen[2] and seen["failed"] and seen["selected"], seen


def test_codebook_case1_requires_marginal():
    single = trine_single()
    block = build_block_scenario(single, TRINE_PARAMS)
    conditionals = {c: b.pruned for c, b in block.bob_blocks.items()}
    from povmcast import SizeMismatch

    with pytest.raises(SizeMismatch):
        generate_codebook(
            TRINE_PARAMS, None, conditionals, np.random.default_rng(1)
        )


def test_build_gamma_scaling():
    single = bell_single()
    block = build_block_scenario(single, BELL_PARAMS)
    conditionals = {c: b.pruned for c, b in block.bob_blocks.items()}
    cb = generate_codebook(
        BELL_PARAMS, block.bob_marg_pruned, conditionals, np.random.default_rng(3)
    )
    cond = next(iter(block.bob_blocks))
    blk = block.bob_blocks[cond]
    opset = build_gamma(blk, cb, cond, eps=BELL_PARAMS.eps)
    factor = blk.typical.total_prob / (
        (1.0 + BELL_PARAMS.eps) * BELL_PARAMS.s_b * BELL_PARAMS.m_b
    )
    dim = block.rho_n.shape[0]
    assert len(opset.gamma) == BELL_PARAMS.s_b * BELL_PARAMS.m_b
    for m in range(BELL_PARAMS.m_b):
        words = cb.codewords(cond, m)
        total = np.zeros((dim, dim), dtype=complex)
        for j, x in enumerate(words):
            w = blk.gamma_factors[x]
            expect = factor * (w @ w.conj().T)
            expect = 0.5 * (expect + expect.conj().T)
            # codeword (j, m) stands for scale * w w^dag of its member
            assert opset.gamma[m * BELL_PARAMS.s_b + j] == x
            assert np.allclose(opset.scale * (w @ w.conj().T), expect, atol=1e-14)
            total = total + expect
        members, counts = _bin_draws(opset, m)
        assert counts.sum() == len(words)
        g = np.hstack(opset.columns(members, counts))
        assert np.allclose(g @ g.conj().T, total, atol=1e-13)


def test_validate_subpovm_leak_and_selection_failure():
    eye = np.eye(2)
    unit = np.array([[0.8], [0.6]])

    def fake_codebook(flags):
        return Codebook(
            case=1, size=1, m_count=2, size_prime=2,
            entries={}, selection={}, failure_flags=flags, cells={},
        )

    def opset(bin_counts, scale):
        # member 0 has the factor I, member 1 the unit column
        return _stub_opset([eye, unit], bin_counts, scale)

    # bin sums 1.2 I and 0.6 I
    leaky = opset({0: {0: 2}, 1: {0: 1}}, 0.6)
    validate_subpovm(leaky, fake_codebook({}), 0)
    assert leaky.is_valid_subpovm == {0: False, 1: True}
    assert leaky.fallback_applied == {0: True, 1: False}

    # a selection failure forces fallback even when the sum is fine
    ok = opset({0: {0: 1}, 1: {0: 1}}, 0.6)
    validate_subpovm(ok, fake_codebook({(0, 1): True}), 0)
    assert ok.is_valid_subpovm == {0: True, 1: True}
    assert ok.fallback_applied == {0: False, 1: True}

    # fewer columns than rows: the top eigenvalue comes from the Gram
    # matrix; 1.05 u u^dag leaks, 0.6 u u^dag and an empty bin do not
    rank_one = opset({0: {1: 1}, 1: {}}, 1.05)
    validate_subpovm(rank_one, fake_codebook({}), 0)
    assert rank_one.is_valid_subpovm == {0: False, 1: True}
    rank_one = opset({0: {1: 1}, 1: {}}, 0.6)
    validate_subpovm(rank_one, fake_codebook({}), 0)
    assert rank_one.is_valid_subpovm == {0: True, 1: True}


def _stub_opset(factors, bin_counts, scale):
    """A BobOperatorSet over a stub block that holds only what the
    sub-POVM pass reads: the factors in member order and their norms,
    recomputed column by column, and the members (x,) with their codes x.
    bin_counts maps each bin, in order, to its {member index: count} in
    first-draw order."""
    block = SimpleNamespace(
        gamma_factors=list(factors),
        typical=SimpleNamespace(
            members=tuple((x,) for x in range(len(factors))),
            codes=np.arange(len(factors)),
        ),
        norms=np.array([oracles.member_norms(w) for w in factors]),
    )
    draws = [(m, x) for m, counts in bin_counts.items() for x, k in counts.items() for _ in range(k)]
    return BobOperatorSet(
        block=block,
        gamma=np.array([x for _, x in draws], dtype=np.intp),
        bins=np.array([m for m, _ in draws], dtype=np.intp),
        scale=scale,
        is_valid_subpovm={},
        fallback_applied={},
    )


def _bin_draws(opset, m):
    """(members, counts) of bin m of an opset, in first-draw order, by
    the literal count."""
    counts = {}
    for x in opset.gamma[opset.bins == m].tolist():
        counts[x] = counts.get(x, 0) + 1
    return np.array(list(counts), dtype=np.intp), np.array(list(counts.values()), dtype=np.intp)


def _bin_columns(opset, m):
    """The column blocks of bin m of an opset."""
    return opset.columns(*_bin_draws(opset, m))


def _spec_opset(spec, m_count):
    """An opset of random factors from (D, members, complex, basis, seed,
    target). basis factors hold distinct unit columns of D, scaled, so
    that ||G||_1 ||G||_inf is the top eigenvalue; the others are
    Gaussian. A member may have no column and a bin no member. target
    (sign, e) puts the top eigenvalue of the first bin with a column at
    thr (1 + sign 10^e); None draws the scale at random."""
    dim, k, complex_, basis, seed, target = spec
    rng = np.random.default_rng(seed)
    if basis:
        rows = rng.permutation(dim)[: rng.integers(0, dim + 1)]
        parts = np.split(rows, np.sort(rng.integers(0, rows.size + 1, k - 1)))
        mats = [np.eye(dim)[:, part] * rng.uniform(0.5, 1.0) for part in parts]
        if complex_:
            mats = [a * np.exp(1j * rng.uniform(0, 2 * np.pi)) for a in mats]
    else:
        shapes = [(dim, rng.integers(0, dim + 1)) for _ in range(k)]
        mats = [rng.normal(size=shape) for shape in shapes]
        if complex_:
            mats = [a + 1j * rng.normal(size=a.shape) for a in mats]
    bin_counts = {
        m: {
            x: int(rng.integers(1, 3))
            for x in range(len(mats))
            if rng.random() < 0.6
        }
        for m in range(m_count)
    }
    scale = 10.0 ** rng.uniform(-3, 2)
    opset = _stub_opset(mats, bin_counts, 1.0)
    tops = [oracles.top_eigenvalue(_bin_columns(opset, m)) for m in bin_counts]
    tops = [top for top in tops if top > 0]
    if target is not None and tops:
        sign, e = target
        scale = (1.0 + TAU_PSD) * (1.0 + sign * 10.0**e) / tops[0]
    return _stub_opset(mats, bin_counts, scale)


opset_specs = st.tuples(
    st.sampled_from([2, 3, 4, 6, 8]),
    st.integers(1, 5),
    st.booleans(),
    st.booleans(),
    st.integers(0, 2**32 - 1),
    st.one_of(
        st.none(),
        st.tuples(st.sampled_from([-1, 1]), st.floats(-12.0, -6.0)),
    ),
)


def test_settled_bins_match_the_exact_route():
    # every flag of the staged pass against the top eigenvalue of the
    # bin's operator sum, one bin at a time; the explicit examples make
    # each stage decide at least one bin. The pass runs again with a
    # 1-byte STACK_BYTES, so that the exact route takes every bin alone
    # instead of in stacked chunks
    decided = collections.Counter()

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4), st.lists(opset_specs, min_size=1, max_size=3))
    @example(2, [(4, 3, False, False, 12, None)])
    @example(2, [(8, 3, True, True, 1, (-1, -7.0))])
    @example(1, [(6, 2, True, False, 0, (1, -11.0))])
    @example(3, [(8, 3, False, False, 4, (1, -7.0)), (6, 2, True, False, 5, None)])
    def check(m_count, specs):
        opsets = [_spec_opset(spec, m_count) for spec in specs]
        valid, stage, tally = _settle_bins(opsets, m_count)
        assert valid.shape == stage.shape == (len(opsets), m_count)
        # the tally handed to pooling is the per-bin one
        for got, want in zip(tally, _first_draws(opsets, m_count)):
            assert np.array_equal(got, want)
        with mock.patch("povmcast.protocol.STACK_BYTES", 1):
            alone = _settle_bins(opsets, m_count)
        assert np.array_equal(alone[0], valid)
        assert np.array_equal(alone[1], stage)
        for opset, row in zip(opsets, valid.tolist()):
            for m, ok in enumerate(row):
                cols = _bin_columns(opset, m)
                assert ok == (oracles.top_eigenvalue(cols) <= 1.0 + TAU_PSD)
        decided.update(stage.ravel().tolist())

    check()
    assert set(decided) == {
        STAGE_TRACE, STAGE_COLUMN, STAGE_NORMS, STAGE_EXACT
    }


def _assert_blocks_carry_their_member_norms(block):
    """Alice's block and every Bob block, most of them permutations of
    their type's block, hold the norms of their own factors in member
    order; row permutations only reorder the sums."""
    for blk in [block.alice_block, *block.bob_blocks.values()]:
        want = np.array([oracles.member_norms(w) for w in blk.gamma_factors])
        assert blk.norms.shape == want.shape == (len(blk.typical.members), 2)
        assert np.allclose(blk.norms, want, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("name", preset_names())
def test_blocks_carry_their_member_norms(name, n):
    cfg = config_from_dict(preset_document(name), name=name)
    single = prepare_scenario(cfg.rho, cfg.povm, cfg.g_a, cfg.g_b)
    block = build_block_scenario(single, replace(cfg.params, n=n))
    _assert_blocks_carry_their_member_norms(block)
    if n > 1 and name in ("bell-computational", "three-outcome-split"):
        assert any(
            b.cond_seq != tuple(sorted(b.cond_seq))
            for b in block.bob_blocks.values()
        )


def test_permuted_blocks_carry_norms_in_their_member_order():
    # a classical scenario with three Bob outcomes, where members of one
    # type have different norms and a permuted block lists its members
    # in another order than its type's block: on the presets every
    # member of a type has the same norms, so an unpermuted copy of the
    # type's norms would pass there
    rho = DensityOperator(np.diag([0.4, 0.3, 0.2, 0.1]))
    povm = Povm(
        elements=tuple(np.diag(e) for e in np.eye(4)), labels=(0, 1, 2, 3)
    )
    single = prepare_scenario(
        rho, povm,
        OutcomeFunction(domain_size=4, image_size=2, table=(0, 0, 1, 1)),
        OutcomeFunction(domain_size=4, image_size=3, table=(0, 1, 2, 0)),
    )
    params = ProtocolParams(n=3, delta=1.0, delta2=0.25, eps=0.05, s_b=1, m_b=1)
    block = build_block_scenario(single, params)
    _assert_blocks_carry_their_member_norms(block)
    rep = block.bob_blocks[oracles.code((0, 0, 1), 2)]
    assert not np.allclose(
        block.bob_blocks[oracles.code((1, 0, 0), 2)].norms, rep.norms
    )


def test_scaled_average_stays_below_block_state():
    # S(cond) * omega never exceeds the block post-measurement state:
    # P_C commutes with rho_cond and the cutoff keeps a spectral part of
    # the average, so S * omega <= P_C rho_cond P_C <= rho_cond
    for single, params in ((bell_single(), BELL_PARAMS), (trine_single(), TRINE_PARAMS)):
        block = build_block_scenario(single, params)
        for blk in list(block.bob_blocks.values()) + [block.alice_block]:
            rho_cond = oracles.conditioning_state(block, blk)
            gap = rho_cond - blk.typical.total_prob * oracles.cut_average(
                blk.cutoff
            )
            assert float(np.linalg.eigvalsh(0.5 * (gap + gap.conj().T)).min()) >= -1e-9


def test_alice_trivial_when_single_letter():
    rho = DensityOperator.maximally_mixed(2)
    povm = Povm(elements=(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])), labels=(0, 1))
    g_a = OutcomeFunction.constant(2)
    g_b = OutcomeFunction.identity(2)
    single = prepare_scenario(rho, povm, g_a, g_b)
    params = ProtocolParams(
        n=2, delta=0.8, delta2=0.25, eps=0.1, s_b=2, m_b=2, s_a=3, m_a=2, case=2, seed=1
    )
    block = build_block_scenario(single, params)
    alice = build_alice_measurement(block, params, np.random.default_rng(2))
    assert alice.trivial
    only = (0, 0)
    # the summed operator I is held as its factor I sandwiched by
    # sqrt(rho^n), here I / 2, keyed by the only sequence's code
    assert set(alice.lambda_tilde) == {oracles.code(only, 1)}
    assert np.allclose(alice.lambda_tilde[0], sqrt_psd(np.eye(4) / 4))
    # every codeword is the only sequence, member 0, whose operator is
    # I / 6
    assert np.array_equal(alice.opset.gamma, np.zeros(6))
    assert alice.opset.bins.tolist() == [0, 0, 0, 1, 1, 1]
    (w,) = alice.opset.block.gamma_factors
    assert np.allclose(alice.opset.scale * (w @ w.conj().T), np.eye(4) / 6)
    assert len(alice.opset.gamma) == params.s_a * params.m_a
    assert alice.opset.fallback_applied == {0: False, 1: False}
    # the stand-in block's norms are the identity's, so the sub-POVM
    # pass over it agrees with the flags set by hand
    assert alice.opset.block.typical.members == (only,)
    assert np.array_equal(alice.opset.block.norms, [oracles.member_norms(w)])
    flags = dict(alice.opset.is_valid_subpovm)
    (cond,) = alice.codebook.cells
    validate_subpovm(alice.opset, alice.codebook, cond)
    assert alice.opset.is_valid_subpovm == flags
    assert alice.opset.fallback_applied == {0: False, 1: False}


def test_assemble_keeps_members_without_columns():
    # a member whose cut factor has no column still received an operator,
    # the zero one: its key, the code 0 of its sequence (0,), stays, with
    # a D x 0 factor; every factor is sandwiched by sqrt(rho^n)
    unit = np.array([[0.6], [0.8]])
    sqrt_rho = np.diag(np.sqrt([0.7, 0.3]))
    opset = _stub_opset([np.zeros((2, 0)), unit], {0: {0: 1, 1: 1}}, 0.5)
    codebook = Codebook(
        case=2, size=2, m_count=1, size_prime=0,
        entries={}, selection={}, failure_flags={}, cells={},
    )
    validate_subpovm(opset, codebook, 0)
    assert opset.fallback_applied == {0: False}
    scenario = type(
        "Scn", (), {
            "sqrt_lambda_a_n": {0: _kron_halves([np.eye(2)], (0,), {})},
            "sqrt_rho_n": _kron_halves([sqrt_rho], (0,), {}),
        }
    )()
    alice = type(
        "Alice", (), {"sqrt_lambda_tilde": {0: (np.eye(2), np.ones(2))}}
    )()
    tilde, prime = assemble_bob_povm(scenario, alice, {0: opset})
    for table in (tilde, prime):
        assert set(table) == {0, 1}
        assert table[0].shape == (2, 0)
        assert np.allclose(table[1], sqrt_rho @ (np.sqrt(0.5) * unit))


def test_assemble_matches_naive_accumulation():
    single = trine_single()
    block = build_block_scenario(single, TRINE_PARAMS)
    instance = build_protocol_instance(block, TRINE_PARAMS, mode="with_alice_randomness")
    naive = {}
    for cond, opset in instance.bob_sets.items():
        sqrt_true = oracles.dense_kron(block.sqrt_lambda_a_n[cond])
        for m in range(instance.bob_codebook.m_count):
            if opset.fallback_applied[m]:
                continue
            words = instance.bob_codebook.codewords(cond, m)
            for j, x in enumerate(words):
                assert opset.gamma[m * TRINE_PARAMS.s_b + j] == x
                seq = opset.block.typical.members[x]
                w = opset.block.gamma_factors[x]
                op = opset.scale * (w @ w.conj().T)
                term = sqrt_true @ op @ sqrt_true
                naive[seq] = naive.get(seq, 0.0) + 0.5 * (term + term.conj().T)
    # keys are the codes of exactly the sequences with a contribution; a
    # missing key is the zero operator. The table holds factors S G,
    # S = sqrt(rho^n), so it densifies to S G G^dag S
    assert naive
    n, k = TRINE_PARAMS.n, single.n_bob
    assert set(oracles.by_sequence(instance.lambda_prime_b, k, n)) == set(naive)
    prime = oracles.by_sequence(oracles.densify(instance.lambda_prime_b), k, n)
    root = sqrt_psd(kron_all([single.rho.mat] * TRINE_PARAMS.n))
    for seq, mat in naive.items():
        assert np.allclose(prime[seq], root @ mat @ root, atol=1e-12)
    assert set(oracles.by_sequence(instance.lambda_tilde_b, k, n)) <= set(naive)


SCORE_KEYS = ("d_bob", "d_alice", "atypical", "d2", "d3")


def _assert_scores_match_dense_oracle(block, params, mode, seed):
    instance = build_protocol_instance(
        block, params, mode=mode, seed_seq=np.random.SeedSequence(seed)
    )
    report = instance_report(instance)
    want = oracles.dense_instance_scores(block, instance)
    for key in SCORE_KEYS:
        assert abs(getattr(report, key) - want[key]) <= 1e-10, (key, seed)
    assert report.saturated == (not instance.lambda_tilde_b)
    return report


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("name", preset_names())
def test_instance_scores_match_dense_oracle_on_presets(name, n):
    cfg = config_from_dict(preset_document(name), name=name)
    single = prepare_scenario(cfg.rho, cfg.povm, cfg.g_a, cfg.g_b)
    params = replace(cfg.params, n=n)
    block = build_block_scenario(single, params)
    for seed in (0, 1, 2):
        _assert_scores_match_dense_oracle(block, params, cfg.mode, seed)


def test_saturated_instance_scores_match_dense_oracle():
    # three-outcome-split beyond its design n: every Bob bin falls back
    cfg = config_from_dict(preset_document("three-outcome-split"))
    single = prepare_scenario(cfg.rho, cfg.povm, cfg.g_a, cfg.g_b)
    params = replace(cfg.params, n=5)
    block = build_block_scenario(single, params)
    report = _assert_scores_match_dense_oracle(block, params, cfg.mode, 0)
    assert report.saturated
    assert abs(report.d_bob - 1.0) <= 1e-12


def _assert_trial_matches_dense_oracle(
    block, params, mode, seed, root_tol=1e-10
):
    """The count route of one trial against oracles.dense_trial_operators:
    fallback flags identical; Alice's and Bob's operators and every
    sampling weight within 1e-10. What the oracle derives from sqrt_psd
    (Alice's roots, lambda_tilde_b and Bob's weights) is compared within
    root_tol, and the count route's roots, sandwiched by sqrt(rho^n),
    must square to lambda_tilde within 1e-10."""
    instance = build_protocol_instance(
        block, params, mode=mode, seed_seq=np.random.SeedSequence(seed)
    )
    want = oracles.dense_trial_operators(
        block, params, np.random.SeedSequence(seed)
    )
    alice = instance.alice
    n, k_a, k_b = params.n, block.single.n_alice, block.single.n_bob

    def close(got, ref, tol=1e-10):
        assert set(got) == set(ref)
        for key, mat in got.items():
            assert np.abs(mat - ref[key]).max() <= tol, (key, seed)

    assert alice.opset.fallback_applied == want["alice_fallback"]
    assert {
        (oracles.sequence(cond, k_a, n), m): flag
        for cond, opset in instance.bob_sets.items()
        for m, flag in opset.fallback_applied.items()
    } == want["bob_fallback"]
    # the summed tables hold factors S G, S = sqrt(rho^n), so they
    # densify to S G G^dag S, which the oracle also sandwiches; they are
    # keyed by the codes of the sequences the oracle keys them by
    lambda_tilde = oracles.by_sequence(oracles.densify(alice.lambda_tilde), k_a, n)
    close(lambda_tilde, want["lambda_tilde"])
    sqrt_lambda_tilde = oracles.by_sequence(
        oracles.dense_roots(alice.sqrt_lambda_tilde), k_a, n
    )
    sqrt_rho_n = oracles.dense_kron(block.sqrt_rho_n)
    close(
        {
            seq: sqrt_rho_n @ root @ root @ sqrt_rho_n
            for seq, root in sqrt_lambda_tilde.items()
        },
        lambda_tilde,
    )
    close(sqrt_lambda_tilde, want["sqrt_lambda_tilde"], root_tol)
    close(
        oracles.by_sequence(oracles.densify(instance.lambda_tilde_b), k_b, n),
        want["lambda_tilde_b"],
        root_tol,
    )
    close(
        oracles.by_sequence(oracles.densify(instance.lambda_prime_b), k_b, n),
        want["lambda_prime_b"],
    )

    (cond_a,) = alice.codebook.cells
    for m_a, ref in want["alice_weights"].items():
        words = alice.codebook.codewords(cond_a, m_a)
        got = _codeword_weights(
            alice.opset, words, params.m_a, block.sqrt_rho_n
        )
        assert np.allclose(got, ref, rtol=0.0, atol=1e-10)
    for (m_a, j_a, m_b), ref in want["bob_weights"].items():
        x_a = alice.codebook.codewords(cond_a, m_a)[j_a]
        cond = oracles.code(block.alice_block.typical.members[x_a], k_a)
        post = _collapsed_state(alice, cond, block.rho_n)
        words = instance.bob_codebook.codewords(cond, m_b)
        got = _codeword_weights(
            instance.bob_sets[cond], words, params.m_b, post.conj().T
        )
        assert np.allclose(got, ref, rtol=0.0, atol=root_tol)
    return instance, want


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("name", preset_names())
def test_trial_operators_match_dense_oracle_on_presets(name, n):
    cfg = config_from_dict(preset_document(name), name=name)
    single = prepare_scenario(cfg.rho, cfg.povm, cfg.g_a, cfg.g_b)
    params = replace(cfg.params, n=n)
    block = build_block_scenario(single, params)
    for seed in (0, 1, 2):
        _assert_trial_matches_dense_oracle(block, params, cfg.mode, seed)


def test_factored_routes_match_dense_oracles_at_n5():
    # spot check beyond the n = 1..3 sweeps: D = 32, 32 conditioning blocks
    cfg = config_from_dict(preset_document("three-outcome-split"))
    single = prepare_scenario(cfg.rho, cfg.povm, cfg.g_a, cfg.g_b)
    params = replace(cfg.params, n=5)
    _assert_matches_dense_oracle(single, params)
    block = build_block_scenario(single, params)
    _assert_trial_matches_dense_oracle(block, params, cfg.mode, 0)


def test_factored_routes_match_dense_oracles_at_n6():
    # D = 64 with covering-lemma sizes for both parties, so Bob's bins
    # serve outcomes and d is not saturated
    name = "bell-computational"
    doc = preset_document(name)
    doc["protocol"].update(
        n=6,
        sA="I(X_A;R) + delta2",
        MA="H(X_A) - I(X_A;R) + delta2",
        sB="I(X_B;R|X_A) + delta2",
        MB="H(X_B|X_A) - I(X_B;R|X_A) + delta2",
    )
    cfg = config_from_dict(doc, name=name)
    single = prepare_scenario(cfg.rho, cfg.povm, cfg.g_a, cfg.g_b)
    block = build_block_scenario(single, cfg.params)
    report = _assert_scores_match_dense_oracle(block, cfg.params, cfg.mode, 0)
    assert not report.saturated
    _assert_trial_matches_dense_oracle(block, cfg.params, cfg.mode, 0)


@settings(max_examples=40, deadline=None)
@given(
    rank_two_scenarios(),
    st.integers(1, 4),
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
)
def test_trial_operators_match_dense_oracle_on_rank_two_scenarios(
    case, size, m_count, seed
):
    single, params = case
    params = replace(params, s_a=size, m_a=m_count, s_b=size, m_b=m_count)
    try:
        block = build_block_scenario(single, params)
    except (EmptySupport, NegligibleProbability):
        assume(False)
    # The oracle's sqrt_psd of a singular operator is only about
    # sqrt(machine eps)-accurate; the count route's roots are checked
    # exactly through their squares.
    _assert_trial_matches_dense_oracle(
        block, params, "with_alice_randomness", seed, root_tol=1e-7
    )


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("name", preset_names())
def test_instance_invariants_on_presets(name, n):
    # what the construction guarantees for every trial: d in [0, 2], the
    # split bounds d, and every Bob bin that serves outcomes sums below
    # the identity (the sums rebuilt densely by the oracle); and the
    # shape-grouped bin checks decide every bin as the dense route's one
    # eigvalsh per bin sum does
    cfg = config_from_dict(preset_document(name), name=name)
    single = prepare_scenario(cfg.rho, cfg.povm, cfg.g_a, cfg.g_b)
    params = replace(cfg.params, n=n)
    block = build_block_scenario(single, params)
    for seed in (0, 1, 2):
        instance = build_protocol_instance(
            block, params, mode=cfg.mode, seed_seq=np.random.SeedSequence(seed)
        )
        report = instance_report(instance)
        assert 0.0 <= report.d_bob <= 2.0
        assert report.d_bob <= report.atypical + report.d2 + report.d3 + 1e-9
        want = oracles.dense_trial_operators(
            block, params, np.random.SeedSequence(seed)
        )
        for (cond_seq, m), total in want["bob_bin_sums"].items():
            cond = oracles.code(cond_seq, single.n_alice)
            if instance.bob_sets[cond].fallback_applied[m]:
                continue
            assert np.linalg.eigvalsh(total)[-1] <= 1.0 + TAU_PSD
        alice = instance.alice.opset
        assert alice.is_valid_subpovm == want["alice_valid"]
        assert alice.fallback_applied == want["alice_fallback"]
        for flags, key in (
            ("is_valid_subpovm", "bob_valid"),
            ("fallback_applied", "bob_fallback"),
        ):
            got = {
                (oracles.sequence(cond, single.n_alice, n), m): flag
                for cond, opset in instance.bob_sets.items()
                for m, flag in getattr(opset, flags).items()
            }
            assert got == want[key]


def test_instance_modes_and_seeding():
    single = trine_single()
    block = build_block_scenario(single, TRINE_PARAMS)
    with pytest.raises(ValueError):
        build_protocol_instance(block, TRINE_PARAMS, mode="sideways")
    bell_block = build_block_scenario(bell_single(), BELL_PARAMS)
    with pytest.raises(ValueError):
        build_protocol_instance(
            bell_block, BELL_PARAMS, mode="without_alice_randomness"
        )
    def same_entries(x, y):
        return x.keys() == y.keys() and all(
            np.array_equal(x[k], y[k]) for k in x
        )

    a = build_protocol_instance(block, TRINE_PARAMS, seed_seq=np.random.SeedSequence(4))
    b = build_protocol_instance(block, TRINE_PARAMS, seed_seq=np.random.SeedSequence(4))
    assert same_entries(a.bob_codebook.entries, b.bob_codebook.entries)
    assert same_entries(a.alice.codebook.entries, b.alice.codebook.entries)
    c = build_protocol_instance(block, TRINE_PARAMS, seed_seq=np.random.SeedSequence(5))
    assert not same_entries(c.bob_codebook.entries, a.bob_codebook.entries)


@pytest.mark.parametrize(
    "dim,k_plus,k_minus", [(8, 2, 3), (4, 5, 3), (4, 0, 2), (4, 0, 0)]
)
def test_signed_trace_norm_matches_dense_svd(dim, k_plus, k_minus):
    # fewer stacked columns than rows, more (R is then dim x K), one side
    # empty, and both empty
    rng = np.random.default_rng(dim * 100 + k_plus * 10 + k_minus)

    def factor(k):
        return rng.normal(size=(dim, k)) + 1j * rng.normal(size=(dim, k))

    p, m = factor(k_plus), factor(k_minus)
    diff = p @ p.conj().T - m @ m.conj().T
    want = np.linalg.svd(diff, compute_uv=False).sum()
    got, same = _signed_trace_norms([(p, m), (p, p)])
    assert abs(got - want) <= 1e-12 * max(1.0, want)
    assert same <= 1e-12 * max(1.0, want)
    assert abs(oracles.signed_trace_norm(p, m) - want) <= 1e-12 * max(1.0, want)


@st.composite
def factor_mixes(draw):
    """(pairs, cap): factor pairs (P, M) of a few shapes, each shape used
    once or repeated, with zero-column sides, more columns than rows,
    real and complex entries, rank-deficient factors, and a stack byte
    cap small enough that a group may span several chunks."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shapes = draw(
        st.lists(
            st.tuples(
                st.sampled_from([1, 2, 3, 4, 8]),
                st.integers(0, 9),
                st.integers(0, 9),
                st.booleans(),
                st.integers(1, 7),
            ),
            min_size=1,
            max_size=5,
        )
    )

    def factor(rows, cols, complex_):
        inner = int(rng.integers(1, max(rows, cols, 1) + 1))
        mats = [rng.normal(size=(rows, inner)), rng.normal(size=(inner, cols))]
        if complex_:
            mats = [a + 1j * rng.normal(size=a.shape) for a in mats]
        return mats[0] @ mats[1]

    pairs = [
        (factor(rows, k_plus, cplx), factor(rows, k_minus, cplx))
        for rows, k_plus, k_minus, cplx, count in shapes
        for _ in range(count)
    ]
    order = rng.permutation(len(pairs))
    cap = draw(st.sampled_from([1, 100, 1000, 10000, 1 << 22]))
    return [pairs[i] for i in order], cap


def _drift_ok(got, want):
    return abs(got - want) <= 1e-15 * max(1.0, abs(want))


@settings(max_examples=80, deadline=None)
@given(factor_mixes())
def test_batched_kernels_match_per_item_oracles(mix):
    # item by item, the shape-grouped kernels against the one-item
    # routes, whatever the grouping and chunking of the mix
    pairs, cap = mix
    with mock.patch("povmcast.protocol.STACK_BYTES", cap):
        norms = _signed_trace_norms(pairs)
        bins = [[p, m] for p, m in pairs] + [[]]
        tops = _top_eigenvalues(bins)
        factors = [np.hstack([p, m]) for p, m in pairs]
        roots = _thin_roots(factors)
    assert len(norms) == len(pairs) and len(tops) == len(bins)
    for (p, m), norm in zip(pairs, norms):
        assert _drift_ok(norm, oracles.signed_trace_norm(p, m))
    for cols, top in zip(bins, tops):
        assert _drift_ok(top, oracles.top_eigenvalue(cols))
    for w, (u, s) in zip(factors, roots):
        want_u, want_s = oracles.thin_root(w)
        assert s.shape == want_s.shape
        got = oracles.dense_roots({0: (u, s)})[0]
        want = oracles.dense_roots({0: (want_u, want_s)})[0]
        scale = max(1.0, float(want_s.max(initial=0.0)))
        assert np.abs(got - want).max(initial=0.0) <= 1e-15 * scale


def test_by_shape_groups_without_padding_and_chunks_by_bytes():
    # what the kernel is handed: one stack per chunk of a (rows, columns,
    # dtype, tag) group, at most STACK_BYTES each, a lone matrix as a
    # (1, rows, K) stack, distinct shapes never padded together, and an
    # item without columns left out
    rng = np.random.default_rng(7)
    small = [[rng.normal(size=(4, 1)), rng.normal(size=(4, 2))] for _ in range(5)]
    other = [[rng.normal(size=(4, 2))]]
    big = [[rng.normal(size=(4, 40)) + 0j]]
    items = small + other + big + [[np.zeros((4, 0))], []]
    seen = []

    def kernel(a, tag):
        seen.append((a.shape, a.dtype, tag))
        return list(a.sum(axis=(1, 2)).real)

    with mock.patch("povmcast.protocol.STACK_BYTES", 2 * 4 * 3 * 8):
        out = _by_shape(items, kernel)
    f8, c16 = np.dtype(float), np.dtype(complex)
    assert seen == [
        ((2, 4, 3), f8, None),
        ((2, 4, 3), f8, None),
        ((1, 4, 3), f8, None),
        ((1, 4, 2), f8, None),
        ((1, 4, 40), c16, None),
    ]
    for cols, value in zip(items[:7], out[:7]):
        assert value == pytest.approx(sum(c.sum().real for c in cols))
    assert out[7:] == [None, None]
    # the tag splits a group: one (4, 3) stack per tag
    seen.clear()
    _by_shape(small[:2] * 2, kernel, [1, 1, 2, 2])
    assert [(shape, tag) for shape, _, tag in seen] == [
        ((2, 4, 3), 1),
        ((2, 4, 3), 2),
    ]


def test_faithfulness_distance_identity_and_split():
    ops = {(0,): np.diag([0.5, 0.0]), (1,): np.diag([0.0, 0.5])}
    rho = np.eye(2) / 2
    assert faithfulness_distance(ops, ops, rho) == 0.0
    missing = faithfulness_distance(ops, {}, rho)
    assert np.isclose(missing, 0.5)  # sum_x ||sqrt(rho) L_x sqrt(rho)||_1

    single = trine_single()
    block = build_block_scenario(single, TRINE_PARAMS)
    instance = build_protocol_instance(block, TRINE_PARAMS)
    report = instance_report(instance)
    assert report.d_bob <= report.atypical + report.d2 + report.d3 + 1e-9
    assert report.d_bob >= 0.0
    assert 0.0 <= report.fallback_rate <= 1.0


def test_perfect_simulation_of_pure_state():
    rho = DensityOperator(np.diag([1.0, 0.0]))
    povm = Povm(elements=(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])), labels=(0, 1))
    g = OutcomeFunction.identity(2)
    single = prepare_scenario(rho, povm, g, g)
    params = ProtocolParams(
        n=2, delta=0.5, delta2=0.25, eps=0.0, s_b=1, m_b=1, s_a=1, m_a=1, case=2, seed=3
    )
    block = build_block_scenario(single, params)
    instance = build_protocol_instance(block, params)
    report = instance_report(instance)
    assert abs(report.d_bob) <= 1e-9
    assert abs(report.d_alice) <= 1e-9
    trans = run_protocol_trial(instance, np.random.default_rng(0))
    assert not trans.degenerate
    assert trans.alice_output == (0, 0)
    assert trans.bob_output == (0, 0)
    assert trans.bits_to_alice == 0.0
    assert trans.bits_to_bob == 0.0


def test_trial_fields_and_reasons():
    single = bell_single()
    block = build_block_scenario(single, BELL_PARAMS)
    instance = build_protocol_instance(block, BELL_PARAMS)
    seen_reasons = set()
    for k in range(40):
        t = run_protocol_trial(instance, np.random.default_rng(k))
        assert 0 <= t.m_a < BELL_PARAMS.m_a
        assert 0 <= t.m_b < BELL_PARAMS.m_b
        if t.degenerate:
            seen_reasons.add(t.reason)
            assert t.alice_output == ()
        else:
            assert t.alice_output in block.alice_block.typical.members
            assert len(t.bob_output) == 2
            assert np.isclose(t.bits_to_alice, np.log2(BELL_PARAMS.s_a) / 2)
            assert np.isclose(t.bits_to_bob, np.log2(BELL_PARAMS.s_b) / 2)
    assert seen_reasons <= {
        "alice_fallback", "alice_garbage", "bob_fallback", "bob_garbage",
        "empty_conditional",
    }


@pytest.mark.parametrize(
    "mode,case", [("with_alice_randomness", 2), ("without_alice_randomness", 1)]
)
def test_transcripts_read_the_cells_of_the_produced_conditioning(mode, case):
    # Alice's law (0.8, 0.2) at n = 3 and delta = 0.3 keeps only the
    # sequences with one 1, codes 1, 2 and 4 at member indices 0, 1 and
    # 2, so a member index taken for a code names another conditioning.
    # Every transcript with outputs reads Alice's codeword j_a of bin m_a
    # and Bob's codeword of bin m_b in the cell of her output's code: j_b
    # itself in case 2, its pool position in case 1
    rho = DensityOperator(np.diag([0.4, 0.4, 0.1, 0.1]))
    povm = Povm(
        elements=tuple(np.diag(e) for e in np.eye(4)), labels=(0, 1, 2, 3)
    )
    single = prepare_scenario(
        rho, povm,
        OutcomeFunction(domain_size=4, image_size=2, table=(0, 0, 1, 1)),
        OutcomeFunction(domain_size=4, image_size=2, table=(0, 1, 0, 1)),
    )
    params = ProtocolParams(
        n=3, delta=0.3, delta2=0.25, eps=0.1, s_b=4, m_b=2, s_a=4, m_a=2,
        s_b_prime=24, case=case,
    )
    block = build_block_scenario(single, params)
    alice_set = block.alice_block.typical
    assert alice_set.members == ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    assert sorted(block.bob_blocks) == alice_set.codes.tolist() == [1, 2, 4]
    served = 0
    for seed in range(8):
        instance = build_protocol_instance(
            block, params, mode=mode, seed_seq=np.random.SeedSequence(seed)
        )
        alice, bob = instance.alice.codebook, instance.bob_codebook
        (free,) = alice.cells
        for k in range(8):
            t = run_protocol_trial(instance, np.random.default_rng(k))
            assert t.reason != "empty_conditional"
            if t.degenerate:
                continue
            served += 1
            x_a = alice.codewords(free, t.m_a)[t.j_a]
            assert alice_set.members[x_a] == t.alice_output
            cond = oracles.code(t.alice_output, 2)
            if case == 2:
                x_b = bob.codewords(cond, t.m_b)[t.j_b]
                members = instance.bob_sets[cond].block.typical.members
            else:
                x_b = bob.entries[t.m_b][t.j_b]
                members = block.bob_marg_pruned.support()
                assert t.j_b in bob.selection[(cond, t.m_b)]
            assert members[x_b] == t.bob_output
    assert served


def test_simulate_trials_worker_invariance():
    single = trine_single()
    with pytest.raises(ValueError):
        simulate_trials(single, TRINE_PARAMS, trials=0)
    with pytest.raises(ValueError):
        simulate_trials(single, TRINE_PARAMS, trials=2, workers=0)
    serial = simulate_trials(single, TRINE_PARAMS, trials=6)
    block = build_block_scenario(single, TRINE_PARAMS)
    threaded = simulate_trials(single, TRINE_PARAMS, trials=6, block=block, workers=3)
    assert [r.index for r in serial] == [0, 1, 2, 3, 4, 5]
    for a, b in zip(serial, threaded):
        assert a.report == b.report
        assert a.transcript == b.transcript
    # trial i runs on child i of SeedSequence(seed), the one spawn makes,
    # though no list of children is formed
    children = np.random.SeedSequence(TRINE_PARAMS.seed).spawn(6)
    for rec, child in zip(serial, children):
        instance = build_protocol_instance(block, TRINE_PARAMS, seed_seq=child)
        assert rec.report == instance_report(instance)
        rng = np.random.default_rng(instance.trial_seed)
        assert rec.transcript == run_protocol_trial(instance, rng)


def test_empirical_e0_check_hand_counts():
    ts = build_typical_set([0.5, 0.5], 1, 0.0)
    law = prune([0.5, 0.5], ts)
    cond = (0,)

    def case2(rows):
        rows = np.array(rows)
        return Codebook(
            case=2, size=rows.shape[1], m_count=rows.shape[0], size_prime=0,
            entries={(cond, m): row for m, row in enumerate(rows)},
            selection={}, failure_flags={}, cells={cond: rows},
        )

    # codewords are member indices: 0 names (0,), 1 names (1,)
    balanced = case2([[0, 1]])
    rep = empirical_e0_check(balanced, {cond: law}, eps=0.1)
    assert rep.ok
    assert rep.violation == 0.0
    assert rep.draw_counts == {cond: 2}

    skewed = case2([[0, 0]])
    rep = empirical_e0_check(skewed, {cond: law}, eps=0.1)
    assert not rep.ok
    assert np.isclose(rep.violation, 1.0)

    # failed case-1 cells are excluded from the tally
    partial = Codebook(
        case=1, size=2, m_count=2, size_prime=3,
        entries={0: np.array([0, 1, 0]), 1: np.array([0, 0, 0])},
        selection={(cond, 0): (0, 1), (cond, 1): (0,)},
        failure_flags={(cond, 0): False, (cond, 1): True},
        cells={cond: np.array([[0, 1], [0, -1]])},
    )
    rep = empirical_e0_check(partial, {cond: law}, eps=0.1)
    assert rep.draw_counts == {cond: 2}
    assert rep.ok


def _e0_laws(n):
    """Three pruned laws over binary sequences of length n: all of them
    typical, a strict typical subset, and a skewed law over all."""
    return [
        prune(p, build_typical_set(p, n, delta))
        for p, delta in (([0.5, 0.5], 0.3), ([0.7, 0.3], 0.3), ([0.7, 0.3], 2.0))
    ]


cell_specs = st.tuples(st.lists(st.integers(0, 7), max_size=6), st.booleans())


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from([2, 3]),
    st.one_of(st.sampled_from([0.0, 0.1, 1.0, 1.5]), st.floats(0.0, 2.0)),
    st.lists(
        st.tuples(st.integers(0, 2), st.lists(cell_specs, min_size=3, max_size=3)),
        min_size=1, max_size=3,
    ),
)
# a conditioning without draws; every member drawn, evenly; eps >= 1,
# where an undrawn member is in band; cells of unequal lengths, some
# failed, one conditioning with every cell failed
@example(2, 0.1, [(0, [([], False)] * 3), (1, [([1, 2], False)] * 3)])
@example(
    2, 0.5,
    [(0, [([0, 1, 2, 3], False), ([3, 2, 1, 0], True), ([2, 0, 3, 1], False)])],
)
@example(3, 1.0, [(1, [([3], False), ([0], True), ([5, 6], False)])])
@example(3, 1.5, [(1, [([3], False), ([3], False), ([], False)])])
@example(
    3, 0.2,
    [(1, [([0, 3], False), ([3, 3], False), ([], True)]), (2, [([], True)] * 3)],
)
def test_e0_check_matches_the_member_loop(n, eps, conds):
    # the check over drawn member indices against the literal loop over
    # every member of the law, on the cells read back as sequences; a
    # cell is a row of member indices (taken modulo the law's size),
    # -1 past its codewords
    laws = _e0_laws(n)
    conditionals = {(c,): laws[law] for c, (law, _) in enumerate(conds)}
    cells, selection, flags = {}, {}, {}
    width = max(1, *(len(idx) for _, specs in conds for idx, _ in specs))
    for c, (law, specs) in enumerate(conds):
        size = len(laws[law].support())
        rows = np.full((3, width), -1)
        for m, (idx, failed) in enumerate(specs):
            rows[m, : len(idx)] = [i % size for i in idx]
            selection[((c,), m)] = tuple(range(len(idx)))
            flags[((c,), m)] = failed
        cells[(c,)] = rows
    cb = Codebook(
        case=1, size=width, m_count=3, size_prime=8,
        entries={}, selection=selection, failure_flags=flags, cells=cells,
    )
    rep = empirical_e0_check(cb, conditionals, eps)
    want = oracles.e0_check(
        oracles.tuple_cells(cb, conditionals), flags, 3, conditionals, eps
    )
    assert (rep.ok, rep.violation, rep.draw_counts) == want


def test_bell_conditionals_make_e0_exact():
    # deterministic conditional laws leave a single admissible codeword,
    # so the occupancy band holds with zero slack
    single = bell_single()
    records = simulate_trials(single, BELL_PARAMS, trials=4)
    for rec in records:
        assert rec.report.e0_ok
        assert rec.report.e0_violation == 0.0


def _document_run(doc, n, trials):
    """(block, records) of a scenario document run at block length n."""
    cfg = config_from_dict(doc, name=doc.get("name", "config"))
    single = prepare_scenario(cfg.rho, cfg.povm, cfg.g_a, cfg.g_b)
    params = replace(cfg.params, n=n)
    block = build_block_scenario(single, params)
    records = simulate_trials(single, params, mode=cfg.mode, trials=trials, block=block)
    return block, records


SCORES = ("d_bob", "d_alice", "atypical", "d2", "d3", "e0_violation")


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("name", preset_names())
def test_complex_route_matches_real_route_under_rotation(name, n):
    # rho and every element conjugated by a complex non-diagonal U: every
    # eigenvalue, trace norm and Born weight the construction reads is
    # invariant under U^{(x) n}, so the rotated document, which runs in
    # complex128, has the real run's flags, reasons and transcripts and
    # its scores within 1e-12
    doc = preset_document(name)
    u = phase_unitary()
    if doc["rho"]["dim"] == 4:
        u = np.kron(u, phase_unitary(1.1, -0.3, 0.5))
    real_block, real = _document_run(doc, n, 4)
    rot_block, rotated = _document_run(rotated_document(doc, u), n, 4)
    assert real_block.sqrt_rho_n.left.dtype == np.float64
    assert rot_block.sqrt_rho_n.left.dtype == np.complex128
    for a, b in zip(real, rotated):
        assert b.transcript == a.transcript
        np.testing.assert_allclose(
            [getattr(b.report, k) for k in SCORES],
            [getattr(a.report, k) for k in SCORES],
            rtol=0, atol=1e-12,
        )
        assert replace(b.report, **dict.fromkeys(SCORES, 0.0)) == replace(
            a.report, **dict.fromkeys(SCORES, 0.0)
        )


def _table_dtypes(block, instance) -> dict:
    """The dtypes of each table a trial builds or reads, by table."""
    def of(values):
        out = set()
        for v in values:
            if isinstance(v, _Kron):
                v = (v.left, v.right)
            out.update(a.dtype for a in (v if isinstance(v, tuple) else (v,)))
        return out

    blocks = [block.alice_block, *block.bob_blocks.values()]
    alice = instance.alice
    code = next(iter(alice.sqrt_lambda_tilde))
    return {
        "gamma_factors": of(f for b in blocks for f in b.gamma_factors),
        "cutoff_basis": of(b.cutoff.basis for b in blocks),
        "rho_n": of([block.rho_n, block.sqrt_rho_n]),
        "lambda_a_n": of(block.lambda_a_n.values()),
        "sqrt_lambda_a_n": of(block.sqrt_lambda_a_n.values()),
        "lambda_ref_b": of(block.lambda_ref_b.values()),
        "alice_roots": of(u for u, _ in alice.sqrt_lambda_tilde.values()),
        "alice_tilde": of(alice.lambda_tilde.values()),
        "lambda_tilde_b": of(instance.lambda_tilde_b.values()),
        "lambda_prime_b": of(instance.lambda_prime_b.values()),
        "collapsed": of([_collapsed_state(alice, code, block.rho_n)]),
    }


@pytest.mark.parametrize("name", [*preset_names(), "complex-trine"])
def test_working_dtype_reaches_every_table(name):
    # a real scenario runs in float64 from prepare_scenario to the last
    # score, with no table upcast on the way; the complex document runs
    # in complex128 throughout
    if name == "complex-trine":
        with open(COMPLEX_TRINE, encoding="utf-8") as fh:
            doc, want = json.load(fh), np.complex128
    else:
        doc, want = preset_document(name), np.float64
    cfg = config_from_dict(doc, name=name)
    single = prepare_scenario(cfg.rho, cfg.povm, cfg.g_a, cfg.g_b)
    block = build_block_scenario(single, cfg.params)
    instance = build_protocol_instance(block, cfg.params, mode=cfg.mode)
    dtypes = _table_dtypes(block, instance)
    assert all(dtypes.values())
    assert {k: v for k, v in dtypes.items() if v - {np.dtype(want)}} == {}


def test_prepare_scenario_decides_the_working_dtype():
    # float64 when rho and every element have imaginary parts exactly 0,
    # -0.0 included, whatever dtype they come in; one complex entry puts
    # both in complex128
    trine = trine_single()
    rho, elems = trine.rho.mat, trine.povm.elements
    g_a, g_b = trine.g_a, trine.g_b
    signed = [e.astype(complex) for e in elems]
    signed[1].imag[:] = -0.0
    assert np.signbit(signed[1].imag).any()
    single = prepare_scenario(
        rho.astype(complex), Povm(elements=tuple(signed), labels=(0, 1, 2)), g_a, g_b
    )
    assert single.rho.mat.dtype == np.float64
    assert {e.dtype for e in single.povm.elements} == {np.dtype(np.float64)}
    u = phase_unitary()
    rotated = tuple(u @ e @ u.conj().T for e in elems)
    single = prepare_scenario(rho, Povm(elements=rotated, labels=(0, 1, 2)), g_a, g_b)
    assert single.rho.mat.dtype == np.complex128
    assert {e.dtype for e in single.povm.elements} == {np.dtype(np.complex128)}

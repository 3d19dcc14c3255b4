"""Protocol construction tests: scenario prep, codebooks, operators, trials."""

from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
    BobOperatorSet,
    ProtocolParams,
    _codeword_weights,
    _collapsed_state,
    _kron_halves,
    _signed_trace_norm,
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
    prune,
)

import oracles
from conftest import random_density, random_povm, random_surjection


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

    # trivial projectors: the whole product state
    f = build_xi_prime(eigs, None)
    assert np.allclose(f @ f.conj().T, np.kron(a, b), atol=1e-12)


def _diag_factor(values):
    return np.diag(np.sqrt(np.asarray(values, dtype=float)))


def test_omega_cutoff_keeps_eigenvalues_above_threshold():
    # xi_bar = 0.5 * diag(0.3, 0.01, 0.002) + 0.5 * diag(0.7, 0.03, 0.008)
    #        = diag(0.5, 0.02, 0.005)
    xi_map = {
        (0,): _diag_factor([0.3, 0.01, 0.002]),
        (1,): _diag_factor([0.7, 0.03, 0.008]),
    }
    probs = {(0,): 0.5, (1,): 0.5}
    # threshold = 0.1 * 2^{-log2(10)} = 0.01
    res = build_omega_and_cutoff(xi_map, probs, 1, 0.1, 0.0, np.log2(10))
    assert np.isclose(res.threshold, 0.01)
    assert np.allclose(res.projector, np.diag([1.0, 1.0, 0.0]))
    assert np.allclose(res.omega, np.diag([0.5, 0.02, 0.0]))
    cut = res.xi[(0,)]
    assert np.allclose(cut @ cut.conj().T, np.diag([0.3, 0.01, 0.0]))
    assert not res.empty

    # everything below threshold: empty cutoff
    res = build_omega_and_cutoff(
        {(0,): _diag_factor([1e-6, 1e-7])}, {(0,): 1.0}, 1, 0.5, 0.0, 0.0
    )
    assert res.empty
    assert np.allclose(res.projector, np.zeros((2, 2)))

    # eps = 0 keeps exactly the positive spectrum
    res = build_omega_and_cutoff(
        {(0,): _diag_factor([0.4, 0.0])}, {(0,): 1.0}, 1, 0.0, 1.0, 0.5
    )
    assert np.allclose(res.projector, np.diag([1.0, 0.0]))

    # fewer factor columns than rows: the cutoff runs on the Gram matrix
    u = np.array([[1.0], [1.0], [0.0]]) / np.sqrt(2.0)
    v = np.array([[0.0], [0.0], [1.0]])
    res = build_omega_and_cutoff(
        {(0,): np.sqrt(0.6) * u, (1,): np.sqrt(0.004) * v},
        {(0,): 0.5, (1,): 0.5}, 1, 0.1, 0.0, np.log2(10),
    )
    assert np.allclose(res.projector, u @ u.T)
    assert np.allclose(res.omega, 0.3 * u @ u.T)
    assert np.allclose(res.xi[(1,)], 0.0)

    # trivial mode: identity projector, untouched operators
    res = build_omega_and_cutoff(
        xi_map, probs, 1, 0.1, 0.0, np.log2(10), trivial=True
    )
    assert np.allclose(res.projector, np.eye(3))
    assert np.allclose(res.omega, np.diag([0.5, 0.02, 0.005]))
    assert res.xi[(0,)] is xi_map[(0,)]


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
        yield (
            cond_seq, block.bob_blocks.get(cond_seq), bob_states,
            single.p_cond, single.hat_states, single.h_r_given_xa,
        )


def _assert_matches_dense_oracle(single, params, trivial=False, sqrt_tol=1e-10):
    block = build_block_scenario(single, params, trivial_projectors=trivial)

    def close(got, want, tol=1e-10):
        assert np.abs(got - want).max() <= tol

    for cond_seq, blk, states, rows, hats, h in _oracle_cases(single, block):
        args = (cond_seq, states, rows, hats, h, params.n, params.delta, params.eps)
        if blk is None:
            assert cond_seq in block.dropped_cond
            with pytest.raises(EmptySupport):
                oracles.dense_conditioning_block(*args, trivial=trivial)
            continue
        ref = oracles.dense_conditioning_block(*args, trivial=trivial)
        close(blk.cutoff.projector, ref["projector"])
        close(blk.cutoff.omega, ref["omega"])
        assert blk.cutoff.empty == ref["empty"]
        assert blk.cutoff.threshold == ref["threshold"]
        # The dense oracle's whitened operators carry a forward error of
        # about machine epsilon times the condition number of rho_cond
        # on its support, so that bound joins the tolerance when it is
        # the larger one.
        spec = np.linalg.eigvalsh(oracles.conditioning_state(block, blk))
        support = spec[spec > SUPPORT_CUTOFF_REL * max(spec[-1], 1.0)]
        tol = max(1e-10, 1e-15 * spec[-1] / support[0])
        assert set(blk.gamma_factors) == set(ref["whitened"])
        for member, w in blk.gamma_factors.items():
            close(w @ w.conj().T, ref["whitened"][member], tol)
    close(block.sqrt_rho_n, sqrt_psd(block.rho_n))
    # references exist exactly for the sequences a codebook can draw
    alice_members = set(block.alice_block.typical.members)
    assert set(block.sqrt_lambda_a_n) == alice_members
    assert set(block.lambda_a_n) == alice_members
    bob_members = set()
    for blk in block.bob_blocks.values():
        bob_members.update(blk.typical.members)
    assert set(block.lambda_ref_b) == bob_members
    # each reference is held by the Kronecker halves of a factor F with
    # Lambda_x = F F^dag
    dim = block.rho_n.shape[0]
    for seq, halves in block.lambda_a_n.items():
        f = oracles.dense_kron(halves)
        mat = kron_all([single.alice_povm.elements[a] for a in seq])
        assert f.shape[0] == dim and f.shape[1] <= dim
        close(f @ f.conj().T, mat, 1e-14)
        sqrt_true = oracles.dense_kron(block.sqrt_lambda_a_n[seq])
        close(sqrt_true, sqrt_psd(mat), sqrt_tol)
    for seq, halves in block.lambda_ref_b.items():
        f = oracles.dense_kron(halves)
        mat = kron_all([single.bob_reference.elements[b] for b in seq])
        assert f.shape[0] == dim and f.shape[1] <= dim
        close(f @ f.conj().T, mat, 1e-14)


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


@pytest.mark.parametrize("n", [3, 4])
def test_cutoff_keeps_only_its_factors(n):
    # projector and omega are basis basis^dag and weighted weighted^dag;
    # the block must not hold a D x D buffer for a rank-r cutoff
    name = "three-outcome-split"
    cfg = config_from_dict(preset_document(name), name=name)
    single = prepare_scenario(cfg.rho, cfg.povm, cfg.g_a, cfg.g_b)
    block = build_block_scenario(single, replace(cfg.params, n=n))
    dim = block.rho_n.shape[0]
    checked = 0
    for blk in [block.alice_block, *block.bob_blocks.values()]:
        cut = blk.cutoff
        rank = cut.basis.shape[1]
        if rank >= dim:
            continue
        owners = {id(o): o for o in map(_owner, (cut.basis, cut.weighted))}
        assert sum(o.size for o in owners.values()) <= 2 * dim * rank
        assert cut.weighted.shape == (dim, rank)
        checked += 1
    assert checked > 0


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
    got = halves @ g
    assert got.shape == (dense.shape[0], k)
    assert np.abs(got - dense @ g).max(initial=0.0) <= 1e-13
    assert np.abs(halves.H @ g - dense.conj().T @ g).max(initial=0.0) <= 1e-13


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
    full = block.rho_n.shape[0] ** 2
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
def rank_two_scenarios(draw):
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
        n=draw(st.integers(1, 3 if dim == 2 else 2)),
        delta=draw(st.floats(0.3, 1.5)),
        delta2=0.25,
        eps=draw(st.sampled_from([0.0, 0.05, 0.3])),
        s_b=1,
        m_b=1,
    )
    return prepare_scenario(rho, povm, g_a, g_b), params, draw(st.booleans())


@settings(max_examples=40, deadline=None)
@given(rank_two_scenarios())
def test_factored_block_matches_dense_oracle_on_rank_two_scenarios(case):
    single, params, trivial = case
    # Rank-2 elements of a qutrit are singular, and the principal square
    # root of a singular matrix is only accurate to about the square root
    # of machine epsilon, by the dense route and the Kronecker one alike.
    try:
        _assert_matches_dense_oracle(single, params, trivial, sqrt_tol=1e-7)
    except (EmptySupport, NegligibleProbability):
        assume(False)


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
        allowed = set(law.support())
        for m in range(cb.m_count):
            words = cb.codewords(cond_seq, m)
            assert len(words) == cb.size
            assert all(w in allowed for w in words)
            assert all(isinstance(w, tuple) for w in words)
            # identity index map in case 2
            assert cb.selected_index(cond_seq, m, 1) == 1
    again = generate_codebook(
        TRINE_PARAMS, block.bob_marg_pruned, conditionals,
        np.random.default_rng(5), case=2,
    )
    assert again.entries == cb.entries


def test_codebook_case1_selection_semantics():
    single = trine_single()
    block = build_block_scenario(single, TRINE_PARAMS)
    conditionals = {c: b.pruned for c, b in block.bob_blocks.items()}
    cb = generate_codebook(
        TRINE_PARAMS, block.bob_marg_pruned, conditionals, np.random.default_rng(9)
    )
    assert cb.case == 1
    assert cb.size_prime == TRINE_PARAMS.s_b_prime
    for m in range(cb.m_count):
        assert len(cb.entries[m]) == cb.size_prime
    for cond_seq, law in conditionals.items():
        allowed = set(law.base.members)
        for m in range(cb.m_count):
            picked = cb.selection[(cond_seq, m)]
            # first `size` typical draws, in draw order
            expected = [
                j for j, seq in enumerate(cb.entries[m]) if seq in allowed
            ][: cb.size]
            assert list(picked) == expected
            assert cb.failure_flags[(cond_seq, m)] == (len(picked) < cb.size)
            words = cb.codewords(cond_seq, m)
            assert words == tuple(cb.entries[m][j] for j in picked)
            if not cb.failure_flags[(cond_seq, m)]:
                assert cb.selected_index(cond_seq, m, 0) == picked[0]


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
    cond_seq = next(iter(block.bob_blocks))
    blk = block.bob_blocks[cond_seq]
    opset = build_gamma(
        blk, cb, size=BELL_PARAMS.s_b, m_count=BELL_PARAMS.m_b, eps=BELL_PARAMS.eps
    )
    factor = blk.s_cond / ((1.0 + BELL_PARAMS.eps) * BELL_PARAMS.s_b * BELL_PARAMS.m_b)
    dim = block.rho_n.shape[0]
    for m in range(BELL_PARAMS.m_b):
        words = cb.codewords(cond_seq, m)
        total = np.zeros((dim, dim), dtype=complex)
        for j, seq in enumerate(words):
            w = blk.gamma_factors[seq]
            expect = factor * (w @ w.conj().T)
            expect = 0.5 * (expect + expect.conj().T)
            # codeword (j, m) stands for scale * w w^dag of its member
            assert opset.gamma[(j, m)] == seq
            assert np.allclose(opset.scale * (w @ w.conj().T), expect, atol=1e-14)
            total = total + expect
        assert sum(opset.bin_counts[m].values()) == len(words)
        g = np.hstack(opset.columns(opset.bin_counts[m]))
        assert np.allclose(g @ g.conj().T, total, atol=1e-13)


def test_validate_subpovm_leak_and_selection_failure():
    eye = np.eye(2)
    unit = np.array([[0.8], [0.6]])
    blk_stub = type(
        "Blk", (), {"cond_seq": (0,), "gamma_factors": {(0,): eye, (1,): unit}}
    )()

    def fake_codebook(flags):
        return Codebook(
            case=1, size=1, m_count=2, size_prime=2,
            entries={}, selection={}, failure_flags=flags,
        )

    def opset(bin_counts, scale):
        gamma = {
            (j, m): seq
            for m, counts in bin_counts.items()
            for j, seq in enumerate(
                s for s, k in counts.items() for _ in range(k)
            )
        }
        return BobOperatorSet(
            block=blk_stub, gamma=gamma, bin_counts=bin_counts, scale=scale,
            is_valid_subpovm={}, fallback_applied={},
        )

    # bin sums 1.2 I and 0.6 I
    leaky = opset({0: {(0,): 2}, 1: {(0,): 1}}, 0.6)
    validate_subpovm(leaky, fake_codebook({}))
    assert leaky.is_valid_subpovm == {0: False, 1: True}
    assert leaky.fallback_applied == {0: True, 1: False}
    assert leaky.fallback_rate == 0.5

    # a selection failure forces fallback even when the sum is fine
    ok = opset({0: {(0,): 1}, 1: {(0,): 1}}, 0.6)
    validate_subpovm(ok, fake_codebook({((0,), 1): True}))
    assert ok.is_valid_subpovm == {0: True, 1: True}
    assert ok.fallback_applied == {0: False, 1: True}

    # fewer columns than rows: the top eigenvalue comes from the Gram
    # matrix; 1.05 u u^dag leaks, 0.6 u u^dag and an empty bin do not
    rank_one = opset({0: {(1,): 1}, 1: {}}, 1.05)
    validate_subpovm(rank_one, fake_codebook({}))
    assert rank_one.is_valid_subpovm == {0: False, 1: True}
    rank_one = opset({0: {(1,): 1}, 1: {}}, 0.6)
    validate_subpovm(rank_one, fake_codebook({}))
    assert rank_one.is_valid_subpovm == {0: True, 1: True}


def test_scaled_average_stays_below_block_state():
    # with trivial projectors, S(cond) * omega never exceeds the block
    # post-measurement state
    for single, params in ((bell_single(), BELL_PARAMS), (trine_single(), TRINE_PARAMS)):
        block = build_block_scenario(single, params, trivial_projectors=True)
        for blk in list(block.bob_blocks.values()) + [block.alice_block]:
            rho_cond = oracles.conditioning_state(block, blk)
            gap = rho_cond - blk.s_cond * blk.cutoff.omega
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
    # the summed operator I is held as its factor I
    assert np.allclose(alice.lambda_tilde[only], np.eye(4))
    # every codeword is the only sequence, whose operator is I / 6
    assert alice.opset.gamma[(0, 0)] == only
    w = alice.opset.block.gamma_factors[only]
    assert np.allclose(alice.opset.scale * (w @ w.conj().T), np.eye(4) / 6)
    assert len(alice.opset.gamma) == params.s_a * params.m_a
    assert alice.opset.fallback_rate == 0.0


def test_assemble_keeps_members_without_columns():
    # a member whose cut factor has no column still received an operator,
    # the zero one: its key stays, with a D x 0 factor
    unit = np.array([[0.6], [0.8]])
    blk = type(
        "Blk", (), {"cond_seq": (0,), "gamma_factors": {
            (0,): np.zeros((2, 0)), (1,): unit,
        }}
    )()
    opset = BobOperatorSet(
        block=blk, gamma={(0, 0): (0,), (1, 0): (1,)},
        bin_counts={0: {(0,): 1, (1,): 1}}, scale=0.5,
        is_valid_subpovm={0: True}, fallback_applied={0: False},
    )
    scenario = type(
        "Scn", (), {"sqrt_lambda_a_n": {(0,): _kron_halves([np.eye(2)], (0,), {})}}
    )()
    alice = type(
        "Alice", (), {"sqrt_lambda_tilde": {(0,): (np.eye(2), np.ones(2))}}
    )()
    tilde, prime = assemble_bob_povm(scenario, alice, {(0,): opset})
    for table in (tilde, prime):
        assert set(table) == {(0,), (1,)}
        assert table[(0,)].shape == (2, 0)
        assert np.allclose(table[(1,)], np.sqrt(0.5) * unit)


def test_assemble_matches_naive_accumulation():
    single = trine_single()
    block = build_block_scenario(single, TRINE_PARAMS)
    instance = build_protocol_instance(block, TRINE_PARAMS, mode="with_alice_randomness")
    naive = {}
    for cond_seq, opset in instance.bob_sets.items():
        sqrt_true = oracles.dense_kron(block.sqrt_lambda_a_n[cond_seq])
        for m in range(instance.bob_codebook.m_count):
            if opset.fallback_applied[m]:
                continue
            for j, seq in enumerate(instance.bob_codebook.codewords(cond_seq, m)):
                assert opset.gamma[(j, m)] == seq
                w = opset.block.gamma_factors[seq]
                op = opset.scale * (w @ w.conj().T)
                term = sqrt_true @ op @ sqrt_true
                naive[seq] = naive.get(seq, 0.0) + 0.5 * (term + term.conj().T)
    # keys are exactly the sequences with a contribution; a missing key
    # is the zero operator
    assert naive
    assert set(instance.lambda_prime_b) == set(naive)
    prime = oracles.densify(instance.lambda_prime_b)
    for seq, mat in naive.items():
        assert np.allclose(prime[seq], mat, atol=1e-12)
    assert set(instance.lambda_tilde_b) <= set(naive)


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
    root_tol, and the count route's roots must square to lambda_tilde
    within 1e-10."""
    instance = build_protocol_instance(
        block, params, mode=mode, seed_seq=np.random.SeedSequence(seed)
    )
    want = oracles.dense_trial_operators(
        block, params, np.random.SeedSequence(seed)
    )
    alice = instance.alice

    def close(got, ref, tol=1e-10):
        assert set(got) == set(ref)
        for key, mat in got.items():
            assert np.abs(mat - ref[key]).max() <= tol, (key, seed)

    assert alice.opset.fallback_applied == want["alice_fallback"]
    assert {
        (cond_seq, m): flag
        for cond_seq, opset in instance.bob_sets.items()
        for m, flag in opset.fallback_applied.items()
    } == want["bob_fallback"]
    lambda_tilde = oracles.densify(alice.lambda_tilde)
    close(lambda_tilde, want["lambda_tilde"])
    sqrt_lambda_tilde = oracles.dense_roots(alice.sqrt_lambda_tilde)
    close(
        {seq: root @ root for seq, root in sqrt_lambda_tilde.items()},
        lambda_tilde,
    )
    close(sqrt_lambda_tilde, want["sqrt_lambda_tilde"], root_tol)
    close(
        oracles.densify(instance.lambda_tilde_b), want["lambda_tilde_b"], root_tol
    )
    close(oracles.densify(instance.lambda_prime_b), want["lambda_prime_b"])

    cond_a = block.alice_block.cond_seq
    for m_a, ref in want["alice_weights"].items():
        words = alice.codebook.codewords(cond_a, m_a)
        got = _codeword_weights(
            alice.opset, words, params.m_a, block.sqrt_rho_n
        )
        assert np.allclose(got, ref, rtol=0.0, atol=1e-10)
    for (m_a, j_a, m_b), ref in want["bob_weights"].items():
        cond_seq = alice.codebook.codewords(cond_a, m_a)[j_a]
        post = _collapsed_state(alice, cond_seq, block.rho_n)
        words = instance.bob_codebook.codewords(cond_seq, m_b)
        got = _codeword_weights(
            instance.bob_sets[cond_seq], words, params.m_b, post
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
    single, params, trivial = case
    params = replace(params, s_a=size, m_a=m_count, s_b=size, m_b=m_count)
    try:
        block = build_block_scenario(single, params, trivial_projectors=trivial)
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
    # the identity (the sums rebuilt densely by the oracle)
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
            if instance.bob_sets[cond_seq].fallback_applied[m]:
                continue
            assert np.linalg.eigvalsh(total)[-1] <= 1.0 + TAU_PSD


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
    a = build_protocol_instance(block, TRINE_PARAMS, seed_seq=np.random.SeedSequence(4))
    b = build_protocol_instance(block, TRINE_PARAMS, seed_seq=np.random.SeedSequence(4))
    assert a.bob_codebook.entries == b.bob_codebook.entries
    assert a.alice.codebook.entries == b.alice.codebook.entries
    c = build_protocol_instance(block, TRINE_PARAMS, seed_seq=np.random.SeedSequence(5))
    assert c.bob_codebook.entries != a.bob_codebook.entries


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
    assert abs(_signed_trace_norm(p, m) - want) <= 1e-12 * max(1.0, want)
    assert _signed_trace_norm(p, p) <= 1e-12 * max(1.0, want)


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


def test_empirical_e0_check_hand_counts():
    ts = build_typical_set([0.5, 0.5], 1, 0.0)
    law = prune([0.5, 0.5], ts)
    cond = (0,)

    balanced = Codebook(
        case=2, size=2, m_count=1, size_prime=0,
        entries={(cond, 0): ((0,), (1,))}, selection={}, failure_flags={},
    )
    rep = empirical_e0_check(balanced, {cond: law}, eps=0.1)
    assert rep.ok
    assert rep.violation == 0.0
    assert rep.draw_counts == {cond: 2}

    skewed = Codebook(
        case=2, size=2, m_count=1, size_prime=0,
        entries={(cond, 0): ((0,), (0,))}, selection={}, failure_flags={},
    )
    rep = empirical_e0_check(skewed, {cond: law}, eps=0.1)
    assert not rep.ok
    assert np.isclose(rep.violation, 1.0)

    # failed case-1 cells are excluded from the tally
    partial = Codebook(
        case=1, size=2, m_count=2, size_prime=3,
        entries={0: ((0,), (1,), (0,)), 1: ((0,), (0,), (0,))},
        selection={(cond, 0): (0, 1), (cond, 1): (0,)},
        failure_flags={(cond, 0): False, (cond, 1): True},
    )
    rep = empirical_e0_check(partial, {cond: law}, eps=0.1)
    assert rep.draw_counts == {cond: 2}
    assert rep.ok


def test_bell_conditionals_make_e0_exact():
    # deterministic conditional laws leave a single admissible codeword,
    # so the occupancy band holds with zero slack
    single = bell_single()
    records = simulate_trials(single, BELL_PARAMS, trials=4)
    for rec in records:
        assert rec.report.e0_ok
        assert rec.report.e0_violation == 0.0

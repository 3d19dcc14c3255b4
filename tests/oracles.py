"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written by the most literal route
available: explicit joint density matrices, brute-force enumeration,
direct products of probabilities. Slow is fine; these run at desk scale.
"""

import itertools
import math

import numpy as np


def entropy_bits(p):
    """Shannon entropy by direct summation."""
    total = 0.0
    for v in np.asarray(p, dtype=float).ravel():
        if v > 0.0:
            total -= v * math.log2(v)
    return total


def matrix_entropy_bits(m):
    """von Neumann entropy from the raw eigenvalue list."""
    w = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
    total = 0.0
    for v in w:
        if v > 0.0:
            total -= v * math.log2(v)
    return float(total)


def outcome_blocks(rho, povm_elements):
    """Unnormalized reference block per outcome.

    Purifying rho and measuring E_x on the system leaves the reference in
    a block unitarily equivalent to the transpose of sqrt(rho) E_x
    sqrt(rho). Every matrix assembled from these blocks downstream is
    block diagonal in the classical registers, so transposing all blocks
    at once never changes an eigenvalue list; the plain sandwich is
    therefore entropy-equivalent and is what we use.
    """
    rho = np.asarray(rho, dtype=complex)
    w, v = np.linalg.eigh(0.5 * (rho + rho.conj().T))
    w = np.clip(w, 0.0, None)
    root = (v * np.sqrt(w)) @ v.conj().T
    blocks = []
    for e in povm_elements:
        e = np.asarray(e, dtype=complex)
        blk = root @ e @ root
        blocks.append(0.5 * (blk + blk.conj().T))
    return blocks


def canonical_purification(rho):
    """Purification sum_i sqrt(l_i) |i>_R |v_i>_C of rho as a d^2 vector.

    The reference R comes first, its computational basis indexing the
    eigenvectors v_i of rho.
    """
    rho = np.asarray(rho, dtype=complex)
    d = rho.shape[0]
    w, v = np.linalg.eigh(0.5 * (rho + rho.conj().T))
    vec = np.zeros(d * d, dtype=complex)
    for i in range(d):
        ket = np.zeros(d, dtype=complex)
        ket[i] = 1.0
        vec = vec + math.sqrt(max(float(w[i]), 0.0)) * np.kron(ket, v[:, i])
    return vec / np.linalg.norm(vec)


def purified_reference_blocks(rho, povm_elements):
    """Unnormalized reference state Tr_C[(I (x) E_x) |phi><phi|] per outcome.

    phi is the canonical purification, and the partial trace is taken on
    the full d^2 x d^2 operator.
    """
    phi = canonical_purification(rho)
    d = int(round(math.sqrt(phi.size)))
    proj = np.outer(phi, phi.conj())
    blocks = []
    for e in povm_elements:
        full = np.kron(np.eye(d), np.asarray(e, dtype=complex)) @ proj
        blk = np.einsum("icjc->ij", full.reshape(d, d, d, d))
        blocks.append(0.5 * (blk + blk.conj().T))
    return blocks


def purified_trace_norms(rho, elements_a, elements_b):
    """||rho^R_x(A) - rho^R_x(B)||_1 per outcome, on the purified blocks."""
    blocks_a = purified_reference_blocks(rho, elements_a)
    blocks_b = purified_reference_blocks(rho, elements_b)
    return [
        float(np.abs(np.linalg.eigvalsh(a - b)).sum())
        for a, b in zip(blocks_a, blocks_b)
    ]


def holevo_conditional_direct(rho, povm_elements, g_a, g_b):
    """I(X_B; R | X_A) as sum_a p(a) I(X_B; R | X_A = a), each term the
    Holevo quantity of the normalized purified reference states of the
    pairs (a, b). Masses at or below 1e-12 are skipped."""
    blocks = purified_reference_blocks(rho, povm_elements)
    d = blocks[0].shape[0]
    pair_blocks = {}
    for x, blk in enumerate(blocks):
        lab = (g_a[x], g_b[x])
        pair_blocks[lab] = pair_blocks.get(lab, np.zeros((d, d), dtype=complex)) + blk
    total = 0.0
    for a in sorted({lab[0] for lab in pair_blocks}):
        branch = [blk for (aa, _), blk in pair_blocks.items() if aa == a]
        p_a = sum(float(np.trace(blk).real) for blk in branch)
        if p_a <= 1e-12:
            continue
        avg = sum(branch) / p_a
        cond = 0.0
        for blk in branch:
            p_ab = float(np.trace(blk).real)
            if p_ab > 1e-12:
                cond += (p_ab / p_a) * matrix_entropy_bits(blk / p_ab)
        total += p_a * (matrix_entropy_bits(avg) - cond)
    return total


def joint_information_oracle(rho, povm_elements, g_a, g_b):
    """All four mutual informations from explicit joint density matrices.

    Classical registers are embedded in the computational basis, so the
    entropies come straight from eigenvalue lists of assembled matrices.
    Returns a dict with iXA_R, iXAXB_R, iXB_R_given_XA, iXB_RXA, hXA,
    hXB, hXB_given_XA.
    """
    blocks = outcome_blocks(rho, povm_elements)
    d = blocks[0].shape[0]
    k_a = max(g_a) + 1
    k_b = max(g_b) + 1

    def ket(k, dim):
        out = np.zeros((dim, dim), dtype=complex)
        out[k, k] = 1.0
        return out

    pair_blocks = {}
    for x, blk in enumerate(blocks):
        lab = (g_a[x], g_b[x])
        pair_blocks[lab] = pair_blocks.get(lab, np.zeros((d, d), dtype=complex)) + blk

    sigma_r = np.zeros((d, d), dtype=complex)
    sigma_ar = np.zeros((k_a * d, k_a * d), dtype=complex)
    sigma_br = np.zeros((k_b * d, k_b * d), dtype=complex)
    sigma_abr = np.zeros((k_a * k_b * d, k_a * k_b * d), dtype=complex)
    sigma_ab = np.zeros((k_a * k_b, k_a * k_b), dtype=complex)
    p_a = np.zeros(k_a)
    p_b = np.zeros(k_b)
    for (a, b), blk in pair_blocks.items():
        p = float(np.trace(blk).real)
        p_a[a] += p
        p_b[b] += p
        sigma_r += blk
        sigma_ar += np.kron(ket(a, k_a), blk)
        sigma_br += np.kron(ket(b, k_b), blk)
        sigma_abr += np.kron(np.kron(ket(a, k_a), ket(b, k_b)), blk)
        sigma_ab += p * np.kron(ket(a, k_a), ket(b, k_b))
    sigma_a = np.diag(p_a.astype(complex))
    sigma_b = np.diag(p_b.astype(complex))

    s = matrix_entropy_bits
    h_a = s(sigma_a)
    h_b = s(sigma_b)
    h_ab = s(sigma_ab)
    h_r = s(sigma_r)
    h_ar = s(sigma_ar)
    h_br = s(sigma_br)
    h_abr = s(sigma_abr)
    return {
        "iXA_R": h_a + h_r - h_ar,
        "iXAXB_R": h_ab + h_r - h_abr,
        "iXB_R_given_XA": h_ab + h_ar - h_a - h_abr,
        "iXB_RXA": h_b + h_ar - h_abr,
        "iXB_R": h_b + h_r - h_br,
        "hXA": h_a,
        "hXB": h_b,
        "hXB_given_XA": h_ab - h_a,
    }


def enumerate_typical(p, n, delta):
    """Brute-force weak typical set via direct probability products."""
    p = np.asarray(p, dtype=float)
    h = entropy_bits(p)
    members = []
    for seq in itertools.product(range(p.size), repeat=n):
        prob = 1.0
        for s in seq:
            prob *= p[s]
        if prob <= 0.0:
            continue
        if abs(-math.log2(prob) / n - h) <= delta + 1e-12:
            members.append(seq)
    return members


def enumerate_conditional_typical(p_cond, cond_seq, delta):
    """Brute-force conditional typical set for a fixed conditioning."""
    p_cond = np.asarray(p_cond, dtype=float)
    n = len(cond_seq)
    k_b = p_cond.shape[1]
    h = sum(entropy_bits(p_cond[a]) for a in cond_seq) / n
    members = []
    for seq in itertools.product(range(k_b), repeat=n):
        prob = 1.0
        for a, b in zip(cond_seq, seq):
            prob *= p_cond[a, b]
        if prob <= 0.0:
            continue
        if abs(-math.log2(prob) / n - h) <= delta + 1e-12:
            members.append(seq)
    return members


def conditional_mass(p_cond, cond_seq, members):
    """Total probability of the given output sequences by direct products."""
    p_cond = np.asarray(p_cond, dtype=float)
    total = 0.0
    for seq in members:
        prob = 1.0
        for a, b in zip(cond_seq, seq):
            prob *= p_cond[a, b]
        total += prob
    return total


def jt_statistic_oracle(groups):
    """Jonckheere-Terpstra statistic as a sum of pairwise U statistics."""
    from scipy.stats import mannwhitneyu

    total = 0.0
    for i in range(len(groups)):
        for j in range(i + 1, len(groups)):
            if len(groups[i]) == 0 or len(groups[j]) == 0:
                continue
            res = mannwhitneyu(
                groups[j], groups[i], alternative="two-sided", method="asymptotic"
            )
            total += float(res.statistic)
    return total


def dense_conditioning_block(
    cond_seq, base_states, p_cond_rows, hat_states, h_ref_given_cond, n, delta, eps
):
    """One conditioning block of the geometry, built with dense D x D operators.

    Per typical member: the Kronecker product of its hat states, its own
    quantum typical projector, and the four-matmul sandwich between that
    projector and the block projector P_C. The cutoff is a D x D eigh of
    the averaged state, and rho_cond^{-1/2} is pinv_sqrt_on_support of
    the Kronecker block state. Eigenvalues of the average at or below
    CUTOFF_FLOOR_REL times the largest count as zero, so at eps = 0 the
    kept spectrum does not depend on roundoff.

    Returns a dict with projector, omega, threshold, empty, pinv (the
    pseudo-inverse square root), xi (member -> cut compressed state) and
    whitened (member -> pinv xi pinv).
    """
    from povmcast.linalg import hermitian_part, kron_all, pinv_sqrt_on_support
    from povmcast.measurement import SUPPORT_CUTOFF_REL
    from povmcast.protocol import CUTOFF_FLOOR_REL
    from povmcast.typicality import (
        conditional_quantum_typical_projector,
        conditional_typical_set,
        prune_conditional,
    )

    typical = conditional_typical_set(p_cond_rows, cond_seq, n, delta)
    pruned = prune_conditional(p_cond_rows, cond_seq, typical)
    rho_cond_n = kron_all([base_states[sym] for sym in cond_seq])
    cut = SUPPORT_CUTOFF_REL * max(np.linalg.norm(rho_cond_n, 2), 1.0)
    pinv = pinv_sqrt_on_support(rho_cond_n, cutoff=cut)
    dim = rho_cond_n.shape[0]
    proj_c = conditional_quantum_typical_projector(
        {sym: base_states[sym] for sym in set(cond_seq)}, cond_seq, delta
    ).projector

    xi_prime = {}
    for member in typical.members:
        pairs = tuple(zip(cond_seq, member))
        hat_n = kron_all([hat_states[pair] for pair in pairs])
        proj_hat = conditional_quantum_typical_projector(
            {pair: hat_states[pair] for pair in set(pairs)}, pairs, delta
        ).projector
        out = proj_c @ (proj_hat @ hat_n @ proj_hat) @ proj_c
        xi_prime[member] = hermitian_part(out)
    xi_bar = np.zeros((dim, dim), dtype=complex)
    for member, mat in xi_prime.items():
        xi_bar = xi_bar + pruned.prob(member) * mat
    xi_bar = hermitian_part(xi_bar)

    threshold = eps * 2.0 ** (-n * (h_ref_given_cond + delta))
    w, v = np.linalg.eigh(xi_bar)
    keep = w > max(threshold, CUTOFF_FLOOR_REL * float(w.max()), 0.0)
    vecs = v[:, keep]
    projector = vecs @ vecs.conj().T
    xi = {m: projector @ mat @ projector for m, mat in xi_prime.items()}
    return {
        "projector": projector,
        "omega": projector @ xi_bar @ projector,
        "threshold": float(threshold),
        "empty": not bool(keep.any()),
        "pinv": pinv,
        "xi": xi,
        "whitened": {m: pinv @ mat @ pinv for m, mat in xi.items()},
    }


def conditioning_state(block, blk):
    """rho_cond^n of one conditioning block as a dense Kronecker product:
    rho^n for Alice's block, the post-measurement states along cond_seq
    for a Bob block."""
    from povmcast.linalg import kron_all

    single = block.single
    if blk is block.alice_block:
        return kron_all([single.rho.mat] * block.n)
    return kron_all([single.post_states[a].mat for a in blk.cond_seq])


def cut_average(cutoff):
    """The cut average omega = basis diag(eigenvalues) basis^dag of a
    cutoff, made exactly Hermitian."""
    v = cutoff.basis
    omega = (v * cutoff.eigenvalues) @ v.conj().T
    return 0.5 * (omega + omega.conj().T)


def densify(factors):
    """Operator table F F^dag of a factor table."""
    return {key: f @ f.conj().T for key, f in factors.items()}


def dense_kron(halves):
    """The dense Kronecker product of an operator held as two
    half-products."""
    return np.kron(halves.left, halves.right)


def dense_roots(roots):
    """Root table U diag(s) U^dag of a table of thin (U, s) pairs."""
    return {key: (u * s) @ u.conj().T for key, (u, s) in roots.items()}


def dense_instance_scores(block, instance):
    """d_bob, d_alice, atypical, d2 and d3 of an instance by the literal sum.

    Every outcome sequence gets a dense Kronecker reference operator, the
    simulated operators are densified from their factors and zero-filled
    over all sequences, and the five scores are five
    faithfulness_distance calls over explicit dicts, rho^n being the
    Kronecker power of the single-letter state.
    """
    from povmcast.linalg import kron_all
    from povmcast.protocol import faithfulness_distance

    single = block.single
    n = block.n
    rho_n = kron_all([single.rho.mat] * n)
    dim = rho_n.shape[0]

    def table(elements):
        return {
            seq: kron_all([elements[x] for x in seq])
            for seq in itertools.product(range(len(elements)), repeat=n)
        }

    def filled(ops, keys):
        zero = np.zeros((dim, dim), dtype=complex)
        return {seq: ops.get(seq, zero) for seq in keys}

    ref_b = table(single.bob_reference.elements)
    ref_a = table(single.alice_povm.elements)
    tilde = filled(densify(instance.lambda_tilde_b), ref_b)
    prime = filled(densify(instance.lambda_prime_b), ref_b)
    members = set(block.bob_marg_typical.members)

    def part(ops, typical):
        return {k: v for k, v in ops.items() if (k in members) == typical}

    def dist(ref, app):
        return faithfulness_distance(ref, app, rho_n)

    return {
        "d_bob": dist(ref_b, tilde),
        "d_alice": dist(ref_a, filled(densify(instance.alice.lambda_tilde), ref_a)),
        "atypical": dist(part(ref_b, False), part(tilde, False)),
        "d2": dist(part(ref_b, True), part(prime, True)),
        "d3": dist(part(prime, True), part(tilde, True)),
    }


def dense_trial_operators(block, params, seed_seq):
    """Every operator of one trial by the dense per-codeword route.

    Draws the codebooks build_protocol_instance draws from seed_seq. Each
    codeword gets its own D x D operator hermitian_part(c w w^dag), every
    bin sum is checked with eigvalsh, Alice's operators are summed per
    sequence over her non-fallback bins and rooted with sqrt_psd, and
    Bob's elements are the four-matmul sandwich of each codeword's
    operator, sqrt(Lambda_a^n) being the Kronecker product of the
    single-letter sqrt_psd(E_a) and rho^n the Kronecker power of the
    single-letter state. Sampling weights are m tr(op rho^n) for
    every Alice bin, and for every (Alice bin, Alice position, Bob bin)
    they are m_b tr(op post), post being rho^n collapsed by sqrt_psd of
    Alice's operator. With a single Alice letter her operators are
    I / (m_a s_a).

    Returns a dict with alice_fallback (bin -> flag), bob_fallback
    ((conditioning, bin) -> flag), bob_bin_sums ((conditioning, bin) ->
    dense sum), lambda_tilde, sqrt_lambda_tilde, lambda_tilde_b,
    lambda_prime_b, alice_weights (bin -> list) and bob_weights
    ((m_a, j_a, m_b) -> list).
    """
    from povmcast.linalg import (
        TAU_PROB, TAU_PSD, hermitian_part, kron_all, sqrt_psd,
    )
    from povmcast.protocol import generate_codebook

    alice_ss, bob_ss, _ = seed_seq.spawn(3)
    ab = block.alice_block
    rho_n = kron_all([block.single.rho.mat] * block.n)
    dim = rho_n.shape[0]
    alice_cb = generate_codebook(
        params, None, {ab.cond_seq: ab.pruned}, np.random.default_rng(alice_ss),
        size=params.s_a, m_count=params.m_a, case=2,
    )
    bob_cb = generate_codebook(
        params, block.bob_marg_pruned,
        {c: blk.pruned for c, blk in block.bob_blocks.items()},
        np.random.default_rng(bob_ss),
    )

    def operators(blk, codebook, size, m_count):
        c = blk.s_cond / ((1.0 + params.eps) * size * m_count)
        gamma, sums, fallback = {}, {}, {}
        for m in range(m_count):
            total = np.zeros((dim, dim), dtype=complex)
            for j, seq in enumerate(codebook.codewords(blk.cond_seq, m)):
                w = blk.gamma_factors[seq]
                gamma[(j, m)] = hermitian_part(c * (w @ w.conj().T))
                total = total + gamma[(j, m)]
            sums[m] = hermitian_part(total)
            top = float(np.linalg.eigvalsh(sums[m])[-1])
            failed = codebook.failure_flags.get((blk.cond_seq, m), False)
            fallback[m] = top > 1.0 + TAU_PSD or bool(failed)
        return gamma, sums, fallback

    def summed(gamma, fallback, codebook, cond_seq, m_count):
        out = {}
        for m in range(m_count):
            if fallback[m]:
                continue
            for j, seq in enumerate(codebook.codewords(cond_seq, m)):
                out[seq] = out.get(seq, 0.0) + gamma[(j, m)]
        return out

    if block.single.n_alice == 1:
        eye = np.eye(dim)
        only = (0,) * block.n
        alice_gamma = {
            (j, m): eye / (params.m_a * params.s_a)
            for j in range(params.s_a) for m in range(params.m_a)
        }
        alice_fallback = dict.fromkeys(range(params.m_a), False)
        lambda_tilde = {only: eye}
        sqrt_lambda_tilde = {only: eye}
    else:
        alice_gamma, _, alice_fallback = operators(
            ab, alice_cb, params.s_a, params.m_a
        )
        lambda_tilde = summed(
            alice_gamma, alice_fallback, alice_cb, ab.cond_seq, params.m_a
        )
        sqrt_lambda_tilde = {
            seq: sqrt_psd(hermitian_part(op)) for seq, op in lambda_tilde.items()
        }

    alice_elems = block.single.alice_povm.elements
    bob_gamma, bob_fallback, bob_bin_sums = {}, {}, {}
    lambda_tilde_b, lambda_prime_b = {}, {}
    for cond_seq, blk in block.bob_blocks.items():
        gamma, sums, fallback = operators(blk, bob_cb, params.s_b, params.m_b)
        bob_gamma[cond_seq] = gamma
        for m in range(params.m_b):
            bob_fallback[(cond_seq, m)] = fallback[m]
            bob_bin_sums[(cond_seq, m)] = sums[m]
        sqrt_true = kron_all([sqrt_psd(alice_elems[a]) for a in cond_seq])
        sqrt_alice = sqrt_lambda_tilde.get(cond_seq)
        for m in range(params.m_b):
            if fallback[m]:
                continue
            for j, seq in enumerate(bob_cb.codewords(cond_seq, m)):
                op = gamma[(j, m)]
                term = hermitian_part(sqrt_true @ op @ sqrt_true)
                lambda_prime_b[seq] = lambda_prime_b.get(seq, 0.0) + term
                if sqrt_alice is not None:
                    term = hermitian_part(sqrt_alice @ op @ sqrt_alice)
                    lambda_tilde_b[seq] = lambda_tilde_b.get(seq, 0.0) + term

    def weights(gamma, m, count, m_count, state):
        return [
            m_count * float(np.trace(gamma[(j, m)] @ state).real)
            for j in range(count)
        ]

    alice_weights, bob_weights = {}, {}
    for m_a in range(params.m_a):
        words_a = alice_cb.codewords(ab.cond_seq, m_a)
        alice_weights[m_a] = weights(
            alice_gamma, m_a, len(words_a), params.m_a, rho_n
        )
        if alice_fallback[m_a]:
            continue
        for j_a, cond_seq in enumerate(words_a):
            if alice_weights[m_a][j_a] <= TAU_PROB:
                continue
            if cond_seq not in block.bob_blocks:
                continue
            root = sqrt_psd(alice_gamma[(j_a, m_a)])
            post = hermitian_part(root @ rho_n @ root)
            post = post / float(np.trace(post).real)
            for m_b in range(params.m_b):
                if bob_fallback[(cond_seq, m_b)]:
                    continue
                count = len(bob_cb.codewords(cond_seq, m_b))
                bob_weights[(m_a, j_a, m_b)] = weights(
                    bob_gamma[cond_seq], m_b, count, params.m_b, post
                )
    return {
        "alice_fallback": alice_fallback,
        "bob_fallback": bob_fallback,
        "bob_bin_sums": bob_bin_sums,
        "lambda_tilde": lambda_tilde,
        "sqrt_lambda_tilde": sqrt_lambda_tilde,
        "lambda_tilde_b": lambda_tilde_b,
        "lambda_prime_b": lambda_prime_b,
        "alice_weights": alice_weights,
        "bob_weights": bob_weights,
    }

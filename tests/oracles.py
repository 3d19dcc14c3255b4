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
    cond_seq, base_states, p_cond_rows, hat_states, h_ref_given_cond, n, delta,
    eps, *, trivial=False,
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
    eye = np.eye(dim)
    if trivial:
        proj_c = eye
    else:
        proj_c = conditional_quantum_typical_projector(
            {sym: base_states[sym] for sym in set(cond_seq)}, cond_seq, delta
        ).projector

    xi_prime = {}
    for member in typical.members:
        pairs = tuple(zip(cond_seq, member))
        hat_n = kron_all([hat_states[pair] for pair in pairs])
        if trivial:
            proj_hat = eye
        else:
            proj_hat = conditional_quantum_typical_projector(
                {pair: hat_states[pair] for pair in set(pairs)}, pairs, delta
            ).projector
        out = proj_c @ (proj_hat @ hat_n @ proj_hat) @ proj_c
        xi_prime[member] = hermitian_part(out)
    xi_bar = np.zeros((dim, dim), dtype=complex)
    for member, mat in xi_prime.items():
        xi_bar = xi_bar + pruned.prob(member) * mat
    xi_bar = hermitian_part(xi_bar)

    if trivial:
        projector, omega, xi = eye, xi_bar, xi_prime
        threshold, empty = float("-inf"), False
    else:
        threshold = eps * 2.0 ** (-n * (h_ref_given_cond + delta))
        w, v = np.linalg.eigh(xi_bar)
        keep = w > max(threshold, CUTOFF_FLOOR_REL * float(w.max()), 0.0)
        vecs = v[:, keep]
        projector = vecs @ vecs.conj().T
        omega = projector @ xi_bar @ projector
        xi = {m: projector @ mat @ projector for m, mat in xi_prime.items()}
        empty = not bool(keep.any())
    return {
        "projector": projector,
        "omega": omega,
        "threshold": float(threshold),
        "empty": empty,
        "pinv": pinv,
        "xi": xi,
        "whitened": {m: pinv @ mat @ pinv for m, mat in xi.items()},
    }

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

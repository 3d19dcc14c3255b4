"""Entropies and the achievable communication/randomness rate region.

All logarithms are base 2. Every rate quantity is a signed sum of seven
joint entropies of the outcomes X_A, X_B and the reference system R that
purifies the state. They come from one table of d x d reference blocks
B_ab = sqrt(rho) Lambda_ab sqrt(rho), where Lambda_ab sums the elements
with g_A(x) = a and g_B(x) = b: the traces of the blocks are the joint
law of (X_A, X_B), and a state that is classical on some outcomes and
quantum on R is block diagonal, so its entropy is that of the blocks
summed over the outcomes it forgets.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import NotPsd, SizeMismatch
from .linalg import (
    DensityOperator,
    as_matrix,
    below_psd_floor,
    entropy_bits,
    hermitian_part,
)
from .measurement import OutcomeFunction, Povm, reference_blocks
from .typicality import _check_distribution


def shannon_entropy(p) -> float:
    """H(p) in bits, with 0 log 0 = 0."""
    return entropy_bits(_check_distribution(p))


def von_neumann_entropy(rho) -> float:
    """S(rho) in bits from the clipped eigenvalue spectrum."""
    m = rho.mat if isinstance(rho, DensityOperator) else as_matrix(rho)
    w = np.linalg.eigvalsh(hermitian_part(m))
    if below_psd_floor(w):
        raise NotPsd(f"operator has eigenvalue {w.min():.3e}")
    return entropy_bits(w)


@dataclass(frozen=True)
class RateQuantities:
    """The seven entropic quantities the rate region is built from."""

    iXA_R: float
    iXAXB_R: float
    iXB_R_given_XA: float
    iXB_RXA: float
    hXA: float
    hXB: float
    hXB_given_XA: float


def _block_diag_entropy(blocks) -> float:
    """Entropy of a block-diagonal PSD operator given a stack of its
    unnormalized blocks."""
    return entropy_bits(np.linalg.eigvalsh(blocks).ravel())


def joint_entropies(
    rho, povm: Povm, g_a: OutcomeFunction, g_b: OutcomeFunction
) -> dict:
    """H(X_A), H(X_B), H(X_A X_B), S(R), S(X_A R), S(X_B R) and
    S(X_A X_B R) in bits, keyed "A", "B", "AB", "R", "AR", "BR", "ABR"."""
    if g_a.domain_size != povm.n_outcomes or g_b.domain_size != povm.n_outcomes:
        raise SizeMismatch("outcome function domains must match POVM outcome count")
    d = povm.dim
    joint = np.zeros((g_a.image_size, g_b.image_size, d, d), dtype=np.complex128)
    for x, e in enumerate(povm.elements):
        joint[g_a(x), g_b(x)] += e
    blocks = reference_blocks(rho, joint)
    p = np.trace(blocks, axis1=-2, axis2=-1).real
    return {
        "A": shannon_entropy(p.sum(axis=1)),
        "B": shannon_entropy(p.sum(axis=0)),
        "AB": shannon_entropy(p),
        "R": _block_diag_entropy(blocks.sum(axis=(0, 1))),
        "AR": _block_diag_entropy(blocks.sum(axis=1)),
        "BR": _block_diag_entropy(blocks.sum(axis=0)),
        "ABR": _block_diag_entropy(blocks),
    }


def rate_quantities(h: dict) -> RateQuantities:
    """The seven rate quantities from joint_entropies' table.

    I(X_B; R | X_A) is the chain-rule difference I(X_A X_B; R) - I(X_A; R).
    """
    i_xa_r = h["A"] + h["R"] - h["AR"]
    i_xaxb_r = h["AB"] + h["R"] - h["ABR"]
    return RateQuantities(
        iXA_R=i_xa_r,
        iXAXB_R=i_xaxb_r,
        iXB_R_given_XA=i_xaxb_r - i_xa_r,
        iXB_RXA=h["B"] + h["AR"] - h["ABR"],
        hXA=h["A"],
        hXB=h["B"],
        hXB_given_XA=h["AB"] - h["A"],
    )


def evaluate_rate_region(
    rho, povm: Povm, g_a: OutcomeFunction, g_b: OutcomeFunction
) -> RateQuantities:
    """Rate floors for faithful simulation of the (g_a, g_b) broadcast."""
    return rate_quantities(joint_entropies(rho, povm, g_a, g_b))


RATE_CSV_COLUMNS = (
    "iXA_R",
    "iXAXB_R",
    "iXB_R_given_XA",
    "iXB_RXA",
    "hXA",
    "hXB",
    "hXB_given_XA",
)


def report_to_json(q: RateQuantities) -> dict:
    """The seven quantities plus each option's Bob corner."""
    doc = asdict(q)
    doc["option1"] = {
        "iXAXB_R": q.iXAXB_R,
        "hXB_given_XA": q.hXB_given_XA,
        "requires_alice_randomness": True,
    }
    doc["option2"] = {
        "iXB_RXA": q.iXB_RXA,
        "hXB": q.hXB,
        "requires_alice_randomness": False,
    }
    return doc

"""Entropies and the achievable communication/randomness rate region.

All logarithms are base 2. Mutual informations involving the reference
system are Holevo quantities of classical-quantum ensembles; the one
conditioned jointly on the reference and Alice's outcome is evaluated on
explicitly assembled block-diagonal hybrid density operators.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import NotPsd, SizeLimitExceeded
from .linalg import (
    TAU_PROB,
    DensityOperator,
    as_matrix,
    below_psd_floor,
    dimension_cap,
    entropy_bits,
    hermitian_part,
)
from .measurement import (
    CqState,
    OutcomeFunction,
    Povm,
    cq_conditional,
    cq_marginal,
    joint_outcome_model,
)
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


def _active(cq: CqState):
    return [i for i in range(len(cq.outcome_labels)) if cq.probs[i] > TAU_PROB]


def holevo_mutual_information(cq: CqState) -> float:
    """S(sum_x p_x rho_x) - sum_x p_x S(rho_x).

    Outcomes at or below the probability floor contribute nothing.
    """
    idxs = _active(cq)
    if not idxs:
        return 0.0
    avg = sum(cq.weighted_state(i) for i in idxs)
    cond = sum(float(cq.probs[i]) * von_neumann_entropy(cq.ref_states[i]) for i in idxs)
    return von_neumann_entropy(avg) - cond


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


def _pair_marginals(joint: CqState):
    a_vals = sorted({lab[0] for lab in joint.outcome_labels})
    b_vals = sorted({lab[1] for lab in joint.outcome_labels})
    p_ab = {lab: float(joint.probs[i]) for i, lab in enumerate(joint.outcome_labels)}
    p_a = np.array([sum(p_ab.get((a, b), 0.0) for b in b_vals) for a in a_vals])
    p_b = np.array([sum(p_ab.get((a, b), 0.0) for a in a_vals) for b in b_vals])
    return a_vals, b_vals, p_a, p_b, p_ab


def _block_diag_entropy(blocks) -> float:
    """Entropy of a block-diagonal PSD operator given its weighted blocks."""
    total = 0.0
    for blk in blocks:
        total += entropy_bits(np.linalg.eigvalsh(hermitian_part(blk)))
    return total


def conditional_rate_quantities(joint: CqState) -> RateQuantities:
    """Entropic quantities of a pair-labeled broadcast outcome model.

    I(X_B; R | X_A) comes from the chain rule I(X_A X_B; R) - I(X_A; R);
    holevo_conditional_direct provides the independent route for
    cross-checking. I(X_B; R X_A) is S(X_B) + S(R X_A) - S(X_B R X_A)
    on explicit block-diagonal hybrid operators.
    """
    a_vals, b_vals, p_a, p_b, p_ab = _pair_marginals(joint)
    h_xa = shannon_entropy(p_a)
    h_xb = shannon_entropy(p_b)
    h_xab = shannon_entropy(np.array(list(p_ab.values())))
    h_xb_given_xa = h_xab - h_xa

    i_xaxb_r = holevo_mutual_information(joint)
    marg_a = cq_marginal(joint, 0)
    i_xa_r = holevo_mutual_information(marg_a)
    i_xb_r_given_xa = i_xaxb_r - i_xa_r

    d = joint.dim_ref
    if len(a_vals) * len(b_vals) * d > dimension_cap():
        raise SizeLimitExceeded("hybrid operator would exceed the dimension cap")
    s_rxa = _block_diag_entropy(marg_a.weighted_state(i) for i in _active(marg_a))
    s_xbrxa = _block_diag_entropy(joint.weighted_state(i) for i in _active(joint))
    i_xb_rxa = h_xb + s_rxa - s_xbrxa

    return RateQuantities(
        iXA_R=i_xa_r,
        iXAXB_R=i_xaxb_r,
        iXB_R_given_XA=i_xb_r_given_xa,
        iXB_RXA=i_xb_rxa,
        hXA=h_xa,
        hXB=h_xb,
        hXB_given_XA=h_xb_given_xa,
    )


def holevo_conditional_direct(joint: CqState) -> float:
    """I(X_B; R | X_A) summed directly over conditional ensembles."""
    marg_a = cq_marginal(joint, 0)
    total = 0.0
    for i, a in enumerate(marg_a.outcome_labels):
        p = float(marg_a.probs[i])
        if p <= TAU_PROB:
            continue
        total += p * holevo_mutual_information(cq_conditional(joint, 0, a))
    return total


def evaluate_rate_region(
    rho, povm: Povm, g_a: OutcomeFunction, g_b: OutcomeFunction
) -> RateQuantities:
    """Rate floors for faithful simulation of the (g_a, g_b) broadcast."""
    return conditional_rate_quantities(joint_outcome_model(rho, povm, g_a, g_b))


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

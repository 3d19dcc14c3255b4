"""Finite-blocklength construction of distributed measurement simulation.

A server holds n copies of a state rho and a fine-grained measurement
whose outcome x determines two reports, x_A = g_A(x) for Alice and
x_B = g_B(x) for Bob. Instead of measuring and mailing the full
outcome sequences, the server builds random sub-measurements whose
outcomes are codeword indices: Alice receives an index into a codebook
of x_A sequences, Bob an index into a per-conditioning codebook of x_B
sequences, and both share common randomness with the server (the bin
indices m_A, m_B). The construction here follows the achievability
recipe: compress each post-measurement block state between classical
and quantum typical projectors, average over the conditional codeword
law, cut off small eigenvalues of the average, and rescale the
surviving compressed states into measurement operators.

Everything downstream of the scenario is exact finite-n linear algebra;
no asymptotic limit is taken. Faithfulness is scored by the trace-norm
deviation between the simulated and the reference measurement after
sandwiching by sqrt(rho^n), summed over all outcome sequences.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import (
    EmptySupport,
    NegligibleProbability,
    SizeLimitExceeded,
    SizeMismatch,
)
from .linalg import (
    TAU_PROB,
    TAU_PSD,
    DensityOperator,
    _psd_eigenvalues,
    dimension_cap,
    hermitian_part,
    kron_all,
    # unused here, but perfbench/tracing.py wraps this module attribute
    pinv_sqrt_on_support,  # noqa: F401
    spectral_decompose,
    sqrt_psd,
    tensor_power,
)
from .measurement import (
    SUPPORT_CUTOFF_REL,
    OutcomeFunction,
    Povm,
    born_probabilities,
    coarse_grain,
    conditional_povm,
    post_measurement_state,
    sequential_composition,
)
from .typicality import (
    PrunedDistribution,
    TypicalSet,
    _typical_mask,
    branch_eigensystem,
    build_typical_set,
    conditional_quantum_typical_projector,
    conditional_typical_set,
    prune,
    prune_conditional,
    sample_sequences,
)

__all__ = [
    "ProtocolParams",
    "SingleLetterScenario",
    "prepare_scenario",
    "ConditioningBlock",
    "BlockScenario",
    "build_block_scenario",
    "build_xi_prime",
    "CutoffResult",
    "build_omega_and_cutoff",
    "Codebook",
    "generate_codebook",
    "BobOperatorSet",
    "build_gamma",
    "validate_subpovm",
    "AliceMeasurement",
    "build_alice_measurement",
    "assemble_bob_povm",
    "ProtocolInstance",
    "build_protocol_instance",
    "faithfulness_distance",
    "FaithfulnessReport",
    "instance_report",
    "E0Report",
    "empirical_e0_check",
    "SimulationTranscript",
    "run_protocol_trial",
    "TrialRecord",
    "simulate_trials",
]

# Conditioning symbol used when a pipeline stage has nothing to condition
# on (Alice's side). A one-row conditional law indexed by this symbol
# reproduces the unconditioned marginal machinery.
_FREE = 0


@dataclass(frozen=True)
class ProtocolParams:
    """Block-coding parameters for one protocol build.

    delta controls the typical-set width, delta2 the eigenvalue cutoff
    slack, eps the rescaling margin. s_a/s_b are codewords per bin,
    m_a/m_b the number of common-randomness bins. Case 1 draws s_b_prime
    candidates from the output marginal and keeps the first s_b that are
    conditionally typical; case 2 draws s_b directly from the conditional
    law. Seed feeds a SeedSequence, so any 128-bit int is accepted.
    """

    n: int
    delta: float
    delta2: float
    eps: float
    s_b: int
    m_b: int
    s_a: int = 1
    m_a: int = 1
    s_b_prime: int = 0
    case: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("block length must be at least 1")
        for name in ("delta", "delta2"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.eps < 0:
            raise ValueError("eps must be nonnegative")
        for name in ("s_a", "s_b", "m_a", "m_b"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.case not in (1, 2):
            raise ValueError("case must be 1 or 2")
        if self.case == 1:
            if self.s_b_prime < self.s_b:
                raise ValueError("case 1 needs s_b_prime >= s_b")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


@dataclass(eq=False)
class SingleLetterScenario:
    """One-copy data shared by every block computation.

    p_cond rows belonging to Alice outcomes of negligible probability are
    all zero; the matching entries are absent from post_states, cond_povms
    and hat_states.
    """

    rho: DensityOperator
    povm: Povm
    g_a: OutcomeFunction
    g_b: OutcomeFunction
    alice_povm: Povm
    bob_reference: Povm
    p_a: np.ndarray
    p_b: np.ndarray
    p_cond: np.ndarray
    post_states: dict
    cond_povms: dict
    hat_states: dict
    h_r: float
    h_r_given_xa: float

    @property
    def n_alice(self) -> int:
        return self.g_a.image_size

    @property
    def n_bob(self) -> int:
        return self.g_b.image_size


def prepare_scenario(rho, povm, g_a, g_b) -> SingleLetterScenario:
    """Precompute the single-copy objects the block construction needs."""
    rho = DensityOperator.coerce(rho)
    alice_povm = coarse_grain(povm, g_a)
    bob_reference = sequential_composition(povm, g_a, g_b)
    p_a = born_probabilities(rho, alice_povm)
    p_b = born_probabilities(rho, bob_reference)

    post_states = {}
    cond_povms = {}
    hat_states = {}
    p_cond = np.zeros((g_a.image_size, g_b.image_size))
    for a in range(g_a.image_size):
        if p_a[a] <= TAU_PROB:
            continue
        _, rho_a = post_measurement_state(rho, alice_povm.elements[a])
        post_states[a] = rho_a
        cpov = conditional_povm(povm, g_a, g_b, a)
        cond_povms[a] = cpov
        probs = born_probabilities(rho_a, cpov)
        p_cond[a, :] = probs[: g_b.image_size]
        sqrt_a = sqrt_psd(rho_a.mat)
        for b in range(g_b.image_size):
            if p_cond[a, b] <= TAU_PROB:
                p_cond[a, b] = 0.0
                continue
            hat = sqrt_a @ cpov.elements[b] @ sqrt_a / p_cond[a, b]
            hat_states[(a, b)] = hermitian_part(hat)
        row = p_cond[a, :]
        total = row.sum()
        if total <= 0:
            raise EmptySupport(f"alice outcome {a} has no bob outcome left")
        p_cond[a, :] = row / total

    from .rates import von_neumann_entropy

    h_r = von_neumann_entropy(rho)
    h_r_given_xa = 0.0
    for a, rho_a in post_states.items():
        h_r_given_xa += p_a[a] * von_neumann_entropy(rho_a)

    return SingleLetterScenario(
        rho=rho,
        povm=povm,
        g_a=g_a,
        g_b=g_b,
        alice_povm=alice_povm,
        bob_reference=bob_reference,
        p_a=p_a,
        p_b=p_b,
        p_cond=p_cond,
        post_states=post_states,
        cond_povms=cond_povms,
        hat_states=hat_states,
        h_r=float(h_r),
        h_r_given_xa=float(h_r_given_xa),
    )


def build_xi_prime(pair_eigs, proj_c, delta) -> np.ndarray:
    """Factor F of a compressed block post-measurement state, xi' = F F^dag.

    pair_eigs holds the branch eigensystem of the hat state at each
    position. P_hat and rho_hat^n share their Kronecker eigenbasis, so
    P_hat rho_hat^n P_hat = V_M diag(lambda_M) V_M^dag, where M masks the
    typical branches and lambda is the product of the per-position
    eigenvalues; only the masked columns of V are formed. Returns
    P_C V_M diag(sqrt(lambda_M)). With proj_c None (trivial projectors)
    P_C and P_hat are the identity and every branch with lambda > 0 is
    kept, so F F^dag is rho_hat^n itself.
    """
    values = [w for w, _ in pair_eigs]
    shape = [w.size for w in values]
    if proj_c is None:
        keep = reduce(np.multiply.outer, values).ravel() > 0.0
    else:
        _, keep = _typical_mask(values, delta)
    idx = np.unravel_index(np.flatnonzero(keep), shape)
    lam = np.ones(idx[0].size)
    cols = np.ones((1, idx[0].size), dtype=np.complex128)
    for (w, v), k in zip(pair_eigs, idx):
        lam = lam * w[k]
        rows = cols.shape[0] * v.shape[0]
        cols = (cols[:, None, :] * v[:, k][None, :, :]).reshape(rows, k.size)
    factor = cols * np.sqrt(lam)
    return factor if proj_c is None else proj_c @ factor


# Eigenvalues of the averaged compressed state at or below this fraction
# of the largest are zero. With eps = 0 the cutoff keeps the positive
# spectrum, which without a floor would admit roundoff directions.
CUTOFF_FLOOR_REL = 1e-13


@dataclass(eq=False)
class CutoffResult:
    """Eigenvalue cutoff of the averaged compressed state.

    projector keeps the eigenspaces of xi_bar above threshold; omega is
    the cut average, xi maps each member to the factor P F of its cut
    compressed state P xi' P. empty flags a cutoff that removed
    everything.
    """

    projector: np.ndarray
    omega: np.ndarray
    xi: dict
    threshold: float
    empty: bool


def build_omega_and_cutoff(
    xi_prime_map, probs, n, eps, h_ref_given_cond, delta, *, trivial=False
) -> CutoffResult:
    """Cut eigenvalues of xi_bar below eps * 2^{-n (H + delta)}.

    xi_prime_map maps members to compressed-state factors F_x and probs
    to their weights, so xi_bar = G G^dag with G = [sqrt(p_x) F_x]. The
    eigenproblem is solved on the smaller side: the R x R Gram matrix
    G^dag G when G has fewer columns R than rows, else G G^dag.
    H is the relevant conditional reference entropy. With trivial=True the
    cutoff projector is the identity and nothing is cut (used for exact
    small-case checks); threshold 0 keeps the positive spectrum.
    """
    dim = next(iter(xi_prime_map.values())).shape[0]
    g = np.hstack(
        [math.sqrt(probs[m]) * f for m, f in xi_prime_map.items()]
    )
    if trivial:
        return CutoffResult(
            projector=np.eye(dim),
            omega=hermitian_part(g @ g.conj().T),
            xi=dict(xi_prime_map),
            threshold=float("-inf"),
            empty=False,
        )
    threshold = eps * 2.0 ** (-n * (h_ref_given_cond + delta))
    gram = g.shape[1] < dim
    dec = spectral_decompose(g.conj().T @ g if gram else g @ g.conj().T)
    mu = dec.eigenvalues
    floor = CUTOFF_FLOOR_REL * float(mu[0]) if mu.size else 0.0
    keep = mu > max(threshold, floor, 0.0)
    if gram:
        vecs = (g @ dec.eigenvectors[:, keep]) / np.sqrt(mu[keep])
    else:
        vecs = dec.eigenvectors[:, keep]
    scaled = vecs * np.sqrt(mu[keep])
    return CutoffResult(
        projector=hermitian_part(vecs @ vecs.conj().T),
        omega=hermitian_part(scaled @ scaled.conj().T),
        xi={m: vecs @ (vecs.conj().T @ f) for m, f in xi_prime_map.items()},
        threshold=float(threshold),
        empty=not bool(keep.any()),
    )


@dataclass(eq=False)
class ConditioningBlock:
    """Deterministic per-conditioning-sequence geometry.

    Shared by every trial: the block state along the conditioning, the
    conditional typical set of output sequences with its pruned law, the
    compressed states through the eigenvalue cutoff (cutoff.xi, one
    factor per typical member), and per member the factor w_x with
    rho_cond^{-1/2} xi_x rho_cond^{-1/2} = w_x w_x^dag.
    """

    cond_seq: tuple
    rho_cond_n: np.ndarray
    gamma_factors: dict
    typical: TypicalSet
    pruned: PrunedDistribution
    s_cond: float
    cutoff: CutoffResult


def _pinv_sqrt_product(states, cond_seq):
    """rho_cond^{-1/2} on its support as (basis, diagonal) from the
    single-letter eigensystems; the support cutoff applies to the
    products of the single-letter eigenvalues."""
    decs = {sym: _psd_eigenvalues(states[sym]) for sym in set(cond_seq)}
    values = reduce(
        np.multiply.outer, [decs[sym].eigenvalues for sym in cond_seq]
    ).ravel()
    cut = SUPPORT_CUTOFF_REL * max(float(values.max()), 1.0)
    inv = np.where(
        values > cut, 1.0 / np.sqrt(np.where(values > cut, values, 1.0)), 0.0
    )
    basis = kron_all([decs[sym].eigenvectors for sym in cond_seq])
    return basis, inv


def _build_conditioning_block(
    cond_seq,
    base_states,
    p_cond_rows,
    hat_eigs,
    h_ref_given_cond,
    n,
    delta,
    eps,
    *,
    trivial_projectors=False,
):
    """Assemble one ConditioningBlock. hat_eigs maps each (conditioning,
    output) pair to the branch eigensystem of its hat state. Raises
    EmptySupport when the conditional typical set along cond_seq is
    empty."""
    typical = conditional_typical_set(p_cond_rows, cond_seq, n, delta)
    pruned = prune_conditional(p_cond_rows, cond_seq, typical)

    rho_cond_n = kron_all([base_states[sym] for sym in cond_seq])
    if trivial_projectors:
        proj_c = None
    else:
        proj_c = conditional_quantum_typical_projector(
            {sym: base_states[sym] for sym in set(cond_seq)}, cond_seq, delta
        ).projector

    xi_prime = {}
    for member in typical.members:
        pair_seq = tuple(zip(cond_seq, member))
        for pair in pair_seq:
            if pair not in hat_eigs:
                raise NegligibleProbability(
                    f"typical sequence {member} uses pair {pair} whose "
                    "probability is below tolerance"
                )
        xi_prime[member] = build_xi_prime(
            [hat_eigs[pair] for pair in pair_seq], proj_c, delta
        )

    cutoff = build_omega_and_cutoff(
        xi_prime,
        pruned.probs,
        n,
        eps,
        h_ref_given_cond,
        delta,
        trivial=trivial_projectors,
    )
    basis, inv = _pinv_sqrt_product(base_states, cond_seq)
    gamma_factors = {
        member: basis @ (inv[:, None] * (basis.conj().T @ f))
        for member, f in cutoff.xi.items()
    }
    return ConditioningBlock(
        cond_seq=cond_seq,
        rho_cond_n=rho_cond_n,
        gamma_factors=gamma_factors,
        typical=typical,
        pruned=pruned,
        s_cond=float(typical.total_prob),
        cutoff=cutoff,
    )


@dataclass(eq=False)
class BlockScenario:
    """Everything deterministic about a scenario at block length n.

    Holds the trial-independent geometry: block states, typical sets,
    compressed states and cutoffs for Alice (one free conditioning) and
    for Bob (one block per typical Alice sequence), plus the reference
    measurement operators the faithfulness score compares against.
    Conditioning sequences whose conditional typical set is empty are
    listed in dropped_cond and excluded from the construction.
    """

    single: SingleLetterScenario
    n: int
    delta: float
    eps: float
    trivial_projectors: bool
    rho_n: np.ndarray
    sqrt_rho_n: np.ndarray
    alice_block: ConditioningBlock
    bob_blocks: dict
    dropped_cond: tuple
    bob_marg_typical: TypicalSet
    bob_marg_pruned: PrunedDistribution
    lambda_a_n: dict
    sqrt_lambda_a_n: dict
    lambda_ref_b: dict

    @property
    def alice_sequences(self) -> tuple:
        return self.alice_block.typical.members


def _enumerate_sequences(alphabet_size, n):
    return itertools.product(range(alphabet_size), repeat=n)


def build_block_scenario(
    single: SingleLetterScenario,
    params: ProtocolParams,
    *,
    trivial_projectors=False,
) -> BlockScenario:
    """Build the trial-independent geometry for params.n copies."""
    n = params.n
    delta = params.delta
    eps = params.eps
    dim = single.rho.dim
    if dim**n > dimension_cap():
        raise SizeLimitExceeded(
            f"block dimension {dim}**{n} exceeds cap {dimension_cap()}"
        )
    k_a = single.n_alice
    k_b = single.n_bob
    if k_a**n > dimension_cap() or k_b**n > dimension_cap():
        raise SizeLimitExceeded(
            f"outcome sequence count exceeds cap {dimension_cap()}"
        )

    sqrt_rho = sqrt_psd(single.rho.mat)
    rho_n = tensor_power(single.rho.mat, n)
    sqrt_rho_n = tensor_power(sqrt_rho, n)

    # Alice: the unconditioned pipeline is the conditional one along a
    # single free symbol whose conditional law is the x_A marginal.
    alice_rows = single.p_a.reshape(1, k_a)
    alice_states = {_FREE: single.rho.mat}
    alice_hat = {}
    for a in range(k_a):
        if single.p_a[a] <= TAU_PROB:
            continue
        hat = (
            sqrt_rho
            @ single.alice_povm.elements[a]
            @ sqrt_rho
            / single.p_a[a]
        )
        alice_hat[(_FREE, a)] = branch_eigensystem(hat)
    alice_block = _build_conditioning_block(
        (_FREE,) * n,
        alice_states,
        alice_rows,
        alice_hat,
        single.h_r,
        n,
        delta,
        eps,
        trivial_projectors=trivial_projectors,
    )

    bob_states = {a: st.mat for a, st in single.post_states.items()}
    bob_hat = {
        pair: branch_eigensystem(m) for pair, m in single.hat_states.items()
    }
    bob_blocks = {}
    dropped = []
    for cond_seq in alice_block.typical.members:
        try:
            block = _build_conditioning_block(
                cond_seq,
                bob_states,
                single.p_cond,
                bob_hat,
                single.h_r_given_xa,
                n,
                delta,
                eps,
                trivial_projectors=trivial_projectors,
            )
        except EmptySupport:
            dropped.append(cond_seq)
            continue
        bob_blocks[cond_seq] = block

    bob_marg_typical = build_typical_set(single.p_b, n, delta)
    bob_marg_pruned = prune(single.p_b, bob_marg_typical)

    lambda_a_n = {}
    sqrt_lambda_a_n = {}
    for seq in _enumerate_sequences(k_a, n):
        mat = kron_all([single.alice_povm.elements[a] for a in seq])
        lambda_a_n[seq] = mat
    sqrt_alice = [sqrt_psd(e) for e in single.alice_povm.elements]
    for seq in alice_block.typical.members:
        sqrt_lambda_a_n[seq] = kron_all([sqrt_alice[a] for a in seq])

    lambda_ref_b = {}
    for seq in _enumerate_sequences(k_b, n):
        lambda_ref_b[seq] = kron_all(
            [single.bob_reference.elements[b] for b in seq]
        )

    return BlockScenario(
        single=single,
        n=n,
        delta=delta,
        eps=eps,
        trivial_projectors=trivial_projectors,
        rho_n=rho_n,
        sqrt_rho_n=sqrt_rho_n,
        alice_block=alice_block,
        bob_blocks=bob_blocks,
        dropped_cond=tuple(dropped),
        bob_marg_typical=bob_marg_typical,
        bob_marg_pruned=bob_marg_pruned,
        lambda_a_n=lambda_a_n,
        sqrt_lambda_a_n=sqrt_lambda_a_n,
        lambda_ref_b=lambda_ref_b,
    )


@dataclass(eq=False)
class Codebook:
    """Random codewords plus, in case 1, the selection bookkeeping.

    Case 2 stores size codewords per (conditioning, bin) drawn from the
    conditional law. Case 1 stores size_prime marginal draws per bin and,
    per conditioning, the indices of the first size conditionally typical
    ones; a selection failure (fewer than size found) is flagged.
    """

    case: int
    size: int
    m_count: int
    size_prime: int
    entries: dict
    selection: dict
    failure_flags: dict

    def codewords(self, cond_seq, m):
        """Selected codewords for one (conditioning, bin) cell, in
        codebook order. Case 1 cells that failed selection return the
        partial list."""
        if self.case == 2:
            return self.entries[(cond_seq, m)]
        rows = self.entries[m]
        return tuple(rows[j] for j in self.selection[(cond_seq, m)])

    def selected_index(self, cond_seq, m, j):
        """Map a selected position j to the index in the underlying bin
        list (case 1); identity in case 2."""
        if self.case == 2:
            return j
        return self.selection[(cond_seq, m)][j]

    @property
    def failure_rate(self) -> float:
        if not self.failure_flags:
            return 0.0
        vals = list(self.failure_flags.values())
        return float(sum(bool(v) for v in vals)) / len(vals)


def generate_codebook(
    params: ProtocolParams,
    marginal: PrunedDistribution,
    conditionals: dict,
    rng,
    *,
    size=None,
    m_count=None,
    size_prime=None,
    case=None,
) -> Codebook:
    """Draw the codebook for one trial.

    conditionals maps each conditioning sequence to the pruned
    conditional law codewords must follow. Case 1 also needs the pruned
    output marginal. Conditioning sequences are visited in sorted order
    so the RNG stream is reproducible.
    """
    case = params.case if case is None else case
    size = params.s_b if size is None else size
    m_count = params.m_b if m_count is None else m_count
    size_prime = params.s_b_prime if size_prime is None else size_prime

    entries = {}
    selection = {}
    failure = {}
    cond_keys = sorted(conditionals.keys())
    if case == 2:
        for cond_seq in cond_keys:
            law = conditionals[cond_seq]
            for m in range(m_count):
                entries[(cond_seq, m)] = tuple(sample_sequences(law, rng, size))
        return Codebook(
            case=2,
            size=size,
            m_count=m_count,
            size_prime=0,
            entries=entries,
            selection=selection,
            failure_flags=failure,
        )

    if marginal is None:
        raise SizeMismatch("case 1 needs a pruned output marginal")
    for m in range(m_count):
        entries[m] = tuple(sample_sequences(marginal, rng, size_prime))
    member_sets = {
        cond_seq: frozenset(conditionals[cond_seq].base.members)
        for cond_seq in cond_keys
    }
    for cond_seq in cond_keys:
        allowed = member_sets[cond_seq]
        for m in range(m_count):
            picked = []
            for j, seq in enumerate(entries[m]):
                if seq in allowed:
                    picked.append(j)
                    if len(picked) == size:
                        break
            selection[(cond_seq, m)] = tuple(picked)
            failure[(cond_seq, m)] = len(picked) < size
    return Codebook(
        case=1,
        size=size,
        m_count=m_count,
        size_prime=size_prime,
        entries=entries,
        selection=selection,
        failure_flags=failure,
    )


@dataclass(eq=False)
class BobOperatorSet:
    """Realized measurement operators for one conditioning sequence.

    gamma maps (j, m) to the rescaled compressed state of the codeword
    at position j of bin m. Bins whose operator sum leaks above the
    identity, or whose case-1 selection failed, fall back to the trivial
    single-outcome measurement and are flagged here.
    """

    block: ConditioningBlock
    gamma: dict
    bin_sums: dict
    is_valid_subpovm: dict
    fallback_applied: dict

    @property
    def cond_seq(self):
        return self.block.cond_seq

    @property
    def fallback_rate(self) -> float:
        if not self.fallback_applied:
            return 0.0
        vals = list(self.fallback_applied.values())
        return float(sum(bool(v) for v in vals)) / len(vals)


def build_gamma(
    block: ConditioningBlock,
    codebook: Codebook,
    *,
    size,
    m_count,
    eps,
) -> BobOperatorSet:
    """Rescale the cut compressed states of the drawn codewords.

    Each operator gets weight s_cond / ((1 + eps) * size * m_count); the
    sum over a bin then concentrates near identity/ (m_count) on the cut
    support when the codebook is large enough.
    """
    factor = block.s_cond / ((1.0 + eps) * size * m_count)
    gamma = {}
    bin_sums = {}
    dim = block.rho_cond_n.shape[0]
    for m in range(m_count):
        words = codebook.codewords(block.cond_seq, m)
        total = np.zeros((dim, dim), dtype=np.complex128)
        for j, seq in enumerate(words):
            w = block.gamma_factors.get(seq)
            if w is None:
                raise SizeMismatch(
                    f"codeword {seq} is outside the conditional typical set "
                    f"of {block.cond_seq}"
                )
            op = hermitian_part(factor * (w @ w.conj().T))
            gamma[(j, m)] = op
            total = total + op
        bin_sums[m] = hermitian_part(total)
    return BobOperatorSet(
        block=block,
        gamma=gamma,
        bin_sums=bin_sums,
        is_valid_subpovm={},
        fallback_applied={},
    )


def validate_subpovm(
    opset: BobOperatorSet, codebook: Codebook, *, tol=TAU_PSD
) -> BobOperatorSet:
    """Check each bin sums below the identity; mark fallbacks.

    A bin falls back when its operators leak above identity by more than
    tol, or when its case-1 codeword selection failed. Fallback bins are
    served by the trivial measurement {I} downstream, so their gamma
    entries are ignored there.
    """
    for m in range(codebook.m_count):
        total = opset.bin_sums.get(m)
        if total is None or not opset.gamma:
            top = 0.0
        else:
            top = float(np.linalg.eigvalsh(total)[-1])
        valid = top <= 1.0 + tol
        failed = bool(
            codebook.failure_flags.get((opset.cond_seq, m), False)
        )
        opset.is_valid_subpovm[m] = valid
        opset.fallback_applied[m] = (not valid) or failed
    return opset


@dataclass(eq=False)
class AliceMeasurement:
    """Alice's randomized block measurement for one trial.

    upsilon maps (j, m) to the operator answering codeword j of bin m;
    lambda_tilde collects them per produced sequence across non-fallback
    bins. With a single Alice outcome letter the construction collapses
    and upsilon is exactly I / m_count per bin (trivial=True).
    """

    opset: BobOperatorSet
    codebook: Codebook
    upsilon: dict
    lambda_tilde: dict
    sqrt_lambda_tilde: dict
    p_hat: dict
    trivial: bool

    @property
    def fallback_rate(self) -> float:
        return self.opset.fallback_rate


def build_alice_measurement(
    block: BlockScenario, params: ProtocolParams, rng
) -> AliceMeasurement:
    """Draw Alice's codebook and build her operator family.

    Alice always uses the direct conditional-style draw (her law is the
    plain x_A^n typical marginal), regardless of params.case, since she
    has no conditioning to respect.
    """
    n = block.n
    ab = block.alice_block
    cond_key = ab.cond_seq
    codebook = generate_codebook(
        params,
        None,
        {cond_key: ab.pruned},
        rng,
        size=params.s_a,
        m_count=params.m_a,
        case=2,
    )

    single = block.single
    trivial = single.n_alice == 1
    if trivial:
        dim = block.rho_n.shape[0]
        eye = np.eye(dim)
        opset = BobOperatorSet(
            block=ab,
            gamma={},
            bin_sums={},
            is_valid_subpovm={},
            fallback_applied={},
        )
        upsilon = {}
        only_seq = (0,) * n
        for m in range(params.m_a):
            for j in range(params.s_a):
                upsilon[(j, m)] = eye / (params.m_a * params.s_a)
            opset.is_valid_subpovm[m] = True
            opset.fallback_applied[m] = False
        lambda_tilde = {only_seq: eye}
        sqrt_lambda_tilde = {only_seq: eye}
        p_hat = {only_seq: float(np.trace(block.rho_n).real)}
        return AliceMeasurement(
            opset=opset,
            codebook=codebook,
            upsilon=upsilon,
            lambda_tilde=lambda_tilde,
            sqrt_lambda_tilde=sqrt_lambda_tilde,
            p_hat=p_hat,
            trivial=True,
        )

    opset = build_gamma(
        ab, codebook, size=params.s_a, m_count=params.m_a, eps=params.eps
    )
    validate_subpovm(opset, codebook)

    upsilon = {}
    lambda_tilde = {}
    dim = block.rho_n.shape[0]
    for m in range(params.m_a):
        if opset.fallback_applied[m]:
            continue
        words = codebook.codewords(cond_key, m)
        for j, seq in enumerate(words):
            op = opset.gamma[(j, m)]
            upsilon[(j, m)] = op
            if seq in lambda_tilde:
                lambda_tilde[seq] = lambda_tilde[seq] + op
            else:
                lambda_tilde[seq] = np.array(op)
    sqrt_lambda_tilde = {
        seq: sqrt_psd(hermitian_part(mat)) for seq, mat in lambda_tilde.items()
    }
    p_hat = {
        seq: float(np.trace(mat @ block.rho_n).real)
        for seq, mat in lambda_tilde.items()
    }
    return AliceMeasurement(
        opset=opset,
        codebook=codebook,
        upsilon=upsilon,
        lambda_tilde=lambda_tilde,
        sqrt_lambda_tilde=sqrt_lambda_tilde,
        p_hat=p_hat,
        trivial=trivial,
    )


def assemble_bob_povm(
    block: BlockScenario,
    alice: AliceMeasurement,
    bob_sets: dict,
    codebook: Codebook,
):
    """Combine the per-conditioning operators into Bob's block elements.

    Returns (lambda_tilde_b, lambda_prime_b): the simulated elements,
    sandwiched by the square roots of Alice's realized operators, and the
    intermediate variant sandwiched by the true sqrt(Lambda_{x_A^n}) over
    every typical conditioning, which isolates the Bob-codebook error.
    Fallback bins contribute nothing to either. Keys run over all x_B^n.
    """
    n = block.n
    k_b = block.single.n_bob
    dim = block.rho_n.shape[0]
    zeros = lambda: np.zeros((dim, dim), dtype=np.complex128)
    lambda_tilde_b = {seq: zeros() for seq in _enumerate_sequences(k_b, n)}
    lambda_prime_b = {seq: zeros() for seq in _enumerate_sequences(k_b, n)}

    for cond_seq, opset in bob_sets.items():
        # Operators for equal codewords are equal, so each class sum is
        # multiplicity times one representative; grouped scaling keeps
        # the sum independent of how draws are spread over the bins.
        counts = {}
        rep = {}
        for m in range(codebook.m_count):
            if opset.fallback_applied[m]:
                continue
            words = codebook.codewords(cond_seq, m)
            for j, seq in enumerate(words):
                if seq in counts:
                    counts[seq] += 1
                else:
                    counts[seq] = 1
                    rep[seq] = opset.gamma[(j, m)]
        if not counts:
            continue
        sqrt_true = block.sqrt_lambda_a_n[cond_seq]
        sqrt_alice = alice.sqrt_lambda_tilde.get(cond_seq)
        for seq, count in counts.items():
            mat = count * rep[seq] if count > 1 else rep[seq]
            lambda_prime_b[seq] = lambda_prime_b[seq] + hermitian_part(
                sqrt_true @ mat @ sqrt_true
            )
            if sqrt_alice is not None:
                lambda_tilde_b[seq] = lambda_tilde_b[seq] + hermitian_part(
                    sqrt_alice @ mat @ sqrt_alice
                )
    return lambda_tilde_b, lambda_prime_b


@dataclass(eq=False)
class ProtocolInstance:
    """One realized protocol: codebooks drawn, operators built."""

    block: BlockScenario
    params: ProtocolParams
    mode: str
    alice: AliceMeasurement
    bob_codebook: Codebook
    bob_sets: dict
    lambda_tilde_b: dict
    lambda_prime_b: dict
    trial_seed: np.random.SeedSequence

    @property
    def subpovm_failure_rate(self) -> float:
        flags = []
        for opset in self.bob_sets.values():
            flags.extend(
                not v for v in opset.is_valid_subpovm.values()
            )
        if not flags:
            return 0.0
        return float(sum(flags)) / len(flags)

    @property
    def fallback_rate(self) -> float:
        flags = []
        for opset in self.bob_sets.values():
            flags.extend(bool(v) for v in opset.fallback_applied.values())
        if not flags:
            return 0.0
        return float(sum(flags)) / len(flags)

    @property
    def ec_rate(self) -> float:
        return self.bob_codebook.failure_rate


MODES = ("with_alice_randomness", "without_alice_randomness")


def build_protocol_instance(
    block: BlockScenario,
    params: ProtocolParams,
    mode="with_alice_randomness",
    seed_seq=None,
) -> ProtocolInstance:
    """Draw both codebooks and realize every operator for one trial."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if mode == "without_alice_randomness" and params.case == 2:
        raise ValueError(
            "running without Alice's randomness requires the case 1 codebook"
        )
    if seed_seq is None:
        seed_seq = np.random.SeedSequence(params.seed)
    alice_ss, bob_ss, trial_ss = seed_seq.spawn(3)

    alice = build_alice_measurement(
        block, params, np.random.default_rng(alice_ss)
    )
    conditionals = {
        cond_seq: blk.pruned for cond_seq, blk in block.bob_blocks.items()
    }
    bob_codebook = generate_codebook(
        params,
        block.bob_marg_pruned,
        conditionals,
        np.random.default_rng(bob_ss),
    )
    bob_sets = {}
    for cond_seq, blk in block.bob_blocks.items():
        opset = build_gamma(
            blk,
            bob_codebook,
            size=params.s_b,
            m_count=params.m_b,
            eps=params.eps,
        )
        validate_subpovm(opset, bob_codebook)
        bob_sets[cond_seq] = opset

    lambda_tilde_b, lambda_prime_b = assemble_bob_povm(
        block, alice, bob_sets, bob_codebook
    )
    return ProtocolInstance(
        block=block,
        params=params,
        mode=mode,
        alice=alice,
        bob_codebook=bob_codebook,
        bob_sets=bob_sets,
        lambda_tilde_b=lambda_tilde_b,
        lambda_prime_b=lambda_prime_b,
        trial_seed=trial_ss,
    )


def faithfulness_distance(reference, approx, rho_n, *, sqrt_rho=None):
    """Trace-norm deviation of a simulated measurement from a reference.

    Both arguments map outcome sequences to operators; missing keys count
    as zero. Returns sum_x || sqrt(rho_n) (approx_x - ref_x) sqrt(rho_n) ||_1.
    """
    if sqrt_rho is None:
        sqrt_rho = sqrt_psd(np.asarray(rho_n))
    keys = set(reference) | set(approx)
    dim = sqrt_rho.shape[0]
    zero = np.zeros((dim, dim))
    total = 0.0
    for key in keys:
        ref = reference.get(key, zero)
        app = approx.get(key, zero)
        diff = sqrt_rho @ (np.asarray(app) - np.asarray(ref)) @ sqrt_rho
        sing = np.linalg.svd(diff, compute_uv=False)
        total += float(sing.sum())
    return total


def _split_faithfulness(block: BlockScenario, instance: ProtocolInstance):
    """Break the Bob deviation into atypical mass, codebook error on
    typical sequences, and the Alice-operator substitution error."""
    sqrt_rho = block.sqrt_rho_n
    typical = block.bob_marg_typical
    members = set(typical.members)

    ref_typ = {k: v for k, v in block.lambda_ref_b.items() if k in members}
    ref_atyp = {
        k: v for k, v in block.lambda_ref_b.items() if k not in members
    }
    prime_typ = {
        k: v for k, v in instance.lambda_prime_b.items() if k in members
    }
    tilde_typ = {
        k: v for k, v in instance.lambda_tilde_b.items() if k in members
    }
    tilde_atyp = {
        k: v for k, v in instance.lambda_tilde_b.items() if k not in members
    }

    atypical = faithfulness_distance(ref_atyp, tilde_atyp, None, sqrt_rho=sqrt_rho)
    d2 = faithfulness_distance(ref_typ, prime_typ, None, sqrt_rho=sqrt_rho)
    d3 = faithfulness_distance(prime_typ, tilde_typ, None, sqrt_rho=sqrt_rho)
    return atypical, d2, d3


@dataclass(frozen=True)
class FaithfulnessReport:
    """Scores for one realized protocol."""

    d_bob: float
    d_alice: float
    atypical: float
    d2: float
    d3: float
    subpovm_failure_rate: float
    fallback_rate: float
    ec_rate: float
    e0_ok: bool
    e0_violation: float


@dataclass(frozen=True)
class E0Report:
    """Empirical occupancy check of the codeword law.

    ok means every conditional typical sequence's empirical frequency
    across the realized codebook sits inside the (1 +- eps) band around
    its pruned probability. violation is the worst relative deviation.
    """

    eps: float
    ok: bool
    violation: float
    draw_counts: dict


def empirical_e0_check(
    codebook: Codebook, conditionals: dict, eps: float
) -> E0Report:
    """Frequency-band check of realized codewords against the pruned law."""
    ok = True
    worst = 0.0
    draw_counts = {}
    for cond_seq in sorted(conditionals.keys()):
        law = conditionals[cond_seq]
        draws = []
        if codebook.case == 2:
            for m in range(codebook.m_count):
                draws.extend(codebook.entries[(cond_seq, m)])
        else:
            for m in range(codebook.m_count):
                if codebook.failure_flags.get((cond_seq, m), False):
                    continue
                draws.extend(codebook.codewords(cond_seq, m))
        counts = {}
        for seq in draws:
            counts[seq] = counts.get(seq, 0) + 1
        total = len(draws)
        draw_counts[cond_seq] = total
        if total == 0:
            ok = False
            worst = float("inf")
            continue
        for seq in law.support():
            p = law.prob(seq)
            freq = counts.get(seq, 0) / total
            rel = abs(freq / p - 1.0)
            worst = max(worst, rel)
            if not ((1.0 - eps) * p <= freq <= (1.0 + eps) * p):
                ok = False
    return E0Report(eps=eps, ok=ok, violation=worst, draw_counts=draw_counts)


def instance_report(instance: ProtocolInstance) -> FaithfulnessReport:
    """Score a realized protocol against the reference measurements."""
    block = instance.block
    d_bob = faithfulness_distance(
        block.lambda_ref_b,
        instance.lambda_tilde_b,
        None,
        sqrt_rho=block.sqrt_rho_n,
    )
    d_alice = faithfulness_distance(
        block.lambda_a_n,
        instance.alice.lambda_tilde,
        None,
        sqrt_rho=block.sqrt_rho_n,
    )
    atypical, d2, d3 = _split_faithfulness(block, instance)
    conditionals = {
        cond_seq: blk.pruned for cond_seq, blk in block.bob_blocks.items()
    }
    e0 = empirical_e0_check(
        instance.bob_codebook, conditionals, instance.params.eps
    )
    return FaithfulnessReport(
        d_bob=float(d_bob),
        d_alice=float(d_alice),
        atypical=float(atypical),
        d2=float(d2),
        d3=float(d3),
        subpovm_failure_rate=instance.subpovm_failure_rate,
        fallback_rate=instance.fallback_rate,
        ec_rate=instance.ec_rate,
        e0_ok=e0.ok,
        e0_violation=float(e0.violation),
    )


@dataclass(frozen=True)
class SimulationTranscript:
    """One sampled run of a realized protocol.

    bits_to_alice / bits_to_bob are the per-copy classical rates actually
    spent on the message indices. degenerate runs (fallback bin, garbage
    outcome, conditioning outside the construction) are flagged with a
    reason and carry no outputs.
    """

    m_a: int
    m_b: int
    j_a: int
    j_b: int
    alice_output: tuple
    bob_output: tuple
    bits_to_alice: float
    bits_to_bob: float
    degenerate: bool
    reason: str


def _sample_index(weights, residual, rng):
    """Pick an index by cumulative inversion; len(weights) means the
    residual (garbage) slot."""
    w = np.asarray(weights, dtype=np.float64)
    w = np.clip(w, 0.0, None)
    cum = np.cumsum(np.append(w, max(residual, 0.0)))
    total = cum[-1]
    if total <= 0:
        return len(weights)
    u = rng.random() * total
    idx = int(np.searchsorted(cum, u, side="right"))
    return min(idx, len(weights))


def run_protocol_trial(instance: ProtocolInstance, rng) -> SimulationTranscript:
    """Sample common randomness, Alice's index, then Bob's index.

    The server applies Alice's operator for the shared bin m_A, collapses
    the block state, then applies Bob's operators for bin m_B conditioned
    on Alice's produced sequence.
    """
    params = instance.params
    block = instance.block
    n = block.n
    bits_a = math.log2(params.s_a) / n
    if instance.mode == "with_alice_randomness":
        bits_b = math.log2(params.s_b) / n
    else:
        bits_b = math.log2(max(params.s_b_prime, 1)) / n

    def degenerate(reason, m_a=-1, m_b=-1, j_a=-1, j_b=-1):
        return SimulationTranscript(
            m_a=m_a,
            m_b=m_b,
            j_a=j_a,
            j_b=j_b,
            alice_output=(),
            bob_output=(),
            bits_to_alice=bits_a,
            bits_to_bob=bits_b,
            degenerate=True,
            reason=reason,
        )

    m_a = int(rng.integers(params.m_a))
    m_b = int(rng.integers(params.m_b))

    alice = instance.alice
    if not alice.trivial and alice.opset.fallback_applied.get(m_a, False):
        return degenerate("alice_fallback", m_a=m_a, m_b=m_b)

    # The operator families carry a 1/m_count normalization so that the
    # sum over every bin is the simulated POVM; for a fixed shared bin the
    # server measures the m_count-fold rescaling, whose bin sum is near
    # identity.
    words_a = alice.codebook.codewords(block.alice_block.cond_seq, m_a)
    ops = [alice.upsilon[(j, m_a)] for j in range(len(words_a))]
    weights = [
        params.m_a * float(np.trace(op @ block.rho_n).real) for op in ops
    ]
    residual = 1.0 - sum(weights)
    j_a = _sample_index(weights, residual, rng)
    if j_a >= len(words_a):
        return degenerate("alice_garbage", m_a=m_a, m_b=m_b)
    alice_seq = words_a[j_a]

    op = ops[j_a]
    p_a = weights[j_a]
    if p_a <= TAU_PROB:
        return degenerate("alice_garbage", m_a=m_a, m_b=m_b, j_a=j_a)
    # collapse by the physical operator; its scale cancels in the quotient
    sqrt_op = sqrt_psd(hermitian_part(op))
    post = hermitian_part(sqrt_op @ block.rho_n @ sqrt_op)
    post = post / float(np.trace(post).real)

    opset = instance.bob_sets.get(alice_seq)
    if opset is None:
        return degenerate("empty_conditional", m_a=m_a, m_b=m_b, j_a=j_a)
    if opset.fallback_applied.get(m_b, False):
        return degenerate("bob_fallback", m_a=m_a, m_b=m_b, j_a=j_a)

    words_b = instance.bob_codebook.codewords(alice_seq, m_b)
    ops_b = [opset.gamma[(j, m_b)] for j in range(len(words_b))]
    weights_b = [
        params.m_b * float(np.trace(op @ post).real) for op in ops_b
    ]
    residual_b = 1.0 - sum(weights_b)
    j_pos = _sample_index(weights_b, residual_b, rng)
    if j_pos >= len(words_b):
        return degenerate("bob_garbage", m_a=m_a, m_b=m_b, j_a=j_a)
    bob_seq = words_b[j_pos]
    if instance.mode == "with_alice_randomness":
        j_b = j_pos
    else:
        j_b = instance.bob_codebook.selected_index(alice_seq, m_b, j_pos)
    return SimulationTranscript(
        m_a=m_a,
        m_b=m_b,
        j_a=j_a,
        j_b=j_b,
        alice_output=alice_seq,
        bob_output=bob_seq,
        bits_to_alice=bits_a,
        bits_to_bob=bits_b,
        degenerate=False,
        reason="",
    )


@dataclass(frozen=True)
class TrialRecord:
    """Per-trial result row produced by simulate_trials."""

    index: int
    report: FaithfulnessReport
    transcript: SimulationTranscript


def simulate_trials(
    single: SingleLetterScenario,
    params: ProtocolParams,
    mode="with_alice_randomness",
    trials=1,
    *,
    block: BlockScenario = None,
    workers=1,
) -> list:
    """Run independent trials and return records ordered by index.

    Each trial draws fresh codebooks from its own spawned seed stream, so
    results are reproducible and independent of worker count.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if block is None:
        block = build_block_scenario(single, params)
    root = np.random.SeedSequence(params.seed)
    children = root.spawn(trials)

    def one(i):
        instance = build_protocol_instance(
            block, params, mode=mode, seed_seq=children[i]
        )
        report = instance_report(instance)
        transcript = run_protocol_trial(
            instance, np.random.default_rng(instance.trial_seed)
        )
        return TrialRecord(index=i, report=report, transcript=transcript)

    if workers <= 1 or trials == 1:
        return [one(i) for i in range(trials)]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        records = list(pool.map(one, range(trials)))
    return sorted(records, key=lambda r: r.index)

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
from dataclasses import dataclass, replace
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
    # unused here, but perfbench/tracing.py wraps these module attributes
    kron_all,  # noqa: F401
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
    # unused here, but perfbench/tracing.py wraps this module attribute
    conditional_quantum_typical_projector,  # noqa: F401
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
    all zero; the matching entries are absent from post_states and
    hat_states.
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
    hat_states = {}
    p_cond = np.zeros((g_a.image_size, g_b.image_size))
    for a in range(g_a.image_size):
        if p_a[a] <= TAU_PROB:
            continue
        _, rho_a = post_measurement_state(rho, alice_povm.elements[a])
        post_states[a] = rho_a
        cpov = conditional_povm(povm, g_a, g_b, a)
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
        hat_states=hat_states,
        h_r=float(h_r),
        h_r_given_xa=float(h_r_given_xa),
    )


def _kron(a, b) -> np.ndarray:
    """a (x) b as one broadcast product; np.kron costs several times more
    at the sizes a trial scores."""
    (p, q), (r, s) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(p * r, q * s)


@dataclass(frozen=True, eq=False)
class _Kron:
    """The Kronecker product left (x) right of two half-products.

    Applied to a factor G as two matmuls: (A (x) B) G reshapes G to
    (a, b K), multiplies by A, then multiplies each of the a row blocks
    by B. No matrix of the product's size is formed.
    """

    left: np.ndarray
    right: np.ndarray

    def __matmul__(self, g) -> np.ndarray:
        (a, a_in), (b, b_in) = self.left.shape, self.right.shape
        k = g.shape[1]
        t = (self.left @ g.reshape(a_in, b_in * k)).reshape(a, b_in, k)
        return (self.right @ t).reshape(a * b, k)

    @property
    def H(self) -> "_Kron":
        return _Kron(self.left.conj().T, self.right.conj().T)

    def dense(self) -> np.ndarray:
        """The product as one matrix, for a thin factor that is scored."""
        return _kron(self.left, self.right)


def _kron_halves(mats, seq, memo) -> _Kron:
    """mats[s_1] (x) ... (x) mats[s_n] over seq, split at h = n // 2; the
    matrices may be rectangular, and an empty half is the 1 x 1 identity.
    Each half-product is formed once per half-sequence and shared through
    memo, so a table over many sequences holds only small matrices."""
    h = len(seq) // 2
    halves = []
    for part in (tuple(seq[:h]), tuple(seq[h:])):
        if part not in memo:
            memo[part] = reduce(_kron, [mats[s] for s in part], np.ones((1, 1)))
        halves.append(memo[part])
    return _Kron(*halves)


def _in_basis(basis: _Kron, diag, g) -> np.ndarray:
    """basis diag(diag) basis^dag g."""
    return basis @ (diag[:, None] * (basis.H @ g))


def _batched(apply, factors: dict) -> dict:
    """apply run once on the hstack of every factor, split back per key."""
    out = apply(np.concatenate(list(factors.values()), axis=1))
    split = {}
    start = 0
    for key, f in factors.items():
        split[key] = out[:, start : start + f.shape[1]]
        start += f.shape[1]
    return split


def build_xi_prime(pair_eigs, delta) -> np.ndarray:
    """Factor F of P_hat rho_hat^n P_hat, the block post-measurement state
    compressed by its own typical projector; P_C is applied by the
    caller, batched over a block's members.

    pair_eigs holds the branch eigensystem of the hat state at each
    position. P_hat and rho_hat^n share their Kronecker eigenbasis, so
    P_hat rho_hat^n P_hat = V_M diag(lambda_M) V_M^dag, where M masks the
    typical branches and lambda is the product of the per-position
    eigenvalues; only the masked columns of V are formed. Returns
    V_M diag(sqrt(lambda_M)). With delta None (trivial projectors) P_hat
    is the identity and every branch with lambda > 0 is kept, so F F^dag
    is rho_hat^n itself.
    """
    values = [w for w, _ in pair_eigs]
    shape = [w.size for w in values]
    if delta is None:
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
    return cols * np.sqrt(lam)


# Eigenvalues of the averaged compressed state at or below this fraction
# of the largest are zero. With eps = 0 the cutoff keeps the positive
# spectrum, which without a floor would admit roundoff directions.
CUTOFF_FLOOR_REL = 1e-13


@dataclass(eq=False)
class CutoffResult:
    """Eigenvalue cutoff of the averaged compressed state, as factors.

    basis (D x r) spans the eigenspaces of xi_bar above threshold, so the
    cutoff projector is basis basis^dag; the cut average omega is
    weighted weighted^dag. xi maps each member to the factor P F of its
    cut compressed state P xi' P.
    """

    basis: np.ndarray
    weighted: np.ndarray
    xi: dict
    threshold: float

    @property
    def projector(self) -> np.ndarray:
        return hermitian_part(self.basis @ self.basis.conj().T)

    @property
    def omega(self) -> np.ndarray:
        return hermitian_part(self.weighted @ self.weighted.conj().T)

    @property
    def empty(self) -> bool:
        """True when the cutoff removed everything."""
        return self.basis.shape[1] == 0


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
            basis=np.eye(dim),
            weighted=g,
            xi=dict(xi_prime_map),
            threshold=float("-inf"),
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
        basis=vecs,
        weighted=scaled,
        xi=_batched(lambda g: vecs @ (vecs.conj().T @ g), xi_prime_map),
        threshold=float(threshold),
    )


@dataclass(eq=False)
class ConditioningBlock:
    """Deterministic per-conditioning-sequence geometry.

    Shared by every trial: the conditional typical set of output
    sequences along the conditioning with its pruned law, the
    compressed states through the eigenvalue cutoff (cutoff.xi, one
    factor per typical member), and per member the factor w_x with
    rho_cond^{-1/2} xi_x rho_cond^{-1/2} = w_x w_x^dag.
    """

    cond_seq: tuple
    gamma_factors: dict
    typical: TypicalSet
    pruned: PrunedDistribution
    s_cond: float
    cutoff: CutoffResult


class _ProductEigs:
    """Eigensystems of the single-letter conditioning states, computed once
    per scenario. A product state along a conditioning sequence has the
    Kronecker product of their eigenvectors as its eigenbasis, formed as
    half-products shared by every block through memo."""

    def __init__(self, states):
        decs = {sym: _psd_eigenvalues(m) for sym, m in states.items()}
        self.values = {sym: d.eigenvalues for sym, d in decs.items()}
        self.vectors = {sym: d.eigenvectors for sym, d in decs.items()}
        self.memo = {}

    def eigenvalues(self, cond_seq) -> list:
        return [self.values[sym] for sym in cond_seq]

    def basis(self, cond_seq) -> _Kron:
        return _kron_halves(self.vectors, cond_seq, self.memo)


def _pinv_sqrt_product(eigs: _ProductEigs, cond_seq) -> np.ndarray:
    """rho_cond^{-1/2} on its support, as its diagonal in the Kronecker
    eigenbasis; the support cutoff applies to the products of the
    single-letter eigenvalues."""
    values = reduce(np.multiply.outer, eigs.eigenvalues(cond_seq)).ravel()
    cut = SUPPORT_CUTOFF_REL * max(float(values.max()), 1.0)
    return np.where(
        values > cut, 1.0 / np.sqrt(np.where(values > cut, values, 1.0)), 0.0
    )


def _build_conditioning_block(
    cond_seq,
    eigs,
    p_cond_rows,
    hat_eigs,
    h_ref_given_cond,
    n,
    delta,
    eps,
    *,
    trivial_projectors=False,
):
    """Assemble one ConditioningBlock. eigs holds the eigensystems of the
    conditioning states, hat_eigs maps each (conditioning, output) pair
    to the branch eigensystem of its hat state. The product state along
    cond_seq has eigenbasis B, so P_C = B diag(m) B^dag, m masking its
    typical branches, and rho_cond^{-1/2} = B diag(inv) B^dag. Both are
    applied to the stacked factors of all members at once, B as
    Kronecker half-products. Raises EmptySupport when the conditional
    typical set along cond_seq is empty."""
    typical = conditional_typical_set(p_cond_rows, cond_seq, n, delta)
    pruned = prune_conditional(p_cond_rows, cond_seq, typical)

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
            [hat_eigs[pair] for pair in pair_seq],
            None if trivial_projectors else delta,
        )
    basis = eigs.basis(cond_seq)
    if not trivial_projectors:
        _, mask = _typical_mask(eigs.eigenvalues(cond_seq), delta)
        xi_prime = _batched(lambda g: _in_basis(basis, mask, g), xi_prime)

    cutoff = build_omega_and_cutoff(
        xi_prime,
        pruned.probs,
        n,
        eps,
        h_ref_given_cond,
        delta,
        trivial=trivial_projectors,
    )
    inv = _pinv_sqrt_product(eigs, cond_seq)
    return ConditioningBlock(
        cond_seq=cond_seq,
        gamma_factors=_batched(lambda g: _in_basis(basis, inv, g), cutoff.xi),
        typical=typical,
        pruned=pruned,
        s_cond=float(typical.total_prob),
        cutoff=cutoff,
    )


def _psd_factor(a) -> np.ndarray:
    """Factor F of a PSD operator, a = F F^dag, one column per eigenvalue
    above max(shape) * machine eps * the largest (roundoff counts as
    zero)."""
    dec = _psd_eigenvalues(a)
    w = dec.eigenvalues
    keep = w > max(w.shape) * np.finfo(float).eps * w.max(initial=0.0)
    return dec.eigenvectors[:, keep] * np.sqrt(w[keep])


@dataclass(eq=False)
class BlockScenario:
    """Everything deterministic about a scenario at block length n.

    Holds the trial-independent geometry: block states, typical sets,
    compressed states and cutoffs for Alice (one free conditioning) and
    for Bob (one block per typical Alice sequence), plus the reference
    measurement operators for the sequences a codebook can draw (typical
    members). A reference Lambda_x is held by its factor, the Kronecker
    product of single-letter factors (D x prod_i r_i), and
    sqrt_lambda_a_n by sqrt(Lambda_x); both as two Kronecker
    half-products shared between sequences with a common half.
    Conditioning sequences whose conditional typical set is empty are
    listed in dropped_cond and excluded from the construction.
    """

    single: SingleLetterScenario
    n: int
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
        _ProductEigs({_FREE: single.rho.mat}),
        alice_rows,
        alice_hat,
        single.h_r,
        n,
        delta,
        eps,
        trivial_projectors=trivial_projectors,
    )

    bob_eigs = _ProductEigs({a: st.mat for a, st in single.post_states.items()})
    bob_hat = {
        pair: branch_eigensystem(m) for pair, m in single.hat_states.items()
    }
    bob_blocks = {}
    dropped = []
    for cond_seq in alice_block.typical.members:
        try:
            block = _build_conditioning_block(
                cond_seq,
                bob_eigs,
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

    alice_elems = single.alice_povm.elements
    alice_factors = [_psd_factor(e) for e in alice_elems]
    sqrt_alice = [sqrt_psd(e) for e in alice_elems]
    factor_memo, sqrt_memo = {}, {}
    lambda_a_n = {}
    sqrt_lambda_a_n = {}
    for seq in alice_block.typical.members:
        lambda_a_n[seq] = _kron_halves(alice_factors, seq, factor_memo)
        sqrt_lambda_a_n[seq] = _kron_halves(sqrt_alice, seq, sqrt_memo)

    bob_factors = [_psd_factor(e) for e in single.bob_reference.elements]
    bob_memo = {}
    lambda_ref_b = {}
    for blk in bob_blocks.values():
        for seq in blk.typical.members:
            if seq not in lambda_ref_b:
                lambda_ref_b[seq] = _kron_halves(bob_factors, seq, bob_memo)

    return BlockScenario(
        single=single,
        n=n,
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


def _share(flags) -> float:
    """Fraction of true flags; 0 when there are none."""
    flags = [bool(v) for v in flags]
    return float(sum(flags)) / len(flags) if flags else 0.0


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
        return _share(self.failure_flags.values())


def generate_codebook(
    params: ProtocolParams,
    marginal: PrunedDistribution,
    conditionals: dict,
    rng,
    *,
    size=None,
    m_count=None,
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
        entries[m] = tuple(sample_sequences(marginal, rng, params.s_b_prime))
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
        size_prime=params.s_b_prime,
        entries=entries,
        selection=selection,
        failure_flags=failure,
    )


@dataclass(eq=False)
class BobOperatorSet:
    """Realized measurement operators for one conditioning sequence.

    The operator of a codeword x is scale * w_x w_x^dag, w_x being
    block.gamma_factors[x], so a trial is carried as counts: gamma maps
    (j, m) to the codeword at position j of bin m, and bin_counts maps
    each bin m to its member -> count dict. Bins whose operator sum leaks
    above the identity, or whose case-1 selection failed, fall back to
    the trivial single-outcome measurement and are flagged here.
    """

    block: ConditioningBlock
    gamma: dict
    bin_counts: dict
    scale: float
    is_valid_subpovm: dict
    fallback_applied: dict

    @property
    def cond_seq(self):
        return self.block.cond_seq

    @property
    def fallback_rate(self) -> float:
        return _share(self.fallback_applied.values())

    def pooled_counts(self) -> dict:
        """Member -> count over the bins that did not fall back."""
        pooled = {}
        for m, counts in self.bin_counts.items():
            if self.fallback_applied[m]:
                continue
            for seq, count in counts.items():
                pooled[seq] = pooled.get(seq, 0) + count
        return pooled

    def columns(self, counts) -> list:
        """Column blocks sqrt(scale * n_x) w_x of a member -> count dict;
        stacked into G, G G^dag is the operator sum of those codewords."""
        factors = self.block.gamma_factors
        return [
            math.sqrt(self.scale * count) * factors[seq]
            for seq, count in counts.items()
        ]


def _top_eigenvalue(cols) -> float:
    """Largest eigenvalue of G G^dag, G = hstack(cols), from the smaller of
    G G^dag and the Gram matrix G^dag G; 0 when G has no column."""
    g = np.hstack(cols) if cols else np.zeros((0, 0))
    if g.shape[1] == 0:
        return 0.0
    gram = g.conj().T @ g if g.shape[1] < g.shape[0] else g @ g.conj().T
    return float(np.linalg.eigvalsh(gram)[-1])


def _root(w) -> tuple:
    """(w w^dag)^{1/2} = U diag(s) U^dag as the thin pair (U, s), from the
    thin SVD w = U diag(s) V^dag.

    w can be rank-deficient after the cutoff, so singular values at or
    below max(shape) * machine eps * s_max (numpy's matrix_rank
    tolerance) count as zero.
    """
    u, s, _ = np.linalg.svd(w, full_matrices=False)
    keep = s > max(w.shape) * np.finfo(float).eps * s.max(initial=0.0)
    return u[:, keep], s[keep]


def _apply_root(root, g) -> np.ndarray:
    """U (s * (U^dag g)) for a root held as (U, s)."""
    u, s = root
    return u @ (s[:, None] * (u.conj().T @ g))


def build_gamma(
    block: ConditioningBlock,
    codebook: Codebook,
    *,
    size,
    m_count,
    eps,
) -> BobOperatorSet:
    """Count the drawn codewords of each bin against the block's factors.

    Each codeword's operator gets weight scale = s_cond / ((1 + eps) *
    size * m_count); the sum over a bin then concentrates near identity /
    (m_count) on the cut support when the codebook is large enough.
    """
    gamma = {}
    bin_counts = {}
    for m in range(m_count):
        counts = {}
        for j, seq in enumerate(codebook.codewords(block.cond_seq, m)):
            if seq not in block.gamma_factors:
                raise SizeMismatch(
                    f"codeword {seq} is outside the conditional typical set "
                    f"of {block.cond_seq}"
                )
            gamma[(j, m)] = seq
            counts[seq] = counts.get(seq, 0) + 1
        bin_counts[m] = counts
    return BobOperatorSet(
        block=block,
        gamma=gamma,
        bin_counts=bin_counts,
        scale=block.s_cond / ((1.0 + eps) * size * m_count),
        is_valid_subpovm={},
        fallback_applied={},
    )


def validate_subpovm(opset: BobOperatorSet, codebook: Codebook) -> BobOperatorSet:
    """Check each bin sums below the identity; mark fallbacks.

    A bin falls back when its operators leak above identity by more than
    TAU_PSD, or when its case-1 codeword selection failed. Fallback bins are
    served by the trivial measurement {I} downstream, so their codewords
    are ignored there.
    """
    for m in range(codebook.m_count):
        top = _top_eigenvalue(opset.columns(opset.bin_counts.get(m, {})))
        valid = top <= 1.0 + TAU_PSD
        failed = bool(
            codebook.failure_flags.get((opset.cond_seq, m), False)
        )
        opset.is_valid_subpovm[m] = valid
        opset.fallback_applied[m] = (not valid) or failed
    return opset


@dataclass(eq=False)
class AliceMeasurement:
    """Alice's randomized block measurement for one trial.

    opset counts the codewords of each bin. lambda_tilde maps each
    produced sequence x to the factor sqrt(N_x scale) w_x of its operator
    N_x scale w_x w_x^dag, N_x being its count over the non-fallback
    bins, and sqrt_lambda_tilde to its square root sqrt(N_x scale)
    (w_x w_x^dag)^{1/2} held thin as (U, s), the root being
    U diag(s) U^dag. With a single Alice outcome letter the construction
    collapses and every operator is exactly I / (m_count * size)
    (trivial=True); the summed operator, its factor and its root are
    then I.
    """

    opset: BobOperatorSet
    codebook: Codebook
    lambda_tilde: dict
    sqrt_lambda_tilde: dict
    trivial: bool


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
    codebook = generate_codebook(
        params,
        None,
        {ab.cond_seq: ab.pruned},
        rng,
        size=params.s_a,
        m_count=params.m_a,
        case=2,
    )

    trivial = block.single.n_alice == 1
    if trivial:
        # every codeword is the only sequence, and its operator is
        # scale * I: the identity stands in for its gamma factor
        only_seq = (0,) * n
        eye = np.eye(block.rho_n.shape[0])
        opset = BobOperatorSet(
            block=replace(ab, gamma_factors={only_seq: eye}),
            gamma=dict.fromkeys(
                itertools.product(range(params.s_a), range(params.m_a)),
                only_seq,
            ),
            bin_counts={m: {only_seq: params.s_a} for m in range(params.m_a)},
            scale=1.0 / (params.m_a * params.s_a),
            is_valid_subpovm=dict.fromkeys(range(params.m_a), True),
            fallback_applied=dict.fromkeys(range(params.m_a), False),
        )
        return AliceMeasurement(
            opset=opset,
            codebook=codebook,
            lambda_tilde={only_seq: eye},
            sqrt_lambda_tilde={only_seq: (eye, np.ones(eye.shape[0]))},
            trivial=True,
        )

    opset = build_gamma(
        ab, codebook, size=params.s_a, m_count=params.m_a, eps=params.eps
    )
    validate_subpovm(opset, codebook)

    lambda_tilde = {}
    sqrt_lambda_tilde = {}
    for seq, count in opset.pooled_counts().items():
        w = ab.gamma_factors[seq]
        weight = math.sqrt(count * opset.scale)
        u, s = _root(w)
        lambda_tilde[seq] = weight * w
        sqrt_lambda_tilde[seq] = (u, weight * s)
    return AliceMeasurement(
        opset=opset,
        codebook=codebook,
        lambda_tilde=lambda_tilde,
        sqrt_lambda_tilde=sqrt_lambda_tilde,
        trivial=False,
    )


def assemble_bob_povm(
    block: BlockScenario, alice: AliceMeasurement, bob_sets: dict
):
    """Combine the per-conditioning operators into Bob's block elements.

    Returns (lambda_tilde_b, lambda_prime_b): the simulated elements,
    sandwiched by the square roots of Alice's realized operators, and the
    intermediate variant sandwiched by the true sqrt(Lambda_{x_A^n}) over
    every typical conditioning, which isolates the Bob-codebook error.
    Per conditioning the counts are pooled over the non-fallback bins
    (fallback bins contribute nothing), and a member with count n adds
    the columns S sqrt(n scale) w_x, S being the sandwiching root; each
    root is applied once per conditioning, to all its pooled columns.
    Each element is returned as the factor G of its stacked columns
    (D x K), the operator being G G^dag. Keys are the x_B^n that
    received an operator; a missing key means the zero operator.
    """
    tilde, prime = [], []
    for cond_seq, opset in bob_sets.items():
        pooled = opset.pooled_counts()
        if not pooled:
            continue
        cols = opset.columns(pooled)
        widths = [(seq, c.shape[1]) for seq, c in zip(pooled, cols)]
        stacked = np.concatenate(cols, axis=1)
        prime.append((widths, block.sqrt_lambda_a_n[cond_seq] @ stacked))
        root = alice.sqrt_lambda_tilde.get(cond_seq)
        if root is not None:
            tilde.append((widths, _apply_root(root, stacked)))

    def by_sequence(parts):
        # each sequence's columns in conditioning order, gathered at once;
        # a member whose factor has no column still gets its key
        if not parts:
            return {}
        out = np.concatenate([cols for _, cols in parts], axis=1)
        index = {}
        start = 0
        for widths, _ in parts:
            for seq, width in widths:
                index.setdefault(seq, []).extend(range(start, start + width))
                start += width
        return {seq: out[:, idx] for seq, idx in index.items()}

    return by_sequence(tilde), by_sequence(prime)


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

    lambda_tilde_b, lambda_prime_b = assemble_bob_povm(block, alice, bob_sets)
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

    Both arguments map outcome sequences to dense operators; missing keys
    count as zero. Returns sum_x || sqrt(rho_n) (approx_x - ref_x)
    sqrt(rho_n) ||_1 by one D x D SVD per key. instance_report scores its
    factor tables with _signed_trace_norm instead.
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


def _signed_trace_norm(plus, minus) -> float:
    """||P P^dag - M M^dag||_1 for factors P and M with the same rows.

    With A = [P, M] = Q R and J = diag(+1 on P's columns, -1 on M's),
    P P^dag - M M^dag = A J A^dag = Q (R J R^dag) Q^dag, so the trace
    norm is the sum of |eigenvalues| of the Hermitian R J R^dag. R is
    min(D, K) x K for K stacked columns, so this holds for K >= D too.
    """
    stacked = np.hstack([plus, minus])
    if stacked.shape[1] == 0:
        return 0.0
    r = np.linalg.qr(stacked, mode="r")
    signed = r.copy()
    signed[:, plus.shape[1] :] *= -1.0
    return float(np.abs(np.linalg.eigvalsh(signed @ r.conj().T)).sum())


def _reference_distance(reference, probs, approx, keys):
    """Sum over keys of ||sqrt(rho^n) (approx_x - Lambda_x) sqrt(rho^n)||_1,
    both tables holding sandwiched factors sqrt(rho^n) F. A key approx
    lacks scores tr(rho^n Lambda_x) = prod_i probs[x_i], as Lambda_x is a
    PSD product."""
    unused = sum(
        math.prod(probs[x] for x in key) for key in keys if key not in approx
    )
    drawn = sum(
        _signed_trace_norm(approx[key], reference[key])
        for key in keys
        if key in approx
    )
    return unused + drawn


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
    saturated: bool  # no simulated Bob operator survived, so d_bob = 1


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
    """Score a realized protocol against the reference measurements.

    d_bob is the atypical part plus the typical part over the x_B^n
    marginal typical set; d2 and d3 split the typical part. Every
    operator is a factor, sandwiched once by sqrt(rho^n) and scored by
    _signed_trace_norm; only the references of drawn keys are formed
    from their Kronecker halves."""
    block = instance.block
    single = block.single
    sqrt_rho = block.sqrt_rho_n
    empty = np.zeros((sqrt_rho.shape[0], 0))

    def sandwiched(factors):
        return {key: sqrt_rho @ f for key, f in factors.items()}

    def references(table, keys):
        return sandwiched({key: table[key].dense() for key in keys})

    tilde = sandwiched(instance.lambda_tilde_b)
    prime = sandwiched(instance.lambda_prime_b)
    ref_b = references(block.lambda_ref_b, set(tilde) | set(prime))
    members = set(block.bob_marg_typical.members)
    typ, atyp = [], []
    for seq in itertools.product(range(single.n_bob), repeat=block.n):
        (typ if seq in members else atyp).append(seq)

    def bob(approx, keys):
        return _reference_distance(ref_b, single.p_b, approx, keys)

    atypical = bob(tilde, atyp)
    d_bob = atypical + bob(tilde, typ)
    d2 = bob(prime, typ)
    d3 = sum(
        _signed_trace_norm(prime.get(seq, empty), tilde.get(seq, empty))
        for seq in typ
        if seq in prime or seq in tilde
    )
    alice_tilde = sandwiched(instance.alice.lambda_tilde)
    d_alice = _reference_distance(
        references(block.lambda_a_n, alice_tilde),
        single.p_a,
        alice_tilde,
        list(itertools.product(range(single.n_alice), repeat=block.n)),
    )
    conditionals = {
        cond_seq: blk.pruned for cond_seq, blk in block.bob_blocks.items()
    }
    e0 = empirical_e0_check(
        instance.bob_codebook, conditionals, instance.params.eps
    )
    opsets = instance.bob_sets.values()
    return FaithfulnessReport(
        d_bob=float(d_bob),
        d_alice=float(d_alice),
        atypical=float(atypical),
        d2=float(d2),
        d3=float(d3),
        subpovm_failure_rate=_share(
            not v for o in opsets for v in o.is_valid_subpovm.values()
        ),
        fallback_rate=_share(
            v for o in opsets for v in o.fallback_applied.values()
        ),
        ec_rate=instance.bob_codebook.failure_rate,
        e0_ok=e0.ok,
        e0_violation=float(e0.violation),
        saturated=not tilde,
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


def _codeword_weights(opset, words, m_count, state) -> list:
    """Outcome weights m_count * tr(op_x F F^dag) = m_count * scale *
    ||w_x^dag F||^2 of one bin's codewords, one product per member, for a
    state given as its factor F."""
    factors = opset.block.gamma_factors
    per_member = {}
    for seq in words:
        if seq not in per_member:
            x = factors[seq].conj().T @ state
            trace = float(np.vdot(x, x).real)
            per_member[seq] = m_count * opset.scale * trace
    return [per_member[seq] for seq in words]


def _collapsed_state(alice, seq, rho_n) -> np.ndarray:
    """Factor F of rho_n after Alice's outcome seq from a non-fallback
    bin, the state being F F^dag.

    The server collapses by the physical operator
    sqrt(scale) (w w^dag)^{1/2}; Alice's root U diag(s) U^dag of seq is a
    multiple of it, and the scale cancels in the quotient. The collapsed
    state is U M U^dag with the r x r matrix M = s (U^dag rho_n U) s, so
    F = U Q diag(sqrt(mu)) for the eigensystem M = Q diag(mu) Q^dag.
    """
    u, s = alice.sqrt_lambda_tilde[seq]
    inner = (s[:, None] * (u.conj().T @ rho_n @ u)) * s
    mu, q = np.linalg.eigh(hermitian_part(inner))
    factor = u @ (q * np.sqrt(np.clip(mu, 0.0, None)))
    return factor / np.linalg.norm(factor)


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
    weights = _codeword_weights(
        alice.opset, words_a, params.m_a, block.sqrt_rho_n
    )
    residual = 1.0 - sum(weights)
    j_a = _sample_index(weights, residual, rng)
    if j_a >= len(words_a):
        return degenerate("alice_garbage", m_a=m_a, m_b=m_b)
    alice_seq = words_a[j_a]

    if weights[j_a] <= TAU_PROB:
        return degenerate("alice_garbage", m_a=m_a, m_b=m_b, j_a=j_a)
    post = _collapsed_state(alice, alice_seq, block.rho_n)

    opset = instance.bob_sets.get(alice_seq)
    if opset is None:
        return degenerate("empty_conditional", m_a=m_a, m_b=m_b, j_a=j_a)
    if opset.fallback_applied.get(m_b, False):
        return degenerate("bob_fallback", m_a=m_a, m_b=m_b, j_a=j_a)

    words_b = instance.bob_codebook.codewords(alice_seq, m_b)
    weights_b = _codeword_weights(opset, words_b, params.m_b, post)
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
    if workers < 1:
        raise ValueError("workers must be at least 1")
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

    if workers == 1 or trials == 1:
        return [one(i) for i in range(trials)]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(one, range(trials)))

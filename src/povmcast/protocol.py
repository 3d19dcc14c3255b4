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

import math
import sys
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
    descending_eigh,
    dimension_cap,
    hermitian_part,
    # unused here, but perfbench/tracing.py wraps these module attributes
    kron_all,  # noqa: F401
    pinv_sqrt_on_support,  # noqa: F401
    power_exceeds,
    sqrt_psd,
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
from .rates import von_neumann_entropy
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
# reproduces the unconditioned marginal machinery. Being 0, it is also
# the product-order code of (_FREE,) * n, which keys Alice's codebook.
_FREE = 0


@dataclass(frozen=True)
class ProtocolParams:
    """Block-coding parameters for one protocol build.

    delta sets the typical-set width and, with eps, the eigenvalue
    cutoff eps * 2^{-n (H + delta)}; eps is also the rescaling margin.
    delta2 is the slack that rate expressions may use; the construction
    does not read it. s_a/s_b are codewords per bin, m_a/m_b the number
    of common-randomness bins. Case 1 draws s_b_prime
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
        for name in ("delta", "delta2", "eps"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
            if value < 0:
                raise ValueError(f"{name} must be nonnegative")
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


def _in_working_dtype(rho: DensityOperator, povm: Povm) -> tuple:
    """rho and povm cast to the scenario's working dtype: float64 when
    both have imaginary parts exactly 0 (-0.0 counting as 0), else
    complex128. This is the one place a dtype is decided from values;
    every table built from the scenario keeps it."""
    mats = (rho.mat, *povm.elements)
    real = not any(m.imag.any() for m in mats)
    dtype = np.dtype(np.float64 if real else np.complex128)

    def cast(m):
        return m.real if real else m.astype(dtype)

    if rho.mat.dtype != dtype:
        rho = DensityOperator(cast(rho.mat))
    if povm.elements[0].dtype != dtype:
        povm = Povm(
            elements=tuple(cast(e) for e in povm.elements),
            labels=povm.labels,
            complete=povm.complete,
        )
    return rho, povm


def prepare_scenario(rho, povm, g_a, g_b) -> SingleLetterScenario:
    """Precompute the single-copy objects the block construction needs,
    in the working dtype of rho and povm (_in_working_dtype)."""
    rho, povm = _in_working_dtype(DensityOperator.coerce(rho), povm)
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
    by B. No matrix of the product's size is formed. The product of two
    such operators split at the same position is (A C) (x) (B E).
    """

    left: np.ndarray
    right: np.ndarray

    @property
    def shape(self) -> tuple:
        (a, a_in), (b, b_in) = self.left.shape, self.right.shape
        return a * b, a_in * b_in

    def __matmul__(self, g):
        if isinstance(g, _Kron):
            return _Kron(self.left @ g.left, self.right @ g.right)
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


def _kron_halves(mats, seq, memo, outer=None) -> _Kron:
    """mats[s_1] (x) ... (x) mats[s_n] over seq, split at h = n // 2, and
    then times outer, a _Kron split there whose halves depend only on
    their length; the matrices may be rectangular, and an empty half is
    the 1 x 1 identity. Each half is formed once per half-sequence and
    shared through memo, so a table over many sequences holds only small
    matrices."""
    h = len(seq) // 2
    halves = []
    for part, side in ((tuple(seq[:h]), 0), (tuple(seq[h:]), 1)):
        if part not in memo:
            prod = reduce(_kron, [mats[s] for s in part], np.ones((1, 1)))
            if outer is not None:
                prod = (outer.left, outer.right)[side] @ prod
            memo[part] = prod
        halves.append(memo[part])
    return _Kron(*halves)


def _in_basis(basis: _Kron, diag, g) -> np.ndarray:
    """basis diag(diag) basis^dag g."""
    return basis @ (diag[:, None] * (basis.H @ g))


def _pieces(a, sizes) -> list:
    """Consecutive views of a's last axis, of the given sizes."""
    ends = np.cumsum(sizes).tolist()
    return [a[..., end - size : end] for size, end in zip(sizes, ends)]


def _batched(apply, factors: list) -> list:
    """apply run once on the hstack of a list of factors, split back per
    factor in their order; no factor gives none."""
    if not factors:
        return []
    out = apply(np.concatenate(factors, axis=1))
    return _pieces(out, [f.shape[1] for f in factors])


def build_xi_prime(pair_eigs, delta) -> np.ndarray:
    """Factor F of P_hat rho_hat^n P_hat, the block post-measurement state
    compressed by its own typical projector; P_C is applied by the
    caller, batched over a block's members.

    pair_eigs holds the branch eigensystem of the hat state at each
    position. P_hat and rho_hat^n share their Kronecker eigenbasis, so
    P_hat rho_hat^n P_hat = V_M diag(lambda_M) V_M^dag, where M masks the
    typical branches and lambda is the product of the per-position
    eigenvalues; only the masked columns of V are formed. Returns
    V_M diag(sqrt(lambda_M)).
    """
    values = [w for w, _ in pair_eigs]
    _, keep = _typical_mask(values, delta)
    idx = np.unravel_index(np.flatnonzero(keep), [w.size for w in values])
    lam = np.ones(idx[0].size)
    cols = np.ones((1, idx[0].size), dtype=pair_eigs[0][1].dtype)
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
    """Eigenvalue cutoff of the averaged compressed state xi_bar.

    basis (D x r) holds the orthonormal eigenvectors of xi_bar above
    threshold and eigenvalues (r) their eigenvalues, so the cutoff
    projector is basis basis^dag and the cut average omega is
    basis diag(eigenvalues) basis^dag. The projector is formed only on
    request.
    """

    basis: np.ndarray
    eigenvalues: np.ndarray
    threshold: float

    @property
    def projector(self) -> np.ndarray:
        return hermitian_part(self.basis @ self.basis.conj().T)


def build_omega_and_cutoff(
    factors, probs, n, eps, h_ref_given_cond, delta
) -> CutoffResult:
    """Cut eigenvalues of xi_bar below eps * 2^{-n (H + delta)}.

    factors lists the members' compressed-state factors F_x and probs
    their weights, so xi_bar = G G^dag with G = [sqrt(p_x) F_x]. The
    eigenproblem is solved on the smaller side: the R x R Gram matrix
    G^dag G when G has fewer columns R than rows, else G G^dag; either
    is Hermitian by construction, so it goes to eigh unchecked.
    H is the relevant conditional reference entropy; threshold 0 keeps
    the positive spectrum. Returns the kept eigenvectors and eigenvalues;
    the caller projects the members' factors onto them.
    """
    dim = factors[0].shape[0]
    g = np.hstack([math.sqrt(p) * f for p, f in zip(probs, factors)])
    threshold = eps * 2.0 ** (-n * (h_ref_given_cond + delta))
    gram = g.shape[1] < dim
    dec = descending_eigh(g.conj().T @ g if gram else g @ g.conj().T)
    mu = dec.eigenvalues
    floor = CUTOFF_FLOOR_REL * float(mu[0]) if mu.size else 0.0
    keep = mu > max(threshold, floor, 0.0)
    if gram:
        vecs = (g @ dec.eigenvectors[:, keep]) / np.sqrt(mu[keep])
    else:
        vecs = dec.eigenvectors[:, keep]
    return CutoffResult(
        basis=vecs, eigenvalues=mu[keep], threshold=float(threshold)
    )


@dataclass(eq=False)
class ConditioningBlock:
    """Deterministic per-conditioning-sequence geometry.

    Shared by every trial: the conditional typical set of output
    sequences along the conditioning with its pruned law, the eigenvalue
    cutoff of the averaged compressed state, and per typical member the
    factor w_x = rho_cond^{-1/2} P F_x, where P is the cutoff projector
    and F_x the P_C-compressed state's factor, so that
    rho_cond^{-1/2} xi_x rho_cond^{-1/2} = w_x w_x^dag. gamma_factors
    lists the w_x and norms (K x 2) each w_x's squared Frobenius norm and
    largest squared column norm, both in member order, from which a
    trial bounds its bins' operator sums (_settle_bins).

    The geometry is covariant under permuting the n copies. Members that
    differ by a permutation fixing cond_seq share one built factor, the
    others holding it with permuted row axes, all in one D x K buffer;
    and a block may be built as a permutation of the block of its type's
    representative, the sorted conditioning sequence (_permuted_block).
    """

    cond_seq: tuple
    gamma_factors: list
    typical: TypicalSet
    pruned: PrunedDistribution
    cutoff: CutoffResult
    norms: np.ndarray


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


def _permute_copies(g, axes, dim) -> np.ndarray:
    """A D x r factor with its (dim,) * n row axes transposed by axes, so
    that copy i of the result is copy axes[i] of g; costs O(D r) and
    forms no D x D matrix."""
    n = len(axes)
    shape = (dim,) * n + (g.shape[1],)
    return g.reshape(shape).transpose(tuple(axes) + (n,)).reshape(g.shape)


def _member_orbits(cond_seq, members) -> dict:
    """Map each member x to (rep, axes), where rep is x sorted within the
    positions of each conditioning symbol and x[i] = rep[axes[i]].

    The copy permutations that fix cond_seq permute positions that carry
    the same symbol, so the members of one orbit share their rep.
    """
    groups = {}
    for i, sym in enumerate(cond_seq):
        groups.setdefault(sym, []).append(i)
    carries = {}
    for x in members:
        rep = list(x)
        axes = list(range(len(x)))
        for pos in groups.values():
            order = sorted(range(len(pos)), key=lambda k: x[pos[k]])
            for j, k in enumerate(order):
                rep[pos[j]] = x[pos[k]]
                axes[pos[k]] = pos[j]
        carries[x] = (tuple(rep), tuple(axes))
    return carries


def _factor_norms(w) -> tuple:
    """Squared Frobenius norm and largest squared column norm of w; both
    are unchanged by permuting its rows."""
    cols = np.einsum("ij,ij->j", w.conj(), w).real
    return float(cols.sum()), float(cols.max(initial=0.0))


def _carried(factors, carries, dim) -> list:
    """Each member's factor, its rep's factor carried by its axes, as
    views of one D x K buffer, in member order."""
    widths = [factors[rep].shape[1] for rep, _ in carries.values()]
    first = next(iter(factors.values()))
    buf = np.empty((first.shape[0], sum(widths)), dtype=first.dtype)
    out = _pieces(buf, widths)
    for (rep, axes), view in zip(carries.values(), out):
        view[:] = _permute_copies(factors[rep], axes, dim)
    return out


def _build_conditioning_block(
    cond_seq,
    eigs,
    p_cond_rows,
    hat_eigs,
    h_ref_given_cond,
    n,
    delta,
    eps,
):
    """Assemble one ConditioningBlock. eigs holds the eigensystems of the
    conditioning states, hat_eigs maps each (conditioning, output) pair
    to the branch eigensystem of its hat state. The product state along
    cond_seq has eigenbasis B, so P_C = B diag(m) B^dag, m masking its
    typical branches, and rho_cond^{-1/2} = B diag(inv) B^dag.

    The copy permutations that fix cond_seq commute with B, m, inv and
    the averaged compressed state, so factors are built only for one
    representative per orbit of members (_member_orbits): its compressed
    state, P_C, and then the cutoff projection with rho_cond^{-1/2}, are
    applied to the stacked representatives' factors, B as Kronecker
    half-products, and every member gets its representative's factor
    with the row axes permuted. The cutoff still averages the carried
    factors of all members, and each member carries its
    representative's norms. Raises EmptySupport when the conditional
    typical set along cond_seq is empty."""
    typical = conditional_typical_set(p_cond_rows, cond_seq, n, delta)
    pruned = prune_conditional(p_cond_rows, cond_seq, typical)
    dim = eigs.values[cond_seq[0]].size
    carries = _member_orbits(cond_seq, typical.members)

    xi_rep = {}
    for member, (rep, _) in carries.items():
        if rep in xi_rep:
            continue
        # an orbit's members share their pairs; name its first member
        for pair in zip(cond_seq, member):
            if pair not in hat_eigs:
                raise NegligibleProbability(
                    f"typical sequence {member} uses pair {pair} whose "
                    "probability is below tolerance"
                )
        xi_rep[rep] = build_xi_prime(
            [hat_eigs[pair] for pair in zip(cond_seq, rep)], delta
        )
    basis = eigs.basis(cond_seq)
    _, mask = _typical_mask(eigs.eigenvalues(cond_seq), delta)
    reps, xi = list(xi_rep), list(xi_rep.values())
    xi = _batched(lambda g: _in_basis(basis, mask, g), xi)

    # the carried factors of all members, freed once the cutoff is found
    cutoff = build_omega_and_cutoff(
        _carried(dict(zip(reps, xi)), carries, dim), pruned.probs, n, eps,
        h_ref_given_cond, delta,
    )
    vecs = cutoff.basis
    inv = _pinv_sqrt_product(eigs, cond_seq)

    def whiten(g):
        return _in_basis(basis, inv, vecs @ (vecs.conj().T @ g))

    w_rep = dict(zip(reps, _batched(whiten, xi)))
    norms = {rep: _factor_norms(w) for rep, w in w_rep.items()}
    return ConditioningBlock(
        cond_seq=cond_seq,
        gamma_factors=_carried(w_rep, carries, dim),
        typical=typical,
        pruned=pruned,
        cutoff=cutoff,
        norms=np.array([norms[rep] for rep, _ in carries.values()]),
    )


def _permuted_block(rep: ConditioningBlock, cond_seq, dim) -> ConditioningBlock:
    """rep's block carried to cond_seq, a reordering of rep.cond_seq.

    With order the stable argsort of cond_seq, rep.cond_seq[j] =
    cond_seq[order[j]]; axes is its inverse, so copy i of cond_seq is copy
    axes[i] of rep.cond_seq. A rep member x maps to the member y with
    y[i] = x[axes[i]], and a D x r factor to _permute_copies by axes.
    Probabilities, member norms, the set's mass and the cutoff's
    eigenvalues and threshold are rep's; the members are the mapped ones.
    """
    if cond_seq == rep.cond_seq:
        return rep
    axes = tuple(np.argsort(np.argsort(cond_seq, kind="stable")).tolist())

    def permute(g):
        return _permute_copies(g, axes, dim)

    # the mapped members' symbols, one row per copy, and perm, the rep
    # member index of each mapped member in their sorted order
    shape = (rep.typical.alphabet_size,) * len(axes)
    digits = np.array(np.unravel_index(rep.typical.codes, shape))[list(axes)]
    codes = np.ravel_multi_index(digits, shape)
    perm = np.argsort(codes)
    members = tuple(zip(*digits[:, perm].tolist()))
    typical = replace(rep.typical, members=members, codes=codes[perm])
    return ConditioningBlock(
        cond_seq=cond_seq,
        gamma_factors=_batched(permute, [rep.gamma_factors[i] for i in perm]),
        typical=typical,
        pruned=PrunedDistribution(base=typical, probs=rep.pruned.probs[perm]),
        cutoff=replace(rep.cutoff, basis=permute(rep.cutoff.basis)),
        norms=rep.norms[perm],
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
    members). bob_blocks, lambda_a_n and sqrt_lambda_a_n are keyed by the
    x_A^n product-order code, lambda_ref_b by the x_B^n one. lambda_a_n
    and lambda_ref_b hold sqrt(rho^n) F, the reference Lambda_x = F F^dag
    sandwiched as scoring reads it, F being the Kronecker product of
    single-letter factors (D x prod_i r_i); sqrt_lambda_a_n holds
    sqrt(Lambda_x). rho_n and sqrt_rho_n are the Kronecker powers of rho
    and sqrt(rho). All are held as two Kronecker half-products, shared
    between sequences with a common half. Conditionings whose conditional
    typical set is empty are listed in dropped_cond and excluded.
    """

    single: SingleLetterScenario
    n: int
    rho_n: _Kron
    sqrt_rho_n: _Kron
    alice_block: ConditioningBlock
    bob_blocks: dict
    dropped_cond: tuple
    bob_marg_typical: TypicalSet
    bob_marg_pruned: PrunedDistribution
    lambda_a_n: dict
    sqrt_lambda_a_n: dict
    lambda_ref_b: dict


def build_block_scenario(
    single: SingleLetterScenario, params: ProtocolParams
) -> BlockScenario:
    """Build the trial-independent geometry for params.n copies.

    Within each block, compressed states are built once per orbit of
    members under the copy permutations that fix the conditioning: for
    Alice the permutations of all n copies, for a sorted Bob type those
    within each run. Bob's geometry is built once per type of x_A^n,
    along the sorted sequence; every other conditioning of that type
    gets a permutation of that block, and is dropped with it when its
    conditional typical set is empty.
    """
    n = params.n
    delta = params.delta
    eps = params.eps
    dim = single.rho.dim
    cap = dimension_cap()
    if power_exceeds(dim, n, cap):
        raise SizeLimitExceeded(f"block dimension {dim}**{n} exceeds cap {cap}")
    k_a = single.n_alice
    k_b = single.n_bob
    if power_exceeds(k_a, n, cap) or power_exceeds(k_b, n, cap):
        raise SizeLimitExceeded(f"outcome sequence count exceeds cap {cap}")

    sqrt_rho = sqrt_psd(single.rho.mat)
    power = (0,) * n
    rho_n = _kron_halves([single.rho.mat], power, {})
    sqrt_rho_n = _kron_halves([sqrt_rho], power, {})

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
    )

    bob_eigs = _ProductEigs({a: st.mat for a, st in single.post_states.items()})
    bob_hat = {
        pair: branch_eigensystem(m) for pair, m in single.hat_states.items()
    }
    alice_codes = alice_block.typical.codes.tolist()
    by_type = {}
    bob_blocks = {}
    dropped = []
    for code, cond_seq in zip(alice_codes, alice_block.typical.members):
        rep = tuple(sorted(cond_seq))
        if rep not in by_type:
            try:
                by_type[rep] = _build_conditioning_block(
                    rep,
                    bob_eigs,
                    single.p_cond,
                    bob_hat,
                    single.h_r_given_xa,
                    n,
                    delta,
                    eps,
                )
            except EmptySupport:
                by_type[rep] = None
        if by_type[rep] is None:
            dropped.append(cond_seq)
        else:
            bob_blocks[code] = _permuted_block(by_type[rep], cond_seq, dim)

    bob_marg_typical = build_typical_set(single.p_b, n, delta)
    bob_marg_pruned = prune(single.p_b, bob_marg_typical)

    alice_elems = single.alice_povm.elements
    alice_factors = [_psd_factor(e) for e in alice_elems]
    sqrt_alice = [sqrt_psd(e) for e in alice_elems]
    factor_memo, sqrt_memo = {}, {}
    lambda_a_n = {}
    sqrt_lambda_a_n = {}
    for code, seq in zip(alice_codes, alice_block.typical.members):
        lambda_a_n[code] = _kron_halves(
            alice_factors, seq, factor_memo, sqrt_rho_n
        )
        sqrt_lambda_a_n[code] = _kron_halves(sqrt_alice, seq, sqrt_memo)

    bob_factors = [_psd_factor(e) for e in single.bob_reference.elements]
    bob_memo = {}
    lambda_ref_b = {}
    for blk in bob_blocks.values():
        for code, seq in zip(blk.typical.codes.tolist(), blk.typical.members):
            if code not in lambda_ref_b:
                lambda_ref_b[code] = _kron_halves(
                    bob_factors, seq, bob_memo, sqrt_rho_n
                )

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
    """Random codewords of one trial, each a member index: its position
    in the sorted member list of the law it was drawn from.

    cells maps each conditioning's code to an (m_count, size) array, row
    m the codewords of bin m, in the conditioning's law. Case 2 draws
    them from that law, entries mapping each (conditioning, bin) to its
    row. Case 1 draws a pool of size_prime marginal codewords per bin
    (entries maps bins to pools); selection holds, per cell, the pool
    positions of the first size conditionally typical draws, and a cell
    with fewer is flagged in failure_flags, its row holding -1 past them.
    """

    case: int
    size: int
    m_count: int
    size_prime: int
    entries: dict
    selection: dict
    failure_flags: dict
    cells: dict

    def codewords(self, cond, m) -> np.ndarray:
        """Selected codewords of one (conditioning, bin) cell, a view of
        its row; a case-1 cell that failed selection is partial."""
        row = self.cells[cond][m]
        if self.case == 2:
            return row
        return row[: len(self.selection[(cond, m)])]

    def selected_index(self, cond, m, j) -> int:
        """Map a selected position j to the index in the underlying bin
        list (case 1); identity in case 2."""
        if self.case == 2:
            return j
        return self.selection[(cond, m)][j]

    @property
    def failure_rate(self) -> float:
        return _share(self.failure_flags.values())


def _select(marginal, laws, pools, size) -> tuple:
    """Per law and pool (bin) of marginal draws, the first size draws
    that are members of the law: their member indices in the law,
    (laws, bins, size) with -1 past the ones found, and their pool
    positions, law by law and bin by bin; as many laws per pass as keep
    each array within STACK_BYTES."""
    span = marginal.base.alphabet_size ** marginal.base.n
    drawn = marginal.base.codes[pools]
    draws = np.full((len(laws), pools.shape[0], size), -1)
    picks = []
    step = max(1, STACK_BYTES // (8 * max(pools.size, span)))
    for lo in range(0, len(laws), step):
        # the member index of each code in each law, -1 off the law
        chunk = [law.base.codes for law in laws[lo : lo + step]]
        table = np.full((len(chunk), span), -1)
        for row, codes in zip(table, chunk):
            row[codes] = np.arange(codes.size)
        # rank numbers each bin's member draws from 1 and the first size
        # are selected, so a pool prefix holding size in every bin will do
        width = 4 * size
        while True:
            hits = table[:, drawn[:, :width]]
            rank = (hits >= 0).cumsum(axis=2)
            if width >= pools.shape[1] or rank[..., -1].min() >= size:
                break
            width *= 4
        law, bins, cols = np.nonzero((hits >= 0) & (rank <= size))
        draws[lo + law, bins, rank[law, bins, cols] - 1] = hits[law, bins, cols]
        picks += cols.tolist()
    return draws, picks


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

    conditionals maps each conditioning, by its sequence's code, to the
    pruned conditional law codewords must follow. Case 1 also needs the
    pruned output marginal. Conditionings are visited in sorted order,
    and case 2 draws all bins of a conditioning in one sample_sequences
    call, case 1 all pools in one, which reproduces the stream of a draw
    per bin; case 1 then selects from the pools for every conditioning
    in vectorised passes (_select).
    """
    case = params.case if case is None else case
    size = params.s_b if size is None else size
    m_count = params.m_b if m_count is None else m_count
    size_prime = params.s_b_prime if case == 1 else 0

    cond_keys = sorted(conditionals.keys())
    laws = [conditionals[c] for c in cond_keys]
    # the cells in order, lazily: a huge m_count fails at the draw first
    keys = ((c, m) for c in cond_keys for m in range(m_count))
    selection, failure = {}, {}
    if case == 2:
        draws = [sample_sequences(law, rng, m_count * size) for law in laws]
        draws = np.array(draws, np.intp).reshape(len(laws), m_count, size)
        entries = dict(zip(keys, draws.reshape(-1, size)))
    else:
        if marginal is None:
            raise SizeMismatch("case 1 needs a pruned output marginal")
        pools = sample_sequences(marginal, rng, m_count * size_prime)
        pools = pools.reshape(m_count, size_prime)
        entries = dict(enumerate(pools))
        draws, picks = _select(marginal, laws, pools, size)
        found = np.count_nonzero(draws >= 0, axis=2).ravel().tolist()
        start = 0
        for key, count in zip(keys, found):
            selection[key] = tuple(picks[start : start + count])
            failure[key] = count < size
            start += count
    return Codebook(
        case=case,
        size=size,
        m_count=m_count,
        size_prime=size_prime,
        entries=entries,
        selection=selection,
        failure_flags=failure,
        cells=dict(zip(cond_keys, draws)),
    )


@dataclass(eq=False)
class BobOperatorSet:
    """Realized measurement operators for one conditioning sequence.

    The operator of a codeword x, a member index of block, is
    scale * w_x w_x^dag, w_x being block.gamma_factors[x]: gamma lists
    every codeword, bin by bin in draw order, and bins the bin of each.
    Bins whose operator sum leaks above the identity, or whose case-1
    selection failed, fall back to the trivial single-outcome
    measurement and are flagged here. pooled, set with the flags and
    None before, holds (members, counts) over the bins that did not
    fall back: each member drawn there, at its first draw, with how
    often it was drawn there.
    """

    block: ConditioningBlock
    gamma: np.ndarray
    bins: np.ndarray
    scale: float
    is_valid_subpovm: dict
    fallback_applied: dict
    pooled: tuple | None = None

    def columns(self, members, counts) -> list:
        """Column blocks sqrt(scale * n_x) w_x of members drawn n_x times;
        stacked into G, G G^dag is the operator sum of those codewords."""
        factors = self.block.gamma_factors
        return [
            math.sqrt(self.scale * count) * factors[x]
            for x, count in zip(members.tolist(), counts.tolist())
        ]


# Byte size of the largest stack one batched LAPACK call gets: a shape
# group of more bytes is cut into chunks, and a matrix larger than this
# (any Bell n >= 10 Alice bin, 1024 x ~1020) is a stack of one. Small chunks
# keep a stack and its copies in cache and in the allocator's heap: with
# 4 MiB chunks the Bell n = 6 sweep benchmark (2 vCPUs, one BLAS thread)
# ran no faster and peaked 2 MB higher.
STACK_BYTES = 1 << 16


def _by_shape(column_lists, kernel, tags=None) -> list:
    """kernel's value for the hstack of each item's column blocks.

    Items with the same rows, columns, dtype and tag are stacked into
    one (N, rows, K) array per chunk of at most STACK_BYTES, a chunk of
    one included, and kernel runs once on it, returning N values. Shapes
    are never padded, and an item without columns is left as None for
    the caller.
    """
    tags = [None] * len(column_lists) if tags is None else tags
    groups = {}
    for i, (cols, tag) in enumerate(zip(column_lists, tags)):
        width = sum(c.shape[1] for c in cols)
        if width:
            key = (cols[0].shape[0], width, np.result_type(*cols), tag)
            groups.setdefault(key, []).append(i)
    out = [None] * len(column_lists)
    for (rows, width, dtype, tag), idx in groups.items():
        per = max(1, STACK_BYTES // (rows * width * dtype.itemsize))
        for start in range(0, len(idx), per):
            chunk = idx[start : start + per]
            stack = np.empty((len(chunk), rows, width), dtype=dtype)
            for row, i in zip(stack, chunk):
                np.concatenate(column_lists[i], axis=1, out=row)
            for i, value in zip(chunk, kernel(stack, tag)):
                out[i] = value
    return out


def _adjoint(a) -> np.ndarray:
    """Conjugate transpose of each matrix of a stack."""
    return a.conj().swapaxes(-1, -2)


def _top_eigenvalue_kernel(g, _):
    """Largest eigenvalue of G G^dag, from the smaller of G G^dag and the
    Gram matrix G^dag G, for each G of a stack."""
    gram = _adjoint(g) @ g if g.shape[-1] < g.shape[-2] else g @ _adjoint(g)
    return np.linalg.eigvalsh(gram)[..., -1]


def _top_eigenvalues(column_lists) -> list:
    """Largest eigenvalue of G G^dag for each G = hstack(cols) of
    column_lists; 0 for a G without columns. One eigvalsh per chunk of a
    shape group (_by_shape). This is the exact route of the sub-POVM
    check, which _settle_bins takes for every bin that its norm bounds
    leave undecided."""
    tops = _by_shape(column_lists, _top_eigenvalue_kernel)
    return [0.0 if top is None else float(top) for top in tops]


def _root_kernel(w, _):
    """(w w^dag)^{1/2} = U diag(s) U^dag as the thin pair (U, s), from the
    thin SVD w = U diag(s) V^dag, for each w of a stack; a list of pairs.

    w can be rank-deficient after the cutoff, so per matrix the singular
    values at or below max(shape) * machine eps * s_max (numpy's
    matrix_rank tolerance) count as zero.
    """
    u, s, _ = np.linalg.svd(w, full_matrices=False)
    tol = max(w.shape[-2:]) * np.finfo(float).eps * s.max(
        axis=-1, initial=0.0, keepdims=True
    )
    return [(ui[:, k], si[k]) for ui, si, k in zip(u, s, s > tol)]


def _thin_roots(factors) -> list:
    """(w w^dag)^{1/2} of each factor w as a thin pair (U, s), one stacked
    SVD per chunk of a shape group (_by_shape); a factor without columns
    has the empty root."""
    roots = _by_shape([[w] for w in factors], _root_kernel)
    return [
        _root_kernel(w[None], None)[0] if root is None else root
        for w, root in zip(factors, roots)
    ]


def _apply_root(root, g) -> np.ndarray:
    """U (s * (U^dag g)) for a root held as (U, s)."""
    u, s = root
    return u @ (s[:, None] * (u.conj().T @ g))


def _first_draws(opsets, m_count) -> tuple:
    """Each bin's distinct codewords over all opsets, one pass: (owner,
    members, counts), owner i * m_count + m for bin m of opset i, ordered
    by owner and then by first draw."""
    empty = [np.zeros(0, np.intp)]
    owner = np.concatenate(empty + [i * m_count + o.bins for i, o in enumerate(opsets)])
    words = np.concatenate(empty + [o.gamma for o in opsets])
    span = int(words.max(initial=0)) + 1
    keys, first, counts = np.unique(
        owner * span + words, return_index=True, return_counts=True
    )
    order = np.argsort(first)
    return (*np.divmod(keys[order], span), counts[order])


def _pooled(tally, fell) -> list:
    """Per opset, (members, counts) over its bins that did not fall back,
    from the per-bin tally of _first_draws and fell, an (opsets,
    m_count) array of fallback flags: each member drawn there, listed at
    its first draw, with how often it was drawn there. The tally lists
    each opset's bins in draw order, and within a bin its members at
    their first draws, so a member's first kept entry is its first
    kept draw."""
    owner, members, counts = tally
    keep = ~fell.ravel()[owner]
    owner, members = owner[keep] // fell.shape[1], members[keep]
    span = int(members.max(initial=0)) + 1
    keys, first, inverse = np.unique(
        owner * span + members, return_index=True, return_inverse=True
    )
    totals = np.bincount(inverse, weights=counts[keep], minlength=keys.size)
    order = np.argsort(first)
    owner, members = np.divmod(keys[order], span)
    sizes = np.bincount(owner, minlength=fell.shape[0]).tolist()
    totals = totals[order].astype(np.intp)
    return list(zip(_pieces(members, sizes), _pieces(totals, sizes)))


def build_gamma(
    block: ConditioningBlock, codebook: Codebook, cond, *, eps
) -> BobOperatorSet:
    """Count the drawn codewords of each bin against the block's factors,
    cond keying the block's conditioning in codebook.

    Each codeword's operator gets weight scale = S / ((1 + eps) * size *
    m_count), S = typical.total_prob and size and m_count being the
    codebook's; the sum over a bin then concentrates near identity /
    (m_count) on the cut support when the codebook is large enough.
    """
    cells = codebook.cells[cond]
    drawn = cells >= 0
    return BobOperatorSet(
        block=block,
        gamma=cells[drawn],
        bins=np.nonzero(drawn)[0],
        scale=block.typical.total_prob
        / ((1.0 + eps) * codebook.size * codebook.m_count),
        is_valid_subpovm={},
        fallback_applied={},
    )


# Relative margin around the sub-POVM threshold 1 + TAU_PSD: a norm
# bound settles a bin only from outside it, and the bins inside go to
# the exact route. It sits far above eigvalsh's backward error, about
# D * machine eps ~ 9e-13 relative at the 4096 dimension cap, so a bound
# outside it lies on the same side of the threshold as the exact
# route's eigenvalue.
SETTLE_MARGIN = 1e-9

# The stage of _settle_bins that decided a bin.
STAGE_TRACE, STAGE_COLUMN, STAGE_NORMS, STAGE_EXACT = range(1, 5)


def _settle_bins(opsets, m_count) -> tuple:
    """Whether the operator sum G G^dag of each bin m < m_count of each
    opset stays at or below thr = 1 + TAU_PSD, and the stage that decided
    it, two (len(opsets), m_count) arrays; and the per-bin tally of
    _first_draws that the pass reads them from.

    Every flag equals the exact route's (top eigenvalue <= thr). With
    lo, hi = thr (1 -+ SETTLE_MARGIN), the stages run cheapest first,
    each on the bins the earlier ones left:
    1. valid when scale sum_x n_x ||w_x||_F^2 = tr(G G^dag) <= lo;
    2. flagged when scale max_x n_x |w_x column|^2 > hi, a diagonal
       entry of G^dag G being at most its top eigenvalue; both from the
       blocks' member norms, without touching a factor;
    3. a wide bin (K > D / 2 columns) is valid when
       ||G||_1 ||G||_inf <= lo;
    4. the rest, the narrow bins among them, get _top_eigenvalues, one
       eigvalsh per chunk of each exact shape.
    """
    thr = 1.0 + TAU_PSD
    lo, hi = thr * (1.0 - SETTLE_MARGIN), thr * (1.0 + SETTLE_MARGIN)
    shape = (len(opsets), m_count)
    size = math.prod(shape)
    # each bin's distinct codewords with their counts, entries starts[b]
    # up to starts[b + 1]
    owner, members, counts = _first_draws(opsets, m_count)
    starts = np.searchsorted(owner, np.arange(size + 1)).tolist()
    index = owner // m_count
    offsets = np.cumsum([0] + [len(o.block.norms) for o in opsets])
    norms = np.concatenate([np.zeros((0, 2))] + [o.block.norms for o in opsets])
    scales = np.array([0.0] + [o.scale for o in opsets])[1:]
    weighted = norms[offsets[index] + members] * (scales[index] * counts)[:, None]
    trace = np.bincount(owner, weights=weighted[:, 0], minlength=size)
    column = np.zeros(size)
    np.maximum.at(column, owner, weighted[:, 1])

    valid = trace <= lo
    stage = np.where(valid, STAGE_TRACE, 0)
    stage[~valid & (column > hi)] = STAGE_COLUMN

    exact, columns = [], []
    for b in np.flatnonzero(stage == 0).tolist():
        opset = opsets[b // m_count]
        x, n = (a[starts[b] : starts[b + 1]] for a in (members, counts))
        factors = [opset.block.gamma_factors[i] for i in x.tolist()]
        widths = [f.shape[1] for f in factors]
        if 2 * sum(widths) > factors[0].shape[0]:
            # ||G||_1 and ||G||_inf from |w_x|, each column of member x
            # weighted by sqrt(scale n_x)
            a = np.abs(np.concatenate(factors, axis=1))
            root = np.sqrt(opset.scale * np.repeat(n, widths))
            rows = (a * root).sum(axis=1).max()
            if float(rows * (a.sum(axis=0) * root).max()) <= lo:
                valid[b], stage[b] = True, STAGE_NORMS
                continue
        exact.append(b)
        columns.append(opset.columns(x, n))
    tops = _top_eigenvalues(columns)
    for b, top in zip(exact, tops):
        valid[b], stage[b] = top <= thr, STAGE_EXACT
    return valid.reshape(shape), stage.reshape(shape), (owner, members, counts)


def _flag_bins(opsets: dict, codebook) -> None:
    """Set the is_valid_subpovm, fallback_applied and pooled of each
    opset, keyed by its conditioning in codebook, for every bin of
    codebook: one _settle_bins pass decides all bins, and its tally is
    pooled."""
    m_count = codebook.m_count
    valid, _, tally = _settle_bins(list(opsets.values()), m_count)
    flags = codebook.failure_flags
    failed = [[flags.get((cond, m), False) for m in range(m_count)] for cond in opsets]
    fell = ~valid | np.array(failed, dtype=bool).reshape(valid.shape)
    rows = zip(opsets.values(), valid.tolist(), fell.tolist(), _pooled(tally, fell))
    for opset, ok, fallback, pooled in rows:
        opset.is_valid_subpovm.update(enumerate(ok))
        opset.fallback_applied.update(enumerate(fallback))
        opset.pooled = pooled


def validate_subpovm(opset: BobOperatorSet, codebook: Codebook, cond) -> BobOperatorSet:
    """Check each bin sums below the identity; mark fallbacks and pool
    the other bins' counts (opset.pooled). cond keys the opset's
    conditioning in codebook.

    A bin falls back when its operators leak above identity by more than
    TAU_PSD, or when its case-1 codeword selection failed. Fallback bins are
    served by the trivial measurement {I} downstream, so their codewords
    are ignored there. The one-opset case of the staged pass
    (_settle_bins): certified norm bounds decide the bins they can from
    outside SETTLE_MARGIN, and the exact eigensolve the rest, so every
    flag is the exact route's. Alice's bins go through here;
    build_protocol_instance runs the pass once over all of Bob's opsets.
    """
    _flag_bins({cond: opset}, codebook)
    return opset


@dataclass(eq=False)
class AliceMeasurement:
    """Alice's randomized block measurement for one trial.

    opset counts the codewords of each bin. lambda_tilde maps the code of
    each produced x to sqrt(rho^n) sqrt(N_x scale) w_x, the factor of its
    operator N_x scale w_x w_x^dag sandwiched by sqrt(rho^n), N_x being
    its count over the non-fallback bins; sqrt_lambda_tilde maps it to
    the unsandwiched root sqrt(N_x scale) (w_x w_x^dag)^{1/2} held thin
    as (U, s), the root being U diag(s) U^dag. With a single Alice
    outcome letter the construction collapses and every operator is
    exactly I / (m_count * size) (trivial=True); the summed operator and
    its root are then I, and its factor is sqrt(rho^n).
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
    ab = block.alice_block
    codebook = generate_codebook(
        params,
        None,
        {_FREE: ab.pruned},
        rng,
        size=params.s_a,
        m_count=params.m_a,
        case=2,
    )

    trivial = block.single.n_alice == 1
    if trivial:
        # every codeword is the only sequence, code 0, and its operator
        # is scale * I: the identity stands in for its gamma factor
        eye = np.eye(block.rho_n.shape[0])
        stand_in = replace(
            ab, gamma_factors=[eye], norms=np.array([_factor_norms(eye)])
        )
        opset = replace(
            build_gamma(stand_in, codebook, _FREE, eps=0.0),
            scale=1.0 / (params.m_a * params.s_a),
            is_valid_subpovm=dict.fromkeys(range(params.m_a), True),
            fallback_applied=dict.fromkeys(range(params.m_a), False),
        )
        summed = {0: eye}
        sqrt_lambda_tilde = {0: (eye, np.ones(eye.shape[0]))}
    else:
        opset = build_gamma(ab, codebook, _FREE, eps=params.eps)
        validate_subpovm(opset, codebook, _FREE)
        summed, sqrt_lambda_tilde = {}, {}
        members, counts = opset.pooled
        factors = [ab.gamma_factors[x] for x in members.tolist()]
        roots = _thin_roots(factors)
        codes = ab.typical.codes[members].tolist()
        for code, count, w, (u, s) in zip(codes, counts.tolist(), factors, roots):
            weight = math.sqrt(count * opset.scale)
            summed[code] = weight * w
            sqrt_lambda_tilde[code] = (u, weight * s)
    sandwiched = _batched(lambda g: block.sqrt_rho_n @ g, list(summed.values()))
    return AliceMeasurement(
        opset=opset,
        codebook=codebook,
        lambda_tilde=dict(zip(summed, sandwiched)),
        sqrt_lambda_tilde=sqrt_lambda_tilde,
        trivial=trivial,
    )


def assemble_bob_povm(
    block: BlockScenario, alice: AliceMeasurement, bob_sets: dict
):
    """Combine the per-conditioning operators into Bob's block elements.

    Returns (lambda_tilde_b, lambda_prime_b): the simulated elements,
    sandwiched by the square roots of Alice's realized operators, and the
    intermediate variant sandwiched by the true sqrt(Lambda_{x_A^n}) over
    every typical conditioning, which isolates the Bob-codebook error.
    Per conditioning the counts pooled over the non-fallback bins by the
    sub-POVM pass are read (opset.pooled; fallback bins contribute
    nothing), and a member with count n adds
    the columns S sqrt(n scale) w_x, S being the sandwiching root; each
    root is applied once per conditioning, to all its pooled columns,
    and sqrt(rho^n) once to each table's columns before they are
    gathered per sequence: an element is returned as sqrt(rho^n) G, G
    (D x K) being its stacked columns and G G^dag its operator. Keys are
    the codes of the x_B^n that received an operator; a missing key means
    the zero operator. bob_sets is keyed by the x_A^n code.
    """
    tilde, prime = [], []
    for cond, opset in bob_sets.items():
        members, counts = opset.pooled
        if not members.size:
            continue
        cols = opset.columns(members, counts)
        layout = (opset.block.typical.codes[members], [c.shape[1] for c in cols])
        stacked = np.concatenate(cols, axis=1)
        prime.append((*layout, block.sqrt_lambda_a_n[cond] @ stacked))
        root = alice.sqrt_lambda_tilde.get(cond)
        if root is not None:
            tilde.append((*layout, _apply_root(root, stacked)))

    def by_sequence(parts):
        # the columns stably sorted by their sequence's code into one
        # buffer, so each sequence's columns are a view in conditioning
        # order; a member whose factor has no column still gets its key
        if not parts:
            return {}
        codes, widths, cols = (np.concatenate(a, axis=-1) for a in zip(*parts))
        out = block.sqrt_rho_n @ cols
        order = np.argsort(np.repeat(codes, widths), kind="stable")
        keys, owner = np.unique(codes, return_inverse=True)
        sizes = np.bincount(owner, weights=widths, minlength=keys.size).astype(np.intp)
        return dict(zip(keys.tolist(), _pieces(out[:, order], sizes)))

    return by_sequence(tilde), by_sequence(prime)


@dataclass(eq=False)
class ProtocolInstance:
    """One realized protocol: codebooks drawn, operators built. bob_sets
    is keyed by the x_A^n code, and Bob's tables by the x_B^n code, each
    holding sqrt(rho^n) G per element, G G^dag being its operator."""

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
    conditionals = {code: blk.pruned for code, blk in block.bob_blocks.items()}
    bob_codebook = generate_codebook(
        params,
        block.bob_marg_pruned,
        conditionals,
        np.random.default_rng(bob_ss),
    )
    bob_sets = {
        code: build_gamma(blk, bob_codebook, code, eps=params.eps)
        for code, blk in block.bob_blocks.items()
    }
    _flag_bins(bob_sets, bob_codebook)

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


def faithfulness_distance(reference, approx, rho_n):
    """Trace-norm deviation of a simulated measurement from a reference.

    Both tables map outcome sequences to dense operators; missing keys
    count as zero, and rho_n is the dense block state. Returns
    sum_x || sqrt(rho_n) (approx_x - ref_x) sqrt(rho_n) ||_1 by one
    D x D SVD per key. instance_report scores its factor tables with
    _signed_trace_norms instead.
    """
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


def _signed_trace_norm_kernel(a, k_plus):
    """||P P^dag - M M^dag||_1 for A = [P, M], P being A's first k_plus
    columns, for each A of a stack.

    With A = Q R and J = diag(+1 on P's columns, -1 on M's),
    P P^dag - M M^dag = A J A^dag = Q (R J R^dag) Q^dag, so the trace
    norm is the sum of |eigenvalues| of the Hermitian R J R^dag. R is
    min(D, K) x K for K stacked columns, so this holds for K >= D too.
    """
    r = np.linalg.qr(a, mode="r")
    signed = r.copy()
    signed[..., k_plus:] *= -1.0
    return np.abs(np.linalg.eigvalsh(signed @ _adjoint(r))).sum(axis=-1)


def _signed_trace_norms(pairs) -> list:
    """||P P^dag - M M^dag||_1 for each (P, M) of pairs, factors with the
    same rows; 0 when neither has a column. Pairs are grouped by rows,
    both column counts and dtype, with one stacked qr(mode="r") and one
    eigvalsh per chunk of a group (_by_shape)."""
    norms = _by_shape(
        [[plus, minus] for plus, minus in pairs],
        _signed_trace_norm_kernel,
        [plus.shape[1] for plus, _ in pairs],
    )
    return [0.0 if norm is None else float(norm) for norm in norms]


def _reference_terms(reference, law, approx, keys) -> tuple:
    """The terms of sum over the codes x that the mask keys selects of
    ||sqrt(rho^n) (approx_x - Lambda_x) sqrt(rho^n)||_1, both tables
    holding sandwiched factors sqrt(rho^n) F, reference densified. A key
    approx lacks scores tr(rho^n Lambda_x) = law[x], as Lambda_x is a PSD
    product; these are summed into the first item. The second lists the
    (approx_x, Lambda_x) pairs of the other keys. Both go in code order."""
    drawn = np.zeros(keys.size, dtype=bool)
    drawn[list(approx)] = True
    unused = sum(law[keys & ~drawn].tolist())
    pairs = [(approx[k], reference[k]) for k in np.flatnonzero(keys & drawn).tolist()]
    return unused, pairs


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
    draw_counts maps each conditioning's code to its codewords counted.
    """

    ok: bool
    violation: float
    draw_counts: dict


def empirical_e0_check(
    codebook: Codebook, conditionals: dict, eps: float
) -> E0Report:
    """Frequency-band check of realized codewords against the pruned law.

    Codewords are counted per member index over the cells whose
    selection did not fail, all conditionings at once, and only the
    drawn members are scored. An undrawn member has frequency 0, so its
    relative deviation is exactly 1, and it is out of band when
    (1 - eps) p > 0, which for a positive p does not depend on the
    member: the undrawn ones count through the smallest p.
    """
    keys = sorted(conditionals.keys())
    laws = [conditionals[c] for c in keys]
    sizes = [law.probs.size for law in laws]
    flags = codebook.failure_flags
    failed = [[flags.get((c, m), False) for m in range(codebook.m_count)] for c in keys]
    draws = np.array([codebook.cells[c] for c in keys], np.intp)
    draws = draws.reshape(len(keys), codebook.m_count, codebook.size)
    draws[np.array(failed, dtype=bool).reshape(draws.shape[:2])] = -1
    cond = np.nonzero(draws >= 0)[0]
    total = np.bincount(cond, minlength=len(keys))
    offsets = np.cumsum([0] + sizes)
    tally = np.bincount(offsets[cond] + draws[draws >= 0], minlength=offsets[-1])
    probs = np.concatenate([np.zeros(0)] + [law.probs for law in laws])
    owner = np.repeat(np.arange(len(keys)), sizes)  # each member's conditioning
    draw_counts = dict(zip(keys, total.tolist()))
    ok = bool(np.all(total > 0))
    worst = 0.0 if ok else float("inf")
    undrawn = (tally == 0) & (total[owner] > 0)
    if undrawn.any():
        worst = max(worst, 1.0)
        min_prob = np.minimum.reduceat(probs, offsets[:-1])[owner[undrawn]]
        ok = ok and not np.any((1.0 - eps) * min_prob > 0)
    drawn = np.flatnonzero(tally)
    if drawn.size:
        p = probs[drawn]
        freq = tally[drawn] / total[owner[drawn]]
        worst = max(worst, float(np.abs(freq / p - 1.0).max()))
        ok = ok and bool(np.all(((1.0 - eps) * p <= freq) & (freq <= (1.0 + eps) * p)))
    return E0Report(ok=ok, violation=worst, draw_counts=draw_counts)


def instance_report(instance: ProtocolInstance) -> FaithfulnessReport:
    """Score a realized protocol against the reference measurements.

    d_bob is the atypical part plus the typical part over the x_B^n
    marginal typical set; d2 and d3 split the typical part. Every table
    it reads, simulated or reference, already holds factors sandwiched by
    sqrt(rho^n), formed where the table was built; the drawn keys of all
    five quantities are paired and scored in one _signed_trace_norms
    call, and each quantity is summed in key order."""
    block = instance.block
    single = block.single
    empty = np.zeros((block.rho_n.shape[0], 0))
    tilde = instance.lambda_tilde_b
    prime = instance.lambda_prime_b
    typ = np.isin(np.arange(single.n_bob**block.n), block.bob_marg_typical.codes)
    # tr(rho^n Lambda_x) of every code x; each scored reference densified once
    law_b = reduce(np.multiply.outer, [single.p_b] * block.n).ravel()
    scored = set(tilde).union(k for k in prime if typ[k])
    ref_b = {k: block.lambda_ref_b[k].dense() for k in scored}

    def bob(approx, keys):
        return _reference_terms(ref_b, law_b, approx, keys)

    terms = {
        "atypical": bob(tilde, ~typ),
        "typical": bob(tilde, typ),
        "d2": bob(prime, typ),
        "d3": (0, [
            (prime.get(k, empty), tilde.get(k, empty))
            for k in sorted(scored) if typ[k]
        ]),
        "d_alice": _reference_terms(
            {k: block.lambda_a_n[k].dense() for k in instance.alice.lambda_tilde},
            reduce(np.multiply.outer, [single.p_a] * block.n).ravel(),
            instance.alice.lambda_tilde,
            np.ones(single.n_alice**block.n, dtype=bool),
        ),
    }
    # every drawn key scored at once, then each quantity summed in key
    # order as unused + drawn
    norms = iter(
        _signed_trace_norms([p for _, drawn in terms.values() for p in drawn])
    )
    score = {
        name: unused + sum(next(norms) for _ in drawn)
        for name, (unused, drawn) in terms.items()
    }
    atypical = score["atypical"]
    conditionals = {code: blk.pruned for code, blk in block.bob_blocks.items()}
    e0 = empirical_e0_check(
        instance.bob_codebook, conditionals, instance.params.eps
    )
    opsets = instance.bob_sets.values()
    return FaithfulnessReport(
        d_bob=float(atypical + score["typical"]),
        d_alice=float(score["d_alice"]),
        atypical=float(atypical),
        d2=float(score["d2"]),
        d3=float(score["d3"]),
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


def _codeword_weights(opset, words, m_count, adjoint) -> list:
    """Outcome weights m_count * tr(op_x F F^dag) = m_count * scale *
    ||F^dag w_x||^2 of one bin's codewords, one product per member, for a
    state given by the adjoint F^dag of its factor F."""
    factors = opset.block.gamma_factors
    distinct, inverse = np.unique(words, return_inverse=True)
    ys = [adjoint @ factors[x] for x in distinct.tolist()]
    per_member = [m_count * opset.scale * float(np.vdot(y, y).real) for y in ys]
    return [per_member[k] for k in inverse.tolist()]


def _collapsed_state(alice, code, rho_n) -> np.ndarray:
    """Factor F of the block state rho_n (Kronecker halves) after Alice's
    outcome code from a non-fallback bin, the state being F F^dag.

    The server collapses by the physical operator
    sqrt(scale) (w w^dag)^{1/2}; Alice's root U diag(s) U^dag of seq is a
    multiple of it, and the scale cancels in the quotient. The collapsed
    state is U M U^dag with the r x r matrix M = s (U^dag rho_n U) s, so
    F = U Q diag(sqrt(mu)) for the eigensystem M = Q diag(mu) Q^dag.
    """
    u, s = alice.sqrt_lambda_tilde[code]
    inner = (s[:, None] * (u.conj().T @ (rho_n @ u))) * s
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
    # identity. sqrt(rho^n) is its own adjoint factor of rho^n.
    words_a = alice.codebook.codewords(_FREE, m_a)
    weights = _codeword_weights(
        alice.opset, words_a, params.m_a, block.sqrt_rho_n
    )
    residual = 1.0 - sum(weights)
    j_a = _sample_index(weights, residual, rng)
    if j_a >= len(words_a):
        return degenerate("alice_garbage", m_a=m_a, m_b=m_b)
    code = int(block.alice_block.typical.codes[words_a[j_a]])

    if weights[j_a] <= TAU_PROB:
        return degenerate("alice_garbage", m_a=m_a, m_b=m_b, j_a=j_a)
    post = _collapsed_state(alice, code, block.rho_n)

    opset = instance.bob_sets.get(code)
    if opset is None:
        return degenerate("empty_conditional", m_a=m_a, m_b=m_b, j_a=j_a)
    if opset.fallback_applied.get(m_b, False):
        return degenerate("bob_fallback", m_a=m_a, m_b=m_b, j_a=j_a)

    words_b = instance.bob_codebook.codewords(code, m_b)
    weights_b = _codeword_weights(opset, words_b, params.m_b, post.conj().T)
    residual_b = 1.0 - sum(weights_b)
    j_pos = _sample_index(weights_b, residual_b, rng)
    if j_pos >= len(words_b):
        return degenerate("bob_garbage", m_a=m_a, m_b=m_b, j_a=j_a)
    bob_seq = opset.block.typical.members[words_b[j_pos]]
    if instance.mode == "with_alice_randomness":
        j_b = j_pos
    else:
        j_b = instance.bob_codebook.selected_index(code, m_b, j_pos)
    return SimulationTranscript(
        m_a=m_a,
        m_b=m_b,
        j_a=j_a,
        j_b=j_b,
        alice_output=block.alice_block.typical.members[words_a[j_a]],
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

    Trial i draws fresh codebooks from its own seed stream, the child i
    that SeedSequence(params.seed).spawn makes, so results are
    reproducible and independent of worker count. More trials than a
    list can index raise SizeLimitExceeded before any work.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if trials > sys.maxsize:
        raise SizeLimitExceeded(f"{trials} trials exceed a list's capacity")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    if block is None:
        block = build_block_scenario(single, params)

    def one(i):
        child = np.random.SeedSequence(params.seed, spawn_key=(i,))
        instance = build_protocol_instance(
            block, params, mode=mode, seed_seq=child
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

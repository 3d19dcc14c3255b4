"""Weak typicality for product distributions and product quantum states.

Sets are enumerated exactly (the alphabet-size-to-the-n blowup is capped),
membership is the entropy-deviation criterion |(-1/n) log2 p - H| <= delta,
and quantum projectors are assembled symbol-wise from eigenbranch products.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .errors import (
    EmptySupport,
    NotADistribution,
    SizeLimitExceeded,
    SizeMismatch,
)
from .linalg import (
    as_matrix,
    dimension_cap,
    entropy_bits,
    hermitian_part,
    kron_all,
    power_exceeds,
)

# float guard on the membership boundary
MEMBERSHIP_SLACK = 1e-12


@dataclass(frozen=True)
class TypicalSet:
    """Entropy-typical sequences of one product law, lexicographically
    sorted; codes holds each member's index in product order, ascending."""

    n: int
    delta: float
    alphabet_size: int
    members: tuple
    codes: np.ndarray = field(compare=False, repr=False)
    total_prob: float


@dataclass(frozen=True, eq=False)
class PrunedDistribution:
    """Typical set with its renormalized (pruned) probabilities.

    probs holds the probabilities in member order, so a member index
    reads its own; cum, their cumulative sums that sampling inverts, is
    set when the law is built.
    """

    base: TypicalSet
    probs: np.ndarray
    cum: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "cum", self.probs.cumsum())

    def prob(self, seq) -> float:
        """Probability of one sequence, found by its product-order code;
        0 off the typical set, at the wrong length or outside the
        alphabet."""
        k, codes, seq = self.base.alphabet_size, self.base.codes, tuple(seq)
        if len(seq) != self.base.n or not all(0 <= s < k for s in seq):
            return 0.0
        code = reduce(lambda c, s: c * k + s, seq, 0)
        i = np.searchsorted(codes, code)
        return float(self.probs[i]) if i < codes.size and codes[i] == code else 0.0

    def support(self) -> tuple:
        return self.base.members


@dataclass(frozen=True, eq=False)
class TypicalProjector:
    """Projector onto typical eigenvalue branches of a product state."""

    projector: np.ndarray
    rank: int


def _check_distribution(p) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64).ravel()
    if p.size == 0:
        raise NotADistribution("empty probability vector")
    if float(p.min()) < -1e-12:
        raise NotADistribution(f"negative probability {p.min():.3e}")
    if abs(float(p.sum()) - 1.0) > 1e-9:
        raise NotADistribution(f"probabilities sum to {p.sum()!r}")
    return np.clip(p, 0.0, None)


def _guard_enumeration(alphabet: int, n: int):
    cap = dimension_cap()
    if power_exceeds(alphabet, n, cap):
        raise SizeLimitExceeded(
            f"enumeration size {alphabet}^{n} exceeds cap {cap}"
        )


def _typical_mask(per_position_laws, delta: float):
    """Log2-probability of every sequence, in product order, and the mask
    of those whose sample entropy lies within delta of the
    empirical-average entropy of the per-position laws."""
    n = len(per_position_laws)
    h_bar = float(np.mean([entropy_bits(p) for p in per_position_laws]))
    with np.errstate(divide="ignore"):
        logs = [np.log2(p) for p in per_position_laws]
    total = reduce(np.add.outer, logs).ravel()
    dev = np.abs(-total / n - h_bar)
    return total, np.isfinite(total) & (dev <= delta + MEMBERSHIP_SLACK)


def _typical_set(per_position_laws, delta: float) -> TypicalSet:
    total, mask = _typical_mask(per_position_laws, delta)
    flat = np.flatnonzero(mask)
    shape = [p.size for p in per_position_laws]
    members = tuple(zip(*(c.tolist() for c in np.unravel_index(flat, shape))))
    total_prob = 0.0
    for i in flat:
        total_prob += float(np.exp2(total[i]))
    return TypicalSet(
        n=len(per_position_laws),
        delta=float(delta),
        alphabet_size=shape[0],
        members=members,
        codes=flat,
        total_prob=total_prob,
    )


def build_typical_set(p, n: int, delta: float) -> TypicalSet:
    """All length-n sequences with sample entropy within delta of H(p).

    The conditional set along a single symbol whose law is p; it may be
    empty.
    """
    if n < 1:
        raise SizeMismatch(f"blocklength must be >= 1, got {n}")
    if delta < 0:
        raise ValueError("delta must be >= 0")
    p = _check_distribution(p)
    _guard_enumeration(p.size, n)
    return _typical_set([p] * n, delta)


def prune(p, ts: TypicalSet) -> PrunedDistribution:
    """Restrict the product law to the typical set and renormalize."""
    p = np.asarray(p, dtype=np.float64).reshape(1, -1)
    return prune_conditional(p, (0,) * ts.n, ts)


def _check_conditional(p_cond, used_rows) -> np.ndarray:
    p_cond = np.asarray(p_cond, dtype=np.float64)
    if p_cond.ndim != 2:
        raise SizeMismatch("conditional law must be a (conditioning, output) matrix")
    for a in used_rows:
        if not 0 <= a < p_cond.shape[0]:
            raise SizeMismatch(f"conditioning symbol {a} outside row range")
        _check_distribution(p_cond[a])
    return np.clip(p_cond, 0.0, None)


def conditional_typical_set(p_cond, x_a_seq, n: int, delta: float) -> TypicalSet:
    """Output sequences conditionally typical along a fixed conditioning sequence.

    Membership compares the sample conditional entropy against the
    empirical-average conditional entropy (1/n) sum_i H(p(.|a_i)). Raises
    EmptySupport when nothing qualifies.
    """
    x_a_seq = tuple(int(a) for a in x_a_seq)
    if len(x_a_seq) != n:
        raise SizeMismatch(f"conditioning sequence length {len(x_a_seq)} != n = {n}")
    if delta < 0:
        raise ValueError("delta must be >= 0")
    p_cond = _check_conditional(p_cond, set(x_a_seq))
    _guard_enumeration(p_cond.shape[1], n)
    ts = _typical_set([p_cond[a] for a in x_a_seq], delta)
    if not ts.members:
        raise EmptySupport(
            f"conditional typical set for {x_a_seq} is empty at delta={delta}"
        )
    return ts


def prune_conditional(p_cond, x_a_seq, ts: TypicalSet) -> PrunedDistribution:
    """Pruned conditional law p(x_b^n | x_a^n) / S on the conditional set."""
    x_a_seq = tuple(int(a) for a in x_a_seq)
    if len(x_a_seq) != ts.n:
        raise SizeMismatch("conditioning sequence length does not match the set")
    p_cond = _check_conditional(p_cond, set(x_a_seq))
    if p_cond.shape[1] != ts.alphabet_size:
        raise SizeMismatch("law alphabet does not match the typical set")
    # the product law of every sequence, read at the members' codes
    raw = reduce(np.multiply.outer, [p_cond[a] for a in x_a_seq]).ravel()[ts.codes]
    s = float(raw.sum())
    if s <= 0.0:
        raise EmptySupport("typical set carries zero probability mass")
    return PrunedDistribution(base=ts, probs=raw / s)


def branch_eigensystem(state):
    """Eigenvalues, clipped at zero, and eigenvectors of one letter's state:
    the branches whose products the quantum typical projectors select."""
    w, v = np.linalg.eigh(hermitian_part(as_matrix(state)))
    return np.clip(w, 0.0, None), v


def conditional_quantum_typical_projector(
    states, cond_seq, delta: float
) -> TypicalProjector:
    """Projector onto typical eigenbranches of the product state along cond_seq.

    states maps conditioning symbols to density operators; position i
    contributes the eigenbasis of states[cond_seq[i]]. A branch survives
    when its eigenvalue product lies within 2^{+-n delta} of
    2^{-n Hbar}, Hbar being the empirical-average entropy of the
    realized symbols.
    """
    cond_seq = tuple(cond_seq)
    n = len(cond_seq)
    if n < 1:
        raise SizeMismatch("conditioning sequence must be nonempty")
    if delta < 0:
        raise ValueError("delta must be >= 0")
    decs = {}
    for sym in set(cond_seq):
        if sym not in states:
            raise SizeMismatch(f"no state supplied for conditioning symbol {sym!r}")
        decs[sym] = branch_eigensystem(states[sym])
    dims = [decs[sym][0].size for sym in cond_seq]
    total_dim = int(np.prod(dims))
    if total_dim > dimension_cap():
        raise SizeLimitExceeded(
            f"projector dimension {total_dim} exceeds cap {dimension_cap()}"
        )
    _, mask = _typical_mask([decs[sym][0] for sym in cond_seq], delta)
    v_total = kron_all([decs[sym][1] for sym in cond_seq])
    cols = v_total[:, mask]
    projector = cols @ cols.conj().T
    return TypicalProjector(projector=projector, rank=int(mask.sum()))


def sample_sequences(
    pd: PrunedDistribution, rng: np.random.Generator, count: int
) -> np.ndarray:
    """count exact draws by cumulative inversion over the sorted member
    list, as member indices (positions in pd.support()). One uniform per
    draw: drawing a + b at once gives the draws of a call for a and then
    one for b. Raises SizeLimitExceeded when numpy cannot hold count draws.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    try:
        u = rng.random(count)
    except (MemoryError, ValueError) as exc:
        # numpy refuses a count whose array it cannot allocate or index
        raise SizeLimitExceeded(f"cannot draw {count} sequences: {exc}") from None
    return np.minimum(
        np.searchsorted(pd.cum, u, side="right"), len(pd.base.members) - 1
    )

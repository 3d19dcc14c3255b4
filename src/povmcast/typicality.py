"""Weak typicality for product distributions and product quantum states.

Sets are enumerated exactly (the alphabet-size-to-the-n blowup is capped),
membership is the entropy-deviation criterion |(-1/n) log2 p - H| <= delta,
and quantum projectors are assembled symbol-wise from eigenbranch products.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import (
    EmptySupport,
    NotADistribution,
    SizeLimitExceeded,
    SizeMismatch,
)
from .linalg import (
    DensityOperator,
    as_matrix,
    dimension_cap,
    hermitian_part,
    kron_all,
)

# float guard on the membership boundary
MEMBERSHIP_SLACK = 1e-12


@dataclass(frozen=True)
class TypicalSet:
    """Entropy-typical sequences of one product law, lexicographically sorted."""

    n: int
    delta: float
    alphabet_size: int
    members: tuple
    total_prob: float

    def __contains__(self, seq) -> bool:
        seq = tuple(seq)
        i = bisect_left(self.members, seq)
        return i < len(self.members) and self.members[i] == seq


@dataclass(frozen=True, eq=False)
class PrunedDistribution:
    """Typical set with its renormalized (pruned) probabilities."""

    base: TypicalSet
    probs: dict

    def prob(self, seq) -> float:
        return self.probs.get(tuple(seq), 0.0)

    def support(self) -> tuple:
        return self.base.members

    def prob_vector(self) -> np.ndarray:
        return np.array([self.probs[m] for m in self.base.members])


@dataclass(frozen=True, eq=False)
class TypicalProjector:
    """Projector onto typical eigenvalue branches of a product state."""

    projector: np.ndarray
    kind: str
    rank: int
    conditioning: tuple | None = None


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
    if alphabet**n > dimension_cap():
        raise SizeLimitExceeded(
            f"enumeration size {alphabet}^{n} exceeds cap {dimension_cap()}"
        )


def _entropy_bits(p: np.ndarray) -> float:
    q = p[p > 0.0]
    return float(-(q * np.log2(q)).sum())


def _typical_mask(per_position_laws, delta: float):
    """Log2-probability of every sequence, in product order, and the mask
    of those whose sample entropy lies within delta of the
    empirical-average entropy of the per-position laws."""
    n = len(per_position_laws)
    h_bar = float(np.mean([_entropy_bits(p) for p in per_position_laws]))
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
    p = _check_distribution(p)
    if p.size != ts.alphabet_size:
        raise SizeMismatch("distribution alphabet does not match the typical set")
    return prune_conditional(p.reshape(1, -1), (0,) * ts.n, ts)


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
    raw = np.array(
        [float(np.prod([p_cond[a, b] for a, b in zip(x_a_seq, m)])) for m in ts.members]
    )
    s = float(raw.sum())
    if s <= 0.0:
        raise EmptySupport("typical set carries zero probability mass")
    probs = {m: float(v / s) for m, v in zip(ts.members, raw)}
    return PrunedDistribution(base=ts, probs=probs)


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
    return TypicalProjector(
        projector=projector,
        kind="conditional",
        rank=int(mask.sum()),
        conditioning=cond_seq,
    )


def quantum_typical_projector(rho, n: int, delta: float) -> TypicalProjector:
    """Typical projector of rho^(x n), the unconditioned special case."""
    rho = DensityOperator.coerce(rho)
    tp = conditional_quantum_typical_projector({0: rho}, (0,) * n, delta)
    return TypicalProjector(
        projector=tp.projector, kind="marginal", rank=tp.rank, conditioning=None
    )


def sample_sequence(pd: PrunedDistribution, rng: np.random.Generator) -> tuple:
    """One exact draw by cumulative inversion over the sorted member list."""
    return sample_sequences(pd, rng, 1)[0]


def sample_sequences(
    pd: PrunedDistribution, rng: np.random.Generator, count: int
) -> list:
    """count draws consuming the same uniform stream as repeated single draws."""
    if count < 0:
        raise ValueError("count must be >= 0")
    if count == 0:
        return []
    cum = np.cumsum(pd.prob_vector())
    u = rng.random(count)
    idxs = np.minimum(
        np.searchsorted(cum, u, side="right"), len(pd.base.members) - 1
    )
    return [pd.base.members[int(i)] for i in idxs]


def typical_set_to_json(ts: TypicalSet, pruned: PrunedDistribution | None = None) -> dict:
    out = {
        "n": ts.n,
        "delta": ts.delta,
        "alphabet_size": ts.alphabet_size,
        "total_prob": ts.total_prob,
        "members": [list(m) for m in ts.members],
    }
    if pruned is not None:
        out["pruned_probs"] = [pruned.probs[m] for m in ts.members]
    return out

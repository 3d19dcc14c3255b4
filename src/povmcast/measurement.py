"""POVM algebra for two-receiver broadcast scenarios.

A central measurement {L_x} is split between two receivers through
outcome functions g_A and g_B. This module provides coarse graining,
post-measurement states, the conditional POVM a server would apply after
announcing g_A(x), and the reference blocks sqrt(rho) L_x sqrt(rho): the
d x d operators that stand for what measuring L_x leaves in a system
purifying rho. The equivalence check compares two measurements by these
blocks, and the rate region is computed from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyBranch,
    LabelMismatch,
    NegligibleProbability,
    NotHermitian,
    NotPsd,
    SizeMismatch,
)
from .linalg import (
    TAU_PROB,
    TAU_PSD,
    TAU_SPEC,
    DensityOperator,
    as_matrix,
    below_psd_floor,
    hermitian_deviation,
    hermitian_part,
    is_hermitian,
    pinv_sqrt_on_support,
    sqrt_psd,
    support_projector,
    trace_distance,
)

# relative eigenvalue cutoff when taking supports of coarse POVM elements
SUPPORT_CUTOFF_REL = 1e-10


@dataclass(frozen=True, eq=False)
class Povm:
    """POVM as a tuple of PSD elements with hashable outcome labels.

    complete=True asserts the elements sum to the identity (checked);
    complete=False only requires the sum to stay below the identity.
    """

    elements: tuple
    labels: tuple
    complete: bool = True

    def __post_init__(self):
        elements = tuple(np.asarray(e, dtype=np.complex128) for e in self.elements)
        if not elements:
            raise SizeMismatch("POVM needs at least one element")
        dim = elements[0].shape[0]
        for idx, e in enumerate(elements):
            if e.ndim != 2 or e.shape != (dim, dim):
                raise DimensionMismatch(
                    f"POVM element {idx}: shape {e.shape}, expected ({dim}, {dim})"
                )
            if not is_hermitian(e):
                dev = hermitian_deviation(e)
                raise NotHermitian(f"POVM element {idx}: not Hermitian (dev {dev:.3e})")
            w = np.linalg.eigvalsh(hermitian_part(e))
            if below_psd_floor(w):
                raise NotPsd(f"POVM element {idx}: eigenvalue {w.min():.3e}")
        if len(self.labels) != len(elements):
            raise LabelMismatch(
                f"{len(self.labels)} labels for {len(elements)} elements"
            )
        if len(set(self.labels)) != len(self.labels):
            raise LabelMismatch("outcome labels must be distinct")
        total = sum(elements)
        gap = np.eye(dim) - total
        if self.complete:
            dev = float(np.linalg.norm(gap, 2))
            if dev > TAU_SPEC * max(1.0, float(np.linalg.norm(total, 2))):
                raise NotPsd(f"POVM elements sum to I only within {dev:.3e}")
        else:
            w = np.linalg.eigvalsh(hermitian_part(gap))
            if below_psd_floor(w):
                raise NotPsd(f"sub-POVM sum exceeds identity by {-w.min():.3e}")
        frozen = []
        for e in elements:
            e = e.copy()
            e.setflags(write=False)
            frozen.append(e)
        object.__setattr__(self, "elements", tuple(frozen))
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]

    @property
    def n_outcomes(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class OutcomeFunction:
    """Map from dense outcome indices 0..domain_size-1 onto 0..image_size-1.

    The image must be hit exhaustively so coarse POVMs have no silent
    zero branches by construction.
    """

    domain_size: int
    image_size: int
    table: tuple

    def __post_init__(self):
        table = tuple(int(v) for v in self.table)
        if len(table) != self.domain_size:
            raise SizeMismatch(
                f"table length {len(table)} != domain size {self.domain_size}"
            )
        for idx, v in enumerate(table):
            if not 0 <= v < self.image_size:
                raise LabelMismatch(f"table[{idx}] = {v} outside 0..{self.image_size - 1}")
        if set(table) != set(range(self.image_size)):
            missing = sorted(set(range(self.image_size)) - set(table))
            raise LabelMismatch(f"image indices {missing} never attained")
        object.__setattr__(self, "table", table)

    def __call__(self, x: int) -> int:
        return self.table[x]

    def preimage(self, value: int) -> tuple:
        return tuple(i for i, v in enumerate(self.table) if v == value)

    @classmethod
    def identity(cls, k: int) -> "OutcomeFunction":
        return cls(domain_size=k, image_size=k, table=tuple(range(k)))

    @classmethod
    def constant(cls, k: int) -> "OutcomeFunction":
        return cls(domain_size=k, image_size=1, table=(0,) * k)


class EquivalenceResult(NamedTuple):
    equivalent: bool
    max_deviation: float


def born_probabilities(rho, povm: Povm) -> np.ndarray:
    """Outcome distribution Tr{L_x rho} of a POVM on a state."""
    r = DensityOperator.coerce(rho).mat
    p = np.array([float(np.real(np.trace(e @ r))) for e in povm.elements])
    return np.clip(p, 0.0, None)


def coarse_grain(povm: Povm, g: OutcomeFunction) -> Povm:
    """Merge POVM elements along an outcome function: L_y = sum_{g(x)=y} L_x."""
    if g.domain_size != povm.n_outcomes:
        raise SizeMismatch(
            f"outcome function domain {g.domain_size} != POVM outcomes {povm.n_outcomes}"
        )
    dim = povm.dim
    sums = [np.zeros((dim, dim), dtype=np.complex128) for _ in range(g.image_size)]
    for x, e in enumerate(povm.elements):
        sums[g(x)] = sums[g(x)] + e
    return Povm(
        elements=tuple(sums),
        labels=tuple(range(g.image_size)),
        complete=povm.complete,
    )


def post_measurement_state(rho, element) -> tuple:
    """Probability and collapsed state sqrt(L) rho sqrt(L) / Tr{L rho}."""
    r = DensityOperator.coerce(rho)
    e = as_matrix(element)
    prob = float(np.real(np.trace(e @ r.mat)))
    if prob <= TAU_PROB:
        raise NegligibleProbability(
            f"outcome probability {prob:.3e} at or below {TAU_PROB:.1e}"
        )
    root = sqrt_psd(e)
    state = hermitian_part(root @ r.mat @ root) / prob
    return prob, DensityOperator(state)


def conditional_povm(
    povm: Povm,
    g_a: OutcomeFunction,
    g_b: OutcomeFunction,
    x_a: int,
) -> Povm:
    """POVM the server applies after announcing the coarse outcome x_a.

    Element for x_b is pinv_sqrt(L_{x_a}) [sum_{g_A(x)=x_a, g_B(x)=x_b} L_x]
    pinv_sqrt(L_{x_a}). The elements sum to the support projector of
    L_{x_a}; the orthogonal complement is attached as an explicit sink
    outcome (label g_b.image_size) so the returned POVM is complete.
    """
    if g_a.domain_size != povm.n_outcomes or g_b.domain_size != povm.n_outcomes:
        raise SizeMismatch("outcome function domains must match POVM outcome count")
    if not 0 <= x_a < g_a.image_size:
        raise LabelMismatch(f"conditioning outcome {x_a} outside g_A image")
    dim = povm.dim
    branch = np.zeros((dim, dim), dtype=np.complex128)
    for x in g_a.preimage(x_a):
        branch = branch + povm.elements[x]
    scale = float(np.linalg.norm(branch, 2))
    if scale <= TAU_PSD:
        raise EmptyBranch(f"coarse element for x_a={x_a} is numerically zero")
    cutoff = SUPPORT_CUTOFF_REL * scale
    pinv_root = pinv_sqrt_on_support(branch, cutoff)
    proj = support_projector(branch, cutoff)
    elements = []
    for x_b in range(g_b.image_size):
        joint = np.zeros((dim, dim), dtype=np.complex128)
        for x in g_a.preimage(x_a):
            if g_b(x) == x_b:
                joint = joint + povm.elements[x]
        elements.append(hermitian_part(pinv_root @ joint @ pinv_root))
    sink = hermitian_part(np.eye(dim) - proj)
    elements.append(sink)
    labels = tuple(range(g_b.image_size)) + (g_b.image_size,)
    return Povm(elements=tuple(elements), labels=labels, complete=True)


def sequential_composition(povm: Povm, g_a: OutcomeFunction, g_b: OutcomeFunction) -> Povm:
    """Effective POVM for x_b when the coarse x_a measurement runs first.

    L_b = sum_a sqrt(L_a) L_{b|a} sqrt(L_a). Branches with a zero coarse
    element contribute nothing and are skipped. The sink outcomes vanish
    identically so the result is indexed by x_b alone.
    """
    coarse = coarse_grain(povm, g_a)
    dim = povm.dim
    out = [np.zeros((dim, dim), dtype=np.complex128) for _ in range(g_b.image_size)]
    for x_a in range(g_a.image_size):
        branch = coarse.elements[x_a]
        if float(np.linalg.norm(branch, 2)) <= TAU_PSD:
            continue
        root = sqrt_psd(branch)
        cond = conditional_povm(povm, g_a, g_b, x_a)
        for x_b in range(g_b.image_size):
            out[x_b] = out[x_b] + root @ cond.elements[x_b] @ root
    elements = tuple(hermitian_part(e) for e in out)
    return Povm(elements=elements, labels=tuple(range(g_b.image_size)), complete=povm.complete)


def reference_blocks(rho, operators) -> np.ndarray:
    """sqrt(rho) E sqrt(rho) for each operator E of a stack of d x d ones.

    Purifying rho and measuring E_x on the system leaves the purifying
    reference system in the unnormalized block p(x) rho^R_x, which is
    unitarily equivalent to the transpose of sqrt(rho) E_x sqrt(rho).
    Every entropy and trace norm of the reference blocks is therefore
    one of these d x d blocks', whichever purification is taken. The
    result has the stack's shape; its traces are the Born probabilities.
    """
    r = DensityOperator.coerce(rho)
    ops = np.asarray(operators, dtype=np.complex128)
    if ops.ndim < 2 or ops.shape[-2:] != (r.dim, r.dim):
        raise DimensionMismatch(
            f"state dim {r.dim} does not match operators of shape {ops.shape}"
        )
    root = sqrt_psd(r.mat)
    # the Hermitian part of each block, as hermitian_part takes it
    half = 0.5 * (root @ ops @ root)
    return half + half.conj().swapaxes(-1, -2)


def measurements_equivalent(
    rho, povm_a: Povm, povm_b: Povm, tol: float
) -> EquivalenceResult:
    """Compare two POVMs on the state rho through its purifying reference.

    For every outcome label x the deviation is
    ||sqrt(rho) (A_x - B_x) sqrt(rho)||_1, the trace norm between the
    unnormalized reference blocks the two measurements leave; it is the
    same for every purification of rho. Returns the verdict together
    with the worst per-label deviation.
    """
    if set(povm_a.labels) != set(povm_b.labels):
        raise LabelMismatch("POVMs carry different outcome label sets")
    b_elements = [povm_b.elements[povm_b.labels.index(x)] for x in povm_a.labels]
    pairs = zip(
        reference_blocks(rho, povm_a.elements), reference_blocks(rho, b_elements)
    )
    worst = max(trace_distance(a, b) for a, b in pairs)
    return EquivalenceResult(equivalent=worst <= tol, max_deviation=worst)

"""POVM algebra for two-receiver broadcast scenarios.

A central measurement {L_x} is split between two receivers through
outcome functions g_A and g_B. This module provides coarse graining,
post-measurement states, the conditional POVM a server would apply after
announcing g_A(x), and equivalence checks at the level of a purifying
reference system.
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
    PureState,
    as_matrix,
    below_psd_floor,
    canonical_purification,
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


@dataclass(frozen=True, eq=False)
class CqState:
    """Classical-quantum output: outcome labels, probabilities, reference states.

    Outcomes with probability at or below TAU_PROB carry a maximally mixed
    placeholder state; entropy code skips them by their probability.
    """

    outcome_labels: tuple
    probs: np.ndarray
    ref_states: tuple

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64).copy()
        if p.shape != (len(self.outcome_labels),):
            raise SizeMismatch("probs length does not match labels")
        if len(self.ref_states) != len(self.outcome_labels):
            raise SizeMismatch("ref_states length does not match labels")
        if float(p.min(initial=0.0)) < -TAU_PROB:
            raise NotPsd(f"negative outcome probability {p.min():.3e}")
        if abs(float(p.sum()) - 1.0) > 1e-9:
            raise NotPsd(f"outcome probabilities sum to {p.sum()!r}")
        p = np.clip(p, 0.0, None)
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "outcome_labels", tuple(self.outcome_labels))
        object.__setattr__(self, "ref_states", tuple(self.ref_states))

    @property
    def dim_ref(self) -> int:
        return self.ref_states[0].dim

    def weighted_state(self, idx: int) -> np.ndarray:
        """p(x) * rho_x, the unnormalized reference block for outcome idx."""
        return float(self.probs[idx]) * self.ref_states[idx].mat


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


def measurement_channel_with_reference(phi: PureState, povm: Povm) -> CqState:
    """Measure the C side of a purification, keeping the reference system.

    Outcome x gets probability <phi|(I (x) L_x)|phi> and reference state
    Tr_C[(I (x) L_x) |phi><phi|] / p(x).
    """
    d_c = povm.dim
    if phi.dim % d_c != 0:
        raise DimensionMismatch(
            f"purification dim {phi.dim} is not a multiple of POVM dim {d_c}"
        )
    d_r = phi.dim // d_c
    psi = phi.vec.reshape(d_r, d_c)
    probs = []
    states = []
    for e in povm.elements:
        unnorm = psi @ e.T @ psi.conj().T
        p = float(np.real(np.trace(unnorm)))
        p = max(p, 0.0)
        probs.append(p)
        if p <= TAU_PROB:
            states.append(DensityOperator.maximally_mixed(d_r))
        else:
            states.append(DensityOperator(hermitian_part(unnorm) / p))
    return CqState(
        outcome_labels=povm.labels,
        probs=np.asarray(probs),
        ref_states=tuple(states),
    )


def measurements_equivalent(
    phi: PureState, povm_a: Povm, povm_b: Povm, tol: float
) -> EquivalenceResult:
    """Compare two POVMs through the joint reference-outcome state.

    For every outcome label the unnormalized reference blocks
    p(x) rho^R_x must agree in trace norm within tol. Returns the verdict
    together with the worst per-outcome deviation.
    """
    if set(povm_a.labels) != set(povm_b.labels):
        raise LabelMismatch("POVMs carry different outcome label sets")
    cq_a = measurement_channel_with_reference(phi, povm_a)
    cq_b = measurement_channel_with_reference(phi, povm_b)
    blocks_b = {lab: cq_b.weighted_state(i) for i, lab in enumerate(cq_b.outcome_labels)}
    worst = 0.0
    for i, lab in enumerate(cq_a.outcome_labels):
        dev = trace_distance(cq_a.weighted_state(i), blocks_b[lab])
        worst = max(worst, dev)
    return EquivalenceResult(equivalent=worst <= tol, max_deviation=worst)


def joint_outcome_model(
    rho, povm: Povm, g_a: OutcomeFunction, g_b: OutcomeFunction
) -> CqState:
    """Classical-quantum state of (x_a, x_b) with the purifying reference.

    Labels are (x_a, x_b) pairs over the full product range; pairs no fine
    outcome maps to appear with probability zero and a maximally mixed
    placeholder state.
    """
    if g_a.domain_size != povm.n_outcomes or g_b.domain_size != povm.n_outcomes:
        raise SizeMismatch("outcome function domains must match POVM outcome count")
    rho = DensityOperator.coerce(rho)
    if rho.dim != povm.dim:
        raise DimensionMismatch(f"state dim {rho.dim} != POVM dim {povm.dim}")
    dim = povm.dim
    pairs = [(a, b) for a in range(g_a.image_size) for b in range(g_b.image_size)]
    elements = []
    for a, b in pairs:
        e = np.zeros((dim, dim), dtype=np.complex128)
        for x in range(povm.n_outcomes):
            if g_a(x) == a and g_b(x) == b:
                e = e + povm.elements[x]
        elements.append(e)
    joint = Povm(elements=tuple(elements), labels=tuple(pairs), complete=povm.complete)
    phi = canonical_purification(rho)
    return measurement_channel_with_reference(phi, joint)


def cq_marginal(cq: CqState, component: int) -> CqState:
    """Marginalize a pair-labeled CqState onto one label component."""
    values = sorted({lab[component] for lab in cq.outcome_labels})
    probs = []
    states = []
    d = cq.dim_ref
    for v in values:
        idxs = [i for i, lab in enumerate(cq.outcome_labels) if lab[component] == v]
        p = float(sum(cq.probs[i] for i in idxs))
        probs.append(p)
        if p <= TAU_PROB:
            states.append(DensityOperator.maximally_mixed(d))
        else:
            avg = sum(cq.weighted_state(i) for i in idxs) / p
            states.append(DensityOperator(hermitian_part(avg)))
    return CqState(
        outcome_labels=tuple(values),
        probs=np.asarray(probs),
        ref_states=tuple(states),
    )


def cq_conditional(cq: CqState, component: int, value) -> CqState:
    """Condition a pair-labeled CqState on one label component's value."""
    idxs = [i for i, lab in enumerate(cq.outcome_labels) if lab[component] == value]
    if not idxs:
        raise LabelMismatch(f"no outcomes with component {component} == {value!r}")
    total = float(sum(cq.probs[i] for i in idxs))
    if total <= TAU_PROB:
        raise NegligibleProbability(
            f"conditioning mass {total:.3e} at or below {TAU_PROB:.1e}"
        )
    other = 1 - component
    labels = tuple(cq.outcome_labels[i][other] for i in idxs)
    probs = np.asarray([float(cq.probs[i]) / total for i in idxs])
    states = tuple(cq.ref_states[i] for i in idxs)
    return CqState(outcome_labels=labels, probs=probs, ref_states=states)

"""
Measuring in two steps is the same measurement
==============================================

A server measures a qubit trine and announces a coarse summary x_a to
Alice. Conditioned on x_a it can then run a second measurement whose
outcome refines the summary into Bob's value x_b. This script builds the
conditional measurements explicitly and checks that the two-step
procedure is statistically indistinguishable from coarse-graining the
trine directly, even to a system that purifies the state: for every
outcome x, the trace norm ||sqrt(rho) (A_x - B_x) sqrt(rho)||_1 between
what the two measurements leave in that system is zero.
"""

import numpy as np

from povmcast import (
    DensityOperator,
    OutcomeFunction,
    Povm,
    coarse_grain,
    conditional_povm,
    measurements_equivalent,
    sequential_composition,
)

# the symmetric three-outcome qubit measurement
s3 = np.sqrt(3.0)
vecs = [(1.0, 0.0), (0.5, s3 / 2.0), (-0.5, s3 / 2.0)]
elems = tuple(
    (2.0 / 3.0) * np.outer(np.array(v), np.array(v)) for v in vecs
)
trine = Povm(elements=elems, labels=(0, 1, 2))

# Alice learns whether the outcome was 0 ("first") or not; Bob learns
# whether it was 2 ("last") or not
g_a = OutcomeFunction(domain_size=3, image_size=2, table=(0, 1, 1))
g_b = OutcomeFunction(domain_size=3, image_size=2, table=(0, 0, 1))

rho = DensityOperator(np.diag([0.6, 0.4]))

print("conditional measurements after each announcement:")
for x_a in range(g_a.image_size):
    cond = conditional_povm(trine, g_a, g_b, x_a)
    for lab, e in zip(cond.labels, cond.elements):
        tag = "sink" if lab == g_b.image_size else f"x_b={lab}"
        print(f"  x_a={x_a} {tag:6s} trace {np.trace(e).real:.6f}")

# the effective one-shot measurement Bob experiences
seq = sequential_composition(trine, g_a, g_b)
direct = coarse_grain(trine, g_b)

verdict = measurements_equivalent(rho, seq, direct, tol=1e-7)
print()
print(f"equivalent through the reference: {verdict.equivalent}")
print(f"worst per-outcome deviation:      {verdict.max_deviation:.3e}")

# the equivalence is a property of the measurement, not of one state:
# repeat with randomized full-rank states
rng = np.random.default_rng(7)
worst = 0.0
for _ in range(25):
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    raw = g @ g.conj().T + 1e-3 * np.eye(2)
    state = DensityOperator(raw / np.trace(raw).real)
    v = measurements_equivalent(state, seq, direct, tol=1e-7)
    worst = max(worst, v.max_deviation)
    assert v.equivalent
print(f"25 random states, worst deviation: {worst:.3e}")

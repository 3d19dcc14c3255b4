"""
Typical sequences, pruned laws, and their quantum shadow
========================================================

Block coding lives on typical sets: the sequences whose sample entropy
sits within delta of the source entropy. This script enumerates them for
a small biased source, shows how the width knob trades coverage for
size, renormalizes the law onto the set, samples from it reproducibly,
and builds the matching projector for the quantum version of the same
statement.
"""

import numpy as np

from povmcast import (
    build_typical_set,
    conditional_typical_set,
    prune,
    sample_sequences,
)
from povmcast.typicality import (
    conditional_quantum_typical_projector,
    prune_conditional,
)

p = np.array([0.75, 0.25])
n = 4

# widen delta and watch membership grow toward full coverage
print(f"source (0.75, 0.25), n = {n}")
print("delta   members   probability captured")
for delta in (0.1, 0.2, 0.3, 0.5, 0.9):
    ts = build_typical_set(p, n, delta)
    print(f" {delta:.1f}     {len(ts.members):3d}       {ts.total_prob:.4f}")
print()

# the pruned law renormalizes the product law onto the set
ts = build_typical_set(p, n, 0.3)
pruned = prune(p, ts)
print(f"pruned law on the delta = 0.3 set ({len(ts.members)} members):")
for seq in ts.members[:6]:
    print(f"  {seq}  {pruned.prob(seq):.4f}")
print("  ...")
print()

# sampling is seeded and exact: frequencies converge on the pruned law;
# each draw is a member index, its position in the sorted member list
rng = np.random.default_rng(11)
draws = sample_sequences(pruned, rng, 20000)
seq0 = ts.members[0]
freq = np.count_nonzero(draws == 0) / len(draws)
print(f"frequency of {seq0} in 20000 draws: {freq:.4f}"
      f"  (pruned law says {pruned.prob(seq0):.4f})")
print()

# conditional version: membership depends on the conditioning sequence
# through the empirical average of the per-symbol conditional entropies
p_cond = np.array([[0.9, 0.1], [0.5, 0.5]])
for cond in ((0, 0, 0, 0), (0, 0, 1, 1)):
    ts_c = conditional_typical_set(p_cond, cond, n, 0.4)
    pruned_c = prune_conditional(p_cond, cond, ts_c)
    top = max(ts_c.members, key=pruned_c.prob)
    print(f"conditioning {cond}: {len(ts_c.members):2d} members,"
          f" likeliest {top} at {pruned_c.prob(top):.4f}")
print()

# the quantum analogue keeps eigenvalue branches instead of sequences;
# conditioning every position on one symbol gives the projector of rho^n
rho = np.diag([0.75, 0.25])
proj = conditional_quantum_typical_projector({0: rho}, (0,) * n, 0.3)
print(f"quantum typical projector at delta = 0.3: rank {proj.rank}"
      f" of {2 ** n}")

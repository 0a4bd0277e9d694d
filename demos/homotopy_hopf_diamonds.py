#!/usr/bin/env python3
"""Cohomology and Hodge diamonds of homotopy Hopf manifolds.

A homotopy Hopf manifold is a product of a homotopy 7-sphere with a
circle.  Its integral cohomology follows from the product formula, and
the complex-geometry constraints pin the possible Hodge diamonds down to
a tiny finite list, enumerated here.
"""

from exotic_invariants import (
    NONUNIT,
    UNIT,
    HodgeDiamond,
    ddbar_constraints_check,
    enumerate_admissible_diamonds,
    hopf_manifold_cohomology,
)

print("Integral cohomology of M(m, k-m) x S^1")
print("--------------------------------------")
for m, k in [(1, 1), (2, 1), (3, 3), (2, 5)]:
    print(f"m = {m}, k = {k}:", hopf_manifold_cohomology(m, k))
print()
print("Away from euler class +-1, torsion shows up in degrees 4 AND 5:")
print("the circle factor tensors the degree-4 class up one degree.")

print()
print("Hodge numbers of the standard product S^7 x S^1")
print("-----------------------------------------------")
standard = {(0, 0): 1, (0, 1): 1, (4, 4): 1, (4, 3): 1}
print("nonzero h^{p,q}:", standard)
print(HodgeDiamond.from_entries(standard).triangle())

print()
print("Enumerating all admissible diamonds, unit branch (k = +-1)")
print("----------------------------------------------------------")
for i, d in enumerate(enumerate_admissible_diamonds(UNIT), 1):
    ok, _ = ddbar_constraints_check(d, 1)
    print(f"diamond {i} (checker: {'pass' if ok else 'fail'}):")
    print(d.triangle())
print("exactly two survive: the standard one and its edge-flipped dual,")
print("which can only belong to a product with an exotic sphere factor.")

print()
print("Nonunit branch (k != +-1)")
print("-------------------------")
for i, d in enumerate(enumerate_admissible_diamonds(NONUNIT), 1):
    print(f"diamond {i}: nonzero entries {d.entries()}")
print("every survivor carries h^{2,2} = 1 with h^{4,0} = h^{1,3} = 0.")

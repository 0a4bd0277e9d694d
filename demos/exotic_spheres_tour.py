#!/usr/bin/env python3
"""A tour of the 3-sphere bundles over the 4-sphere.

Walks the classifying pairs (m, n), prints their characteristic classes,
and uses the mod-7 invariant to split the homotopy 7-spheres among them
into standard and exotic ones.
"""

from exotic_invariants import (
    MilnorBundle,
    bundle_cohomology,
    canonical_form,
    clutching_compose,
    gysin_cohomology,
    lambda_invariant,
    star_quotient,
)

print("Characteristic classes of some small bundles")
print("--------------------------------------------")
for pair in [(0, 0), (1, 0), (2, -1), (3, -2), (2, 3)]:
    b = MilnorBundle(*pair)
    print(
        f"{b}: euler {b.euler:3d}  p1 {b.pontryagin:3d}  "
        f"{'principal' if b.is_principal else 'generic  '}  "
        f"{'homotopy sphere' if b.is_homotopy_sphere else ''}"
    )

print()
print("The homotopy-sphere family M(m, 1-m) and its mod-7 invariant")
print("-------------------------------------------------------------")
print("lambda = 0 means diffeomorphic to the standard 7-sphere.")
for m in range(-3, 5):
    b = MilnorBundle(m, 1 - m)
    lam = lambda_invariant(b)
    tag = "standard" if lam == 0 else "exotic"
    print(f"  m = {m:3d}: lambda = {lam}  ({tag})")

print()
print("The Gromoll-Meyer sphere M(2,-1) in detail")
print("------------------------------------------")
gm = MilnorBundle(2, -1)
print("canonical representative:", canonical_form(gm))
print("cohomology (closed form): ", bundle_cohomology(gm))
print("cohomology (Gysin solve): ", gysin_cohomology(gm))
print("the two routes agree:", bundle_cohomology(gm) == gysin_cohomology(gm))

print()
print("Clutching maps multiply pointwise, so exponents add")
print("---------------------------------------------------")
a, b = MilnorBundle(1, 1), MilnorBundle(2, 3)
print(f"{a} * {b} = {clutching_compose(a, b)}")

print()
print("Quotients of commuting-action diagrams")
print("--------------------------------------")
print("over M(2, 0) with euler class 1:", star_quotient(2, 1, "nonprincipal"))
print("principal flavor at r = k = 1:  ", star_quotient(1, 1, "principal"))

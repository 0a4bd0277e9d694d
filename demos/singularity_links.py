#!/usr/bin/env python3
"""Invariants of the exotic-sphere link family and friends.

The polynomials u^{6k-1} + v^3 + z0^2 + z1^2 + z2^2 cut out homotopy
7-spheres for k = 1..28.  This script reads off their Milnor numbers,
weighted-projective data, spectra, and intersection lattices.
"""

from fractions import Fraction

from exotic_invariants import BrieskornPham, milnor_family, milnor_lattice, spectrum

print("First few members of the link family")
print("------------------------------------")
for k in (1, 2, 3):
    bp = milnor_family(k)
    mu = bp.milnor_number
    ell, weights = bp.weights_and_degree
    kind, gorenstein = bp.canonical_type
    print(
        f"k = {k}: exponents {bp}, mu = {mu:3d}, degree {ell:3d}, "
        f"weights {weights}, {kind.value}, gorenstein {gorenstein}"
    )

print()
print("Spectrum of the k = 1 member")
print("----------------------------")
ell, nums = spectrum(milnor_family(1))
values = [Fraction(x, ell) for x in nums]
print("values:", " ".join(str(v) for v in values))
print("least element:", values[0], "(equals the sum of reciprocal exponents)")
print("greater than 1, so the quotient orbifold is Fano")

print()
print("The canonical-type trichotomy")
print("-----------------------------")
for exps in [(5, 3, 2, 2, 2), (3, 3, 3), (7, 3, 2)]:
    bp = BrieskornPham(exps)
    kind, gorenstein = bp.canonical_type
    print(f"{bp}: {kind.value:12s} gorenstein parameter {gorenstein}")

print()
print("Intersection lattices in the distinguished basis")
print("------------------------------------------------")
print("a single exponent a gives the rank a-1 chain lattice:")
print("  exponent 4 ->", milnor_lattice(BrieskornPham.of(4)).gram.to_lists())
chain = [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(3)] for i in range(3)]
print("  chain gram  ->", chain)
print()
two = BrieskornPham.of(3, 3)
lat = milnor_lattice(two)
print(f"exponents {two}: index tuples {lat.index_set}")
for row in lat.gram.to_lists():
    print("   ", row)

#!/usr/bin/env python3
"""Finite group models: sphere classes, regluing classes, and isotropy.

The homotopy 7-spheres form a cyclic group of order 28 under connected
sum.  The bilinear pairing below lands clutching data in that group, the
step counter answers "how many summands of a generator connect A to B",
and the isotropy table describes the torus action on a singularity link.
"""

from exotic_invariants import (
    GroupConfig,
    RepClass,
    Unreachable,
    compose,
    de_sapio_steps,
    family_weights,
    fano_moduli_compose,
    link_isotropies,
    sigma33,
    theta7,
)

cfg = GroupConfig(order=28, coeff=1)

print("Bilinear pairing into the order-28 sphere group")
print("-----------------------------------------------")
for m, n in [(1, 1), (2, -1), (0, 5), (3, 3)]:
    print(f"sigma33({m:2d},{n:2d}) = {sigma33(m, n, cfg).residue:2d} mod 28")
print()
print("Note sigma33(2,-1) is even; an even residue cannot generate Z_28,")
print("so bilinearity and 'the image of (2,-1) generates' cannot both hold")
print("with one coefficient.  The coefficient is configurable for exactly")
print("this reason.")

print()
print("Connected-sum step counting")
print("---------------------------")
start, step, target = theta7(0, cfg), theta7(1, cfg), theta7(5, cfg)
print("steps from 0 to 5 by a generator:", de_sapio_steps(start, step, target))
try:
    de_sapio_steps(theta7(0, cfg), theta7(2, cfg), theta7(5, cfg))
except Unreachable as e:
    print("steps of 2 never reach 5:", e)

print()
print("Composing classes is residue addition")
print("-------------------------------------")
x, y = theta7(25, cfg), theta7(7, cfg)
print(f"{x.residue} + {y.residue} = {compose(x, y).residue} mod 28")

print()
print("Moduli of circle representations q -> lambda^l q")
print("------------------------------------------------")
a, b = RepClass(3), RepClass(4)
print("composition adds exponents:", fano_moduli_compose(a, b))
print("l = 0 fixes everything (not an orbifold):", RepClass(0).is_orbifold)
print("l = 7 has finite isotropy (orbifold):", RepClass(7).is_orbifold)

print()
print("Torus isotropy on the k = 1 link, twisted by l = 3")
print("--------------------------------------------------")
print("weights:", family_weights(1))
for d in link_isotropies(1, 3):
    if d.b > 1:
        print(f"  support {d.support}: Z_{d.b} x Z_3")
print("all other supports have coprime weights (b = 1).")

"""Linear 3-sphere bundles over the 4-sphere.

A bundle is classified by a pair of integers (m, n): the clutching map
sends a unit quaternion x to the rotation v -> x^m v x^n.  The total
space is a homotopy 7-sphere exactly when the Euler class m + n is +-1,
and the mod-7 lambda invariant separates the standard sphere from the
exotic ones inside that family.

The cheap invariants of a bundle are properties of the checked
`MilnorBundle` and check nothing; `lambda_invariant`, which can fail, and
`gysin_cohomology`, the oracle route to `cohomology`, check it once.
"""

from __future__ import annotations

from dataclasses import dataclass

from .abelian import AbelianGroup, GradedGroups, Z, cokernel_group, kernel_group
from .errors import InvalidArgument, NotHomotopySphere, _require, _trusted
from .snf import IntMatrix


@dataclass(frozen=True, order=True)
class MilnorBundle:
    m: int
    n: int

    def __post_init__(self):
        _require(int, "clutching exponents", (self.m, self.n))

    @property
    def euler(self) -> int:
        return self.m + self.n

    @property
    def pontryagin(self) -> int:
        return 2 * (self.m - self.n)

    @property
    def is_principal(self) -> bool:
        return self.m == 0 or self.n == 0

    @property
    def is_homotopy_sphere(self) -> bool:
        return abs(self.euler) == 1

    def mirror(self) -> "MilnorBundle":
        """The other classifying pair for the same total space: (-n, -m)."""
        return _trusted(MilnorBundle, -self.n, -self.m)

    @property
    def canonical_form(self) -> "MilnorBundle":
        """Lexicographically smaller of (m, n) and its mirror (-n, -m).

        Picks one representative per total space; idempotent by construction.

        >>> MilnorBundle(2, -1).canonical_form
        MilnorBundle(m=1, n=-2)
        """
        return min(self, self.mirror())

    @property
    def cohomology(self) -> GradedGroups:
        """Integral cohomology of the total space, in closed form.

        With k the Euler class: Z in degrees 0 and 7, Z in degrees 3 and 4
        when k = 0, and Z/|k| in degree 4 otherwise (trivial for |k| = 1).
        The Gysin-sequence solve in gysin_cohomology produces the same
        answer from first principles and is tested against this on a large
        range of k.

        >>> MilnorBundle(3, 4).cohomology
        GradedGroups({0: Z, 4: C7, 7: Z})
        """
        k = self.euler
        groups = {0: Z, 7: Z}
        if k == 0:
            groups[3] = Z
            groups[4] = Z
        elif not self.is_homotopy_sphere:
            groups[4] = _trusted(AbelianGroup, 0, (abs(k),))
        return _trusted(GradedGroups, tuple(sorted(groups.items())))

    def __str__(self):
        return f"M({self.m},{self.n})"


def lambda_invariant(b: MilnorBundle) -> int:
    """Milnor's mod-7 invariant ((2m - 1)^2 - 1) mod 7 of a homotopy sphere.

    Nonzero values certify a total space homeomorphic but not diffeomorphic
    to the standard 7-sphere; the Hopf bundle (1, 0) gives 0.  Inputs with
    Euler class -1 are first replaced by their mirror, which has Euler
    class +1.

    >>> lambda_invariant(MilnorBundle(1, -2)), lambda_invariant(MilnorBundle(2, -1))
    (1, 1)
    """
    _require(MilnorBundle, "bundle", (b,))
    if not b.is_homotopy_sphere:
        raise NotHomotopySphere(f"{b} has euler class {b.euler}, not +-1")
    m = (b if b.euler == 1 else b.mirror()).m
    return ((2 * m - 1) ** 2 - 1) % 7


def gysin_cohomology(b: MilnorBundle) -> GradedGroups:
    """Cohomology of the total space solved degree by degree from the
    Gysin sequence of the 3-sphere bundle.

    For each degree d the sequence pinches H^d of the total space between
    the cokernel of cup product with the Euler class into degree d of the
    base and its kernel out of degree d - 3:

        H^{d-4}(S^4) --e--> H^d(S^4) --> H^d(E) --> H^{d-3}(S^4) --e--> H^{d+1}(S^4)

    Both cup products are multiplication by k on a rank 0 or 1 lattice, so
    the extension problem is trivial: the kernel part is free and splits.
    """
    _require(MilnorBundle, "bundle", (b,))
    k = b.euler

    def base_rank(d):
        return 1 if d in (0, 4) else 0

    def cup_e(src_deg):
        rows, cols = base_rank(src_deg + 4), base_rank(src_deg)
        if rows and cols:
            return IntMatrix.from_rows([[k]])
        return IntMatrix.zero(rows, cols)

    groups = {}
    for d in range(0, 8):
        coker = cokernel_group(cup_e(d - 4))
        ker = kernel_group(cup_e(d - 3))
        groups[d] = coker.direct_sum(ker)
    return GradedGroups(groups)


def clutching_compose(t1: MilnorBundle, t2: MilnorBundle) -> MilnorBundle:
    """Pointwise product of clutching maps: exponents add on both sides.

    x^{m1} (x^{m2} v x^{n2}) x^{n1} = x^{m1+m2} v x^{n2+n1}.
    """
    _require(MilnorBundle, "bundles", (t1, t2))
    return _trusted(MilnorBundle, t1.m + t2.m, t1.n + t2.n)


def star_quotient(r: int, k: int, mode: str) -> MilnorBundle:
    """Second base of the commuting-actions diagram over M(r, 0).

    Pulling the Euler-class-k bundle back along the principal bundle with
    class r and quotienting by the other action yields M(r, k - r) in the
    'nonprincipal' mode and the principal bundle M(r - k, 0) in the
    'principal' mode.
    """
    _require(int, "bundle class and Euler class", (r, k))
    if mode == "nonprincipal":
        return _trusted(MilnorBundle, r, k - r)
    if mode == "principal":
        return _trusted(MilnorBundle, r - k, 0)
    raise InvalidArgument(f"mode must be 'principal' or 'nonprincipal', got {mode!r}")

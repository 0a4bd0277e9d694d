"""Hodge diamonds of complex 4-dimensional homotopy Hopf manifolds.

These manifolds are products of a homotopy 7-sphere with a circle.  They
are never Kahler, so conjugation symmetry h^{p,q} = h^{q,p} is NOT
imposed; Serre duality h^{p,q} = h^{4-p,4-q} is, since every admissible
diamond satisfies it.  The Betti numbers entering the constraints are
b0 = b1 = b7 = b8 = 1 with b4 = 1 exactly in the nonunit branch (Euler
class k != +-1), all other degrees zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .abelian import GradedGroups, kunneth, sphere_cohomology
from .bundles import MilnorBundle, bundle_cohomology
from .errors import InvalidArgument

DIM = 4  # complex dimension of the stored grids

UNIT = "unit"
NONUNIT = "nonunit"


def betti_vector(branch: str) -> tuple:
    """b_0..b_8 used in the diamond constraints for the given branch."""
    if branch == UNIT:
        return (1, 1, 0, 0, 0, 0, 0, 1, 1)
    if branch == NONUNIT:
        return (1, 1, 0, 0, 1, 0, 0, 1, 1)
    raise InvalidArgument(f"branch must be {UNIT!r} or {NONUNIT!r}, got {branch!r}")


def branch_of_euler(k: int) -> str:
    return UNIT if abs(k) == 1 else NONUNIT


@dataclass(frozen=True)
class HodgeDiamond:
    """5x5 grid h[p][q] of nonnegative integers with Serre duality."""

    h: tuple

    def __post_init__(self):
        if len(self.h) != DIM + 1 or any(len(r) != DIM + 1 for r in self.h):
            raise InvalidArgument("expected a 5x5 grid")
        if any(not isinstance(x, int) or x < 0 for r in self.h for x in r):
            raise InvalidArgument("Hodge numbers are nonnegative integers")
        for p in range(DIM + 1):
            for q in range(DIM + 1):
                if self.h[p][q] != self.h[DIM - p][DIM - q]:
                    raise InvalidArgument(
                        f"Serre duality fails at ({p},{q}): "
                        f"{self.h[p][q]} != {self.h[DIM - p][DIM - q]}"
                    )

    @classmethod
    def from_entries(cls, entries) -> "HodgeDiamond":
        """Build from a sparse {(p, q): value} mapping; absent entries are 0."""
        grid = [[0] * (DIM + 1) for _ in range(DIM + 1)]
        for (p, q), value in entries.items():
            if not (0 <= p <= DIM and 0 <= q <= DIM):
                raise InvalidArgument(f"Hodge index ({p},{q}) outside 0..{DIM}")
            grid[p][q] = value
        return cls(tuple(tuple(r) for r in grid))

    def __getitem__(self, pq) -> int:
        p, q = pq
        return self.h[p][q]

    def entries(self) -> dict:
        """Nonzero entries as a sparse {(p, q): value} mapping."""
        return {
            (p, q): self.h[p][q]
            for p in range(DIM + 1)
            for q in range(DIM + 1)
            if self.h[p][q]
        }

    def antidiagonal_sum(self, r: int) -> int:
        return sum(
            self.h[p][r - p] for p in range(DIM + 1) if 0 <= r - p <= DIM
        )

    def triangle(self) -> str:
        """Text rendering with h^{0,0} at the top, one antidiagonal per row."""
        rows = []
        width = 2 * (2 * DIM + 1)
        for r in range(2 * DIM + 1):
            cells = [
                str(self.h[p][r - p])
                for p in range(min(r, DIM), -1, -1)
                if 0 <= r - p <= DIM
            ]
            rows.append(" ".join(cells).center(width))
        return "\n".join(rows)


def hopf_hodge_numbers(n: int) -> dict:
    """Hodge numbers of the standard product of S^{2n-1} with a circle.

    Exactly four entries are 1: (0,0), (0,1), (n,n) and (n,n-1); the rest
    vanish.  Returned sparsely so any n >= 2 is representable; the n = 4
    case fits the HodgeDiamond grid via from_entries.
    """
    if n < 2:
        raise InvalidArgument(f"need complex dimension >= 2, got {n}")
    return {(0, 0): 1, (0, 1): 1, (n, n): 1, (n, n - 1): 1}


def mall_diamond() -> HodgeDiamond:
    """The standard diamond of S^7 x S^1 on the 5x5 grid."""
    return HodgeDiamond.from_entries(hopf_hodge_numbers(DIM))


def hopf_manifold_cohomology(m: int, k: int) -> GradedGroups:
    """Integral cohomology of M(m, k-m) x S^1 via the product formula.

    Z sits in degrees 0, 1, 7, 8; away from Euler class +-1 a cyclic
    factor of order |k| appears in degree 4 and, through the tensor term
    against H^1 of the circle, in degree 5 as well.  (Closed-form tables
    that list only degree 4 torsion drop that degree-5 term; this function
    reports the full product answer.)
    """
    total = bundle_cohomology(MilnorBundle(m, k - m))
    return kunneth(total, sphere_cohomology(1))


def ddbar_constraints_check(d: HodgeDiamond, k: int):
    """(passed, first_violation) for the branch selected by Euler class k.

    Checks, in order: every antidiagonal sum equals the branch Betti
    number; the two rank-one edge constraints h34+h43 = 1 and
    h01+h10 = 1; and in the nonunit branch the degree-4 decomposition
    b4 = 2*h40 + h22 + 2*h13, which forces h40 = h13 = 0.
    """
    branch = branch_of_euler(k)
    betti = betti_vector(branch)
    for r in range(2 * DIM + 1):
        got = d.antidiagonal_sum(r)
        if got != betti[r]:
            return False, f"sum over p+q={r} is {got}, expected b_{r}={betti[r]}"
    if d[3, 4] + d[4, 3] != 1:
        return False, f"h^(3,4)+h^(4,3) is {d[3, 4] + d[4, 3]}, expected 1"
    if d[0, 1] + d[1, 0] != 1:
        return False, f"h^(0,1)+h^(1,0) is {d[0, 1] + d[1, 0]}, expected 1"
    if branch == NONUNIT:
        combo = 2 * d[4, 0] + d[2, 2] + 2 * d[1, 3]
        if combo != betti[4]:
            return False, f"2h^(4,0)+h^(2,2)+2h^(1,3) is {combo}, expected b_4=1"
        if d[4, 0] != 0 or d[1, 3] != 0:
            return False, "h^(4,0) and h^(1,3) must vanish"
    return True, None


def enumerate_admissible_diamonds(branch: str) -> list:
    """Every Serre-symmetric diamond passing the branch constraints.

    One free cell per Serre pair (p,q) ~ (4-p,4-q), taken as the smaller of
    the two in row-major order, and each cell is bounded by the Betti number
    of its antidiagonal; candidates run as a product over the cells.

    >>> len(enumerate_admissible_diamonds(UNIT)), len(enumerate_admissible_diamonds(NONUNIT))
    (2, 2)
    """
    betti = betti_vector(branch)
    k = 1 if branch == UNIT else 0  # any Euler class selecting the branch
    cells = [
        (p, q)
        for p in range(DIM + 1)
        for q in range(DIM + 1)
        if (p, q) <= (DIM - p, DIM - q)
    ]
    # Both Betti vectors are palindromic (Poincare duality), so betti[p+q]
    # is also the bound of the partner cell's antidiagonal.
    out = []
    for values in product(*(range(betti[p + q] + 1) for p, q in cells)):
        grid = [[0] * (DIM + 1) for _ in range(DIM + 1)]
        for (p, q), value in zip(cells, values):
            grid[p][q] = grid[DIM - p][DIM - q] = value
        candidate = HodgeDiamond(tuple(tuple(r) for r in grid))
        if ddbar_constraints_check(candidate, k)[0]:
            out.append(candidate)
    return out

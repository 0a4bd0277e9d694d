"""Hodge diamonds of complex 4-dimensional homotopy Hopf manifolds.

These manifolds are products of a homotopy 7-sphere with a circle.  They
are never Kahler, so conjugation symmetry h^{p,q} = h^{q,p} is NOT
imposed; Serre duality h^{p,q} = h^{4-p,4-q} is, since every admissible
diamond satisfies it.  A diamond is admissible when each antidiagonal
sum equals the Betti number of its degree: b0 = b1 = b7 = b8 = 1 with
b4 = 1 exactly in the nonunit branch (Euler class k != +-1), all other
degrees zero.  The paper's further constraints follow from these sums.
The admissible diamonds are built in closed form from the Betti numbers;
the tests check them against an exhaustive enumeration of 0/1 diamonds.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .abelian import GradedGroups, kunneth, sphere_cohomology
from .bundles import MilnorBundle
from .errors import InvalidArgument, _require, _trusted

DIM = 4  # complex dimension of the stored grids

UNIT = "unit"
NONUNIT = "nonunit"


def betti_vector(branch: str) -> tuple:
    """The paper's b_0..b_8 for the given branch, used in the diamond
    constraints.  On the nonunit branch they are not the free ranks of
    `hopf_manifold_cohomology`; see there."""
    if branch == UNIT:
        return (1, 1, 0, 0, 0, 0, 0, 1, 1)
    if branch == NONUNIT:
        return (1, 1, 0, 0, 1, 0, 0, 1, 1)
    raise InvalidArgument(f"branch must be {UNIT!r} or {NONUNIT!r}, got {branch!r}")


def branch_of_euler(k: int) -> str:
    _require(int, "Euler class", (k,))
    return UNIT if abs(k) == 1 else NONUNIT


@dataclass(frozen=True)
class HodgeDiamond:
    """5x5 grid h[p][q] of nonnegative integers with Serre duality."""

    h: tuple
    # `__getitem__` takes (p, q) pairs, so Python's fallback iteration
    # would read it as a sequence; a diamond is not one.
    __iter__ = None

    def __post_init__(self):
        grid = _require(object, "Hodge grid", self.h)
        h = tuple(_require(int, "Hodge numbers", r) for r in grid)
        object.__setattr__(self, "h", h)
        if len(h) != DIM + 1 or any(len(r) != DIM + 1 for r in h):
            raise InvalidArgument("expected a 5x5 grid")
        if any(x < 0 for r in self.h for x in r):
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
        try:
            entries = dict(entries)
        except (TypeError, ValueError) as err:
            raise InvalidArgument(f"Hodge entries need ((p, q), value) pairs: {err}") from None
        grid = [[0] * (DIM + 1) for _ in range(DIM + 1)]
        for pq, value in entries.items():
            index = _require(int, "Hodge index", pq)
            if len(index) != 2:
                raise InvalidArgument(f"Hodge index {pq!r} is not a (p, q) pair")
            p, q = index
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


def hopf_manifold_cohomology(m: int, k: int) -> GradedGroups:
    """Integral cohomology of M(m, k-m) x S^1 via the product formula,
    from the bundle's `MilnorBundle.cohomology` and the circle's.

    Z sits in degrees 0, 1, 7, 8; away from Euler class +-1 a cyclic
    factor of order |k| appears in degree 4 and, through the tensor term
    against H^1 of the circle, in degree 5 as well.  (Closed-form tables
    that list only degree 4 torsion drop that degree-5 term; this function
    reports the full product answer.)

    Paper's rule against the standard one: the free ranks agree with
    `betti_vector(UNIT)` on the unit branch, but not with the paper's
    `betti_vector(NONUNIT)`, whose b4 is 1.  For |k| >= 2 degree 4 is
    torsion only, so b4 = 0; for k = 0, M(m, -m) x S^1 has
    (b3, b4, b5) = (1, 2, 1).  Both are kept as they are; the diamond
    constraints use the paper's vector.
    """
    _require(int, "clutching exponent and Euler class", (m, k))
    total = _trusted(MilnorBundle, m, k - m).cohomology
    return kunneth(total, sphere_cohomology(1))


def ddbar_constraints_check(d: HodgeDiamond, k: int):
    """(passed, first_violation) for the branch selected by Euler class k.

    Checks that every antidiagonal sum equals the branch Betti number.
    The paper's other constraints need no check of their own.  The edge
    constraints h34+h43 = 1 and h01+h10 = 1 are the p+q = 7 and p+q = 1
    sums.  Under Serre duality h40 = h04 and h13 = h31, so the p+q = 4
    sum is 2*h40 + h22 + 2*h13; when it equals b4 = 1 (nonunit branch)
    the odd total forces h22 = 1 and h40 = h13 = 0.
    """
    _require(HodgeDiamond, "diamond", (d,))
    betti = betti_vector(branch_of_euler(k))
    for r in range(2 * DIM + 1):
        got = d.antidiagonal_sum(r)
        if got != betti[r]:
            return False, f"sum over p+q={r} is {got}, expected b_{r}={betti[r]}"
    return True, None


def enumerate_admissible_diamonds(branch: str) -> list:
    """Every Serre-symmetric diamond passing the branch constraints.

    Both Betti vectors are 0/1 and palindromic, so every cell is 0 or 1:
    for each antidiagonal r <= 4 with b_r = 1 one cell (p, r-p) is 1, with
    its Serre partner (4-p, 4-r+p).  Any of the r+1 cells may be chosen
    below the middle; there an off-centre pair would add 2, so only (2, 2).
    The diamonds are the product of these choices, cells by descending p.

    >>> len(enumerate_admissible_diamonds(UNIT)), len(enumerate_admissible_diamonds(NONUNIT))
    (2, 2)
    """
    betti = betti_vector(branch)
    choices = [
        [(DIM // 2, DIM // 2)] if r == DIM else [(p, r - p) for p in range(r, -1, -1)]
        for r in range(DIM + 1)
        if betti[r]
    ]
    diamonds = []
    for cells in product(*choices):
        grid = [[0] * (DIM + 1) for _ in range(DIM + 1)]
        for p, q in cells:
            grid[p][q] = grid[DIM - p][DIM - q] = 1
        diamonds.append(_trusted(HodgeDiamond, tuple(map(tuple, grid))))
    return diamonds

"""Finitely generated abelian groups and graded collections of them.

A group is stored in its canonical shape: a free rank plus a torsion chain
d1 | d2 | ... with every d >= 2.  Arbitrary lists of cyclic orders are
normalized by the gcd/lcm exchanges of `divisibility_chain`, so structural
equality of the stored data is group isomorphism.  The public constructors
check what a caller passes; the values the library builds itself (the
groups of `from_orders`, `cokernel_group` and `kernel_group`, the graded
groups of `sphere_cohomology` and `kunneth`) are made through
`errors._trusted` from inputs checked once.  `kunneth` gathers the cyclic
orders of each degree and normalizes them once, with one `from_orders`
per degree.

>>> AbelianGroup.from_orders(0, [2, 3]) == AbelianGroup.from_orders(0, [6])
True
>>> print(cokernel_group(IntMatrix.from_diagonal([4, 6])))
C2 x C12
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import chain
from math import gcd, prod

from .errors import InvalidArgument, _require, _trusted
from .snf import IntMatrix, _gcd_lcm_exchange, invariant_factors, rank


def divisibility_chain(orders) -> tuple:
    """Normalize cyclic orders (all >= 2) to a chain d1 | d2 | ... .

    The one-pass gcd/lcm exchange of `snf._gcd_lcm_exchange`, which
    `invariant_factors` shares, with the gcds equal to 1 dropped.  The SNF
    of the diagonal matrix gives the same answer, as the tests check.

    >>> divisibility_chain([12, 6, 2])
    (2, 6, 12)
    >>> divisibility_chain([4, 6, 9])
    (6, 36)
    """
    vals = _require(int, "orders", orders)
    if vals and min(vals) < 2:
        raise InvalidArgument("chain normalization expects integer orders >= 2")
    return _chain(list(vals))


def _chain(orders: list) -> tuple:
    """`divisibility_chain` of orders, a list of ints >= 2 that the caller
    has checked, or built from checked ones, and lets it reorder."""
    return tuple(d for d in _gcd_lcm_exchange(orders) if d >= 2)


@dataclass(frozen=True)
class AbelianGroup:
    """free_rank copies of Z plus cyclic factors in a divisibility chain."""

    free_rank: int
    torsion: tuple

    def __post_init__(self):
        _require(int, "free rank", (self.free_rank,))
        torsion = _require(int, "torsion orders", self.torsion)
        object.__setattr__(self, "torsion", torsion)
        if self.free_rank < 0:
            raise InvalidArgument("free rank must be a nonnegative integer")
        if torsion and min(torsion) < 2:
            raise InvalidArgument("torsion orders must be integers >= 2")
        if any(torsion[i + 1] % torsion[i] != 0 for i in range(len(torsion) - 1)):
            raise InvalidArgument(f"torsion {torsion} is not a divisibility chain")

    @classmethod
    def from_orders(cls, free_rank: int, orders=()) -> "AbelianGroup":
        """Build from arbitrary cyclic orders (0 means a Z summand).

        >>> AbelianGroup.from_orders(0, [4, 6]).torsion
        (2, 12)
        """
        free_rank, *orders = _require(int, "free rank and orders", chain((free_rank,), orders))
        if free_rank < 0:
            raise InvalidArgument("free rank must be a nonnegative integer")
        finite = [abs(d) for d in orders if abs(d) > 1]
        return _trusted(cls, free_rank + orders.count(0), _chain(finite))

    @classmethod
    def free(cls, rank: int) -> "AbelianGroup":
        return cls(rank, ())

    @classmethod
    def cyclic(cls, order: int) -> "AbelianGroup":
        """Z for order 0, trivial for order +-1, Z/|order| otherwise."""
        return cls.from_orders(0, [order])

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def order(self):
        """Number of elements, or None for infinite groups."""
        if self.free_rank > 0:
            return None
        return prod(self.torsion)

    def direct_sum(self, other: "AbelianGroup") -> "AbelianGroup":
        _require(AbelianGroup, "group", (other,))
        return AbelianGroup.from_orders(
            self.free_rank + other.free_rank, self.torsion + other.torsion
        )

    def __str__(self):
        parts = ["Z"] * self.free_rank + [f"C{d}" for d in self.torsion]
        return " x ".join(parts) if parts else "0"


TRIVIAL = AbelianGroup(0, ())
Z = AbelianGroup(1, ())


def cokernel_group(M: IntMatrix) -> AbelianGroup:
    """Z^rows modulo the column span of M.

    >>> print(cokernel_group(IntMatrix.from_rows([[6]])))
    C6
    >>> print(cokernel_group(IntMatrix.from_rows([[0]])))
    Z
    """
    diag = invariant_factors(M)
    return _trusted(AbelianGroup, M.rows - sum(map(bool, diag)), tuple(x for x in diag if x >= 2))


def kernel_group(M: IntMatrix) -> AbelianGroup:
    """Kernel of M acting on Z^cols; always free."""
    r = rank(M)  # checks M before M.cols is read
    return _trusted(AbelianGroup, M.cols - r, ())


def tensor_and_tor(a: AbelianGroup, b: AbelianGroup):
    """(a tensor b, Tor(a, b)), extended additively over the summands.

    >>> t, tor = tensor_and_tor(AbelianGroup.cyclic(4), AbelianGroup.cyclic(6))
    >>> print(t, "|", tor)
    C2 | C2
    """
    _require(AbelianGroup, "groups", (a, b))
    tensor, tor = _cyclic_products(a, b)
    return AbelianGroup.from_orders(0, tensor), AbelianGroup.from_orders(0, tor)


def _cyclic_products(a: AbelianGroup, b: AbelianGroup):
    """(tensor orders, Tor orders) of a and b, cyclic orders with 0 for Z,
    by the cyclic rules Z (x) G = G, Z/p (x) Z/q = Z/gcd(p,q), Tor(Z, G) = 0
    and Tor(Z/p, Z/q) = Z/gcd(p,q), summand by summand."""
    tor = [gcd(p, q) for p in a.torsion for q in b.torsion]
    tensor = [*b.torsion] * a.free_rank + [*a.torsion] * b.free_rank
    return [0] * (a.free_rank * b.free_rank) + tensor + tor, tor


@dataclass(frozen=True)
class GradedGroups:
    """A finite map degree -> AbelianGroup; absent degrees are trivial.

    Built from a mapping or from (degree, group) pairs, and stored as the
    pairs sorted by degree with trivial groups dropped, so two instances
    are equal exactly when they describe the same graded object.
    """

    groups: tuple = ()
    # `__getitem__` never raises, so Python's fallback iteration over it
    # would not end; a GradedGroups is not a sequence.
    __iter__ = None

    def __post_init__(self):
        try:
            groups = dict(self.groups or ())
        except (TypeError, ValueError) as err:
            raise InvalidArgument(f"graded groups need (degree, group) pairs: {err}") from None
        _require(int, "degrees", groups)
        _require(AbelianGroup, "graded groups", groups.values())
        if any(degree < 0 for degree in groups):
            raise InvalidArgument("degrees must be nonnegative integers")
        pairs = tuple((d, groups[d]) for d in sorted(groups) if not groups[d].is_trivial)
        object.__setattr__(self, "groups", pairs)

    def __getitem__(self, degree: int) -> AbelianGroup:
        return dict(self.groups).get(degree, TRIVIAL)

    def degrees(self):
        return [d for d, _ in self.groups]

    def items(self):
        return list(self.groups)

    def __repr__(self):
        body = ", ".join(f"{d}: {g}" for d, g in self.groups)
        return f"GradedGroups({{{body}}})"


def sphere_cohomology(n: int) -> GradedGroups:
    """H*(S^n); the circle and the point come out right as n = 1, 0 edge cases."""
    _require(int, "sphere dimension", (n,))
    if n < 0:
        raise InvalidArgument("sphere dimension must be nonnegative")
    if n == 0:
        return _trusted(GradedGroups, ((0, _trusted(AbelianGroup, 2, ())),))
    return _trusted(GradedGroups, ((0, Z), (n, Z)))


def kunneth(a: GradedGroups, b: GradedGroups) -> GradedGroups:
    """Graded groups of a product space from those of the factors.

    Degree n collects the tensor terms of total degree n and the Tor terms
    of total degree n - 1, as cyclic orders normalized once per degree.

    >>> k = kunneth(sphere_cohomology(7), sphere_cohomology(1))
    >>> k.degrees()
    [0, 1, 7, 8]
    """
    _require(GradedGroups, "graded groups", (a, b))
    orders = defaultdict(list)
    for p, ap in a.items():
        for q, bq in b.items():
            tensor, tor = _cyclic_products(ap, bq)
            orders[p + q] += tensor
            orders[p + q + 1] += tor
    pairs = ((n, AbelianGroup.from_orders(0, o)) for n, o in sorted(orders.items()) if o)
    return _trusted(GradedGroups, tuple((n, g) for n, g in pairs if not g.is_trivial))

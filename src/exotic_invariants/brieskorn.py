"""Invariants of Brieskorn-Pham singularities x0^a0 + ... + xn^an.

All numeric output is exact: integers for lattice data, the spectrum as
sorted integer numerators over the weighted degree ell, and a Fraction for
the Gorenstein parameter.  The distinguished-basis intersection rule is
applied exactly as stated for the defining tensor decomposition: the
pairing of two basis vectors is the product of the single-variable
pairings when the index tuples are comparable componentwise, and zero
otherwise.  (For incomparable tuples this differs from the multiplicative
Euler form of the tensor category; no correction is applied.)

Invariants that every singularity has and that are cheap are properties of
the checked `BrieskornPham`; `milnor_lattice` and `spectrum`, which can
refuse an input and grow with it, are functions that check it once.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import product
from math import comb, lcm, prod

from .errors import InvalidArgument, OutOfFamily, _require, _trusted
from .snf import IntMatrix


def _bernoulli(n: int) -> Fraction:
    """The Bernoulli number B_n, with B_1 = -1/2, from the recurrence
    sum_{k <= j} C(j + 1, k) B_k = 0 for j >= 1.

    B_4 also fixes the first coefficient of the weight-4 Eisenstein series,
    E_4 = 1 + 240 q + ..., as -8 / B_4:

    >>> _bernoulli(4), -8 / _bernoulli(4)
    (Fraction(-1, 30), Fraction(240, 1))
    """
    b = [Fraction(1)]
    for j in range(1, n + 1):
        b.append(-sum(comb(j + 1, k) * b[k] for k in range(j)) / (j + 1))
    return b[n]


def _bp_order(m: int) -> int:
    """|bP_4m|, the number of homotopy (4m - 1)-spheres that bound
    parallelizable manifolds, by Kervaire-Milnor (Ann. of Math. 1963):
    2^(2m - 2) (2^(2m - 1) - 1) times the numerator of 4 B_2m / m.

    >>> _bp_order(2), _bp_order(3)
    (28, 992)
    """
    return 2 ** (2 * m - 2) * (2 ** (2 * m - 1) - 1) * abs((4 * _bernoulli(2 * m) / m).numerator)


# Order of the cyclic group bP_8 of homotopy 7-spheres, the size of the link
# family below and the default order of the groups module.
BP8_ORDER = _bp_order(2)
FAMILY_RANGE = range(1, BP8_ORDER + 1)

# Most entries `milnor_lattice` (mu^2 gram entries) and `spectrum` (mu
# values) build; both refuse larger requests before allocating.  A --json
# request peaked at about 28 bytes per gram entry (mu 686 and 1000) and at
# up to about 260 bytes per spectrum value (mu 34,560, all values
# distinct), so a request at the limit stays near 1 GB.
MAX_ENTRIES = 2**22


class _kept:
    """A property read once per instance: the first read stores the value
    in the instance `__dict__`, where every later read finds it before this
    descriptor.  It is `functools.cached_property` as Python 3.12 has it,
    without the lock that 3.11's takes on each first read.
    """

    def __init__(self, fn):
        self.fn, self.name, self.__doc__ = fn, fn.__name__, fn.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


@dataclass(frozen=True)
class BrieskornPham:
    """Exponent vector of an isolated singularity sum(x_i^{a_i}).

    The grading and the type it gives:

    >>> bp = BrieskornPham.of(5, 3, 2, 2, 2)
    >>> bp.weights_and_degree
    (30, (6, 10, 15, 15, 15))
    >>> bp.canonical_type[1]
    Fraction(31, 30)
    """

    exponents: tuple

    def __post_init__(self):
        object.__setattr__(self, "exponents", _require(int, "exponents", self.exponents))
        if len(self.exponents) < 1:
            raise InvalidArgument("need at least one exponent")
        if any(a < 2 for a in self.exponents):
            raise InvalidArgument("exponents must all be >= 2")

    @classmethod
    def of(cls, *exponents: int) -> "BrieskornPham":
        return cls(exponents)

    def __str__(self):
        return "(" + ",".join(str(a) for a in self.exponents) + ")"

    @property
    def milnor_number(self) -> int:
        """The rank of the Milnor lattice, the product of the a_i - 1."""
        return prod(a - 1 for a in self.exponents)

    @_kept
    def weights_and_degree(self):
        """(ell, weights): ell = lcm of the exponents, w_i = ell / a_i.

        These grade the coordinate ring so the defining polynomial is
        weighted homogeneous of degree ell.  Computed once per value and
        kept: `canonical_type`, `spectrum` and the CLI's rows all read it.
        """
        ell = lcm(*self.exponents)
        return ell, tuple(ell // a for a in self.exponents)

    @property
    def canonical_type(self):
        """(type, Gorenstein parameter) from s = sum(1 / a_i) = sum(w_i) / ell.

        s > 1 is Fano, s = 1 Calabi-Yau, s < 1 general type; the Gorenstein
        parameter is s - 1 as an exact rational.
        """
        ell, weights = self.weights_and_degree
        total = sum(weights)
        if total > ell:
            kind = CanonicalType.FANO
        elif total == ell:
            kind = CanonicalType.CALABI_YAU
        else:
            kind = CanonicalType.GENERAL_TYPE
        return kind, Fraction(total - ell, ell)

    @property
    def in_sphere_link_family(self) -> bool:
        """True when the link is one of the 28 homotopy-7-sphere links, that
        is, when self is milnor_family(k) for the k its first exponent gives."""
        k = (self.exponents[0] + 1) // 6
        return k in FAMILY_RANGE and self == _FAMILY[k - 1]


@dataclass(frozen=True)
class MilnorLattice:
    """Middle homology with the intersection form in a distinguished basis."""

    index_set: tuple
    gram: IntMatrix

    def __post_init__(self):
        index_set = _require(tuple, "index set", self.index_set)
        _require(IntMatrix, "gram matrix", (self.gram,))
        object.__setattr__(self, "index_set", index_set)
        n = len(index_set)
        if self.gram.rows != n or self.gram.cols != n:
            raise InvalidArgument("gram matrix must be square of the basis size")
        if self.gram.diagonal().count(2) != n:
            raise InvalidArgument("vanishing cycles have self-intersection 2")

    @property
    def rank(self) -> int:
        return len(self.index_set)


class CanonicalType(str, Enum):
    FANO = "Fano"
    CALABI_YAU = "CalabiYau"
    GENERAL_TYPE = "GeneralType"


def _check_size(bp: BrieskornPham, what: str, entries: int) -> None:
    """Refuse a request for more than MAX_ENTRIES entries."""
    if entries > MAX_ENTRIES:
        raise InvalidArgument(
            f"the {what} of {bp} has {entries} entries, above the limit of {MAX_ENTRIES}"
        )


def milnor_lattice(bp: BrieskornPham) -> MilnorLattice:
    """Distinguished-basis lattice of the full singularity.

    Index tuples run over 1 <= i_m <= a_m - 1 in lexicographic order.  A
    single-variable pairing is nonzero only between equal or adjacent
    indices, so under the rule above i pairs nontrivially with j != i
    only when j = i + e for a nonzero step vector e in {0, 1}^n, and then
    the pairing is (-1)^|e| * 2^(n - |e|); e is 0 on every factor with
    a = 2, whose one index cannot step.  Each index walks the steps
    that stay inside the index box, a mixed-radix stride giving the
    column offset of each, and every entry is set with its mirror; the
    diagonal is 2 and all other entries are 0.  Refuses, with
    InvalidArgument, a lattice of more than MAX_ENTRIES gram entries.

    >>> milnor_lattice(BrieskornPham.of(3, 2)).gram.to_lists()
    [[2, -2], [-2, 2]]
    """
    _require(BrieskornPham, "singularity", (bp,))
    _check_size(bp, "milnor lattice", bp.milnor_number ** 2)
    exps = bp.exponents
    n = len(exps)
    index_set = tuple(product(*(range(1, a) for a in exps)))
    size = len(index_set)
    strides = [1] * n
    for m in range(n - 2, -1, -1):
        strides[m] = strides[m + 1] * (exps[m + 1] - 1)
    # A factor with a = 2 has the one index 1 and never steps, so step
    # vectors e are bit masks over the t factors with a > 2 (2^t <= mu), bit
    # j set when e steps in factor steppers[j]; index i + e lies offset[e]
    # places after i in lexicographic order.
    steppers = [m for m in range(n) if exps[m] > 2]
    t = len(steppers)
    value = [(-1) ** e.bit_count() * 2 ** (n - e.bit_count()) for e in range(1 << t)]
    offset = [0] * (1 << t)
    for e in range(1, 1 << t):
        j = e.bit_length() - 1
        offset[e] = offset[e ^ (1 << j)] + strides[steppers[j]]
    flat = [0] * (size * size)
    flat[:: size + 1] = [2] * size
    for r, idx in enumerate(index_set):
        # The steps that stay in the box are the nonzero sub-masks of `free`.
        free = sum(1 << j for j, m in enumerate(steppers) if idx[m] < exps[m] - 1)
        e = free
        while e:
            s = r + offset[e]
            flat[r * size + s] = flat[s * size + r] = value[e]
            e = (e - 1) & free
    return _trusted(MilnorLattice, index_set, _trusted(IntMatrix, size, size, tuple(flat)))


def spectrum(bp: BrieskornPham):
    """(ell, nums): the spectrum of bp, the weights sum((k_i + 1) / a_i)
    over the monomial basis, as integer numerators over one denominator.

    With (ell, w) = bp.weights_and_degree, the weight of the monomial
    with exponents k_i is sum(w_i * (k_i + 1)) / ell; nums lists these
    numerators sorted, one per basis monomial.  The least, sum(w_i), is
    ell * sum(1 / a_i), at the constant monomial.  Refuses, with
    InvalidArgument, more than MAX_ENTRIES values, before computing any.

    >>> spectrum(BrieskornPham.of(3, 3))
    (3, [2, 3, 3, 4])
    """
    _require(BrieskornPham, "singularity", (bp,))
    _check_size(bp, "spectrum", bp.milnor_number)
    ell, weights = bp.weights_and_degree
    nums = [0]
    for a, w in zip(bp.exponents, weights):
        nums = [x + w * k for k in range(1, a) for x in nums]
    nums.sort()
    return ell, nums


# The link family, built once, so that `milnor_family` checks only its index.
_FAMILY = tuple(_trusted(BrieskornPham, (6 * k - 1, 3, 2, 2, 2)) for k in FAMILY_RANGE)


def milnor_family(k: int) -> BrieskornPham:
    """Member k of the exotic-sphere link family (6k-1, 3, 2, 2, 2)."""
    _require(int, "family index", (k,))
    if k not in FAMILY_RANGE:
        raise OutOfFamily(f"family index must be in 1..{BP8_ORDER}, got {k}")
    return _FAMILY[k - 1]

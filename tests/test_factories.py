"""Factories and constructors reject non-integers instead of truncating them,
and every other argument check raises its documented exception."""

from fractions import Fraction

import pytest

from exotic_invariants.abelian import (
    Z,
    AbelianGroup,
    GradedGroups,
    divisibility_chain,
    sphere_cohomology,
)
from exotic_invariants.brieskorn import BrieskornPham, MilnorLattice, Spectrum
from exotic_invariants.errors import ConfigMismatch, InvalidArgument
from exotic_invariants.groups import GroupConfig, Theta7Element, de_sapio_steps, theta7
from exotic_invariants.hodge import HodgeDiamond
from exotic_invariants.snf import IntMatrix, determinant

BUILDERS = {
    "IntMatrix": lambda x: IntMatrix(1, 2, (x, 1)),
    "IntMatrix.from_rows": lambda x: IntMatrix.from_rows([[x, 1]]),
    "IntMatrix.from_diagonal": lambda x: IntMatrix.from_diagonal([x]),
    "BrieskornPham": lambda x: BrieskornPham((x, 2)),
    "BrieskornPham.of": lambda x: BrieskornPham.of(x, 2),
    "AbelianGroup free rank": lambda x: AbelianGroup(x, ()),
    "AbelianGroup torsion": lambda x: AbelianGroup(0, (x,)),
    "AbelianGroup.from_orders free rank": lambda x: AbelianGroup.from_orders(x),
    "AbelianGroup.from_orders orders": lambda x: AbelianGroup.from_orders(0, [x + 2, 6]),
    "divisibility_chain": lambda x: divisibility_chain([x + 2, 6]),
    "HodgeDiamond.from_entries": lambda x: HodgeDiamond.from_entries({(0, 0): x, (4, 4): x}),
    "GradedGroups": lambda x: GradedGroups({x: Z}),
    "GroupConfig order": lambda x: GroupConfig(order=x),
    "GroupConfig coeff": lambda x: GroupConfig(coeff=x),
}


@pytest.mark.parametrize("value", [2.5, Fraction(5, 2)], ids=str)
@pytest.mark.parametrize("build", BUILDERS.values(), ids=list(BUILDERS))
def test_non_integers_are_rejected(build, value):
    with pytest.raises(InvalidArgument):
        build(value)


REJECTED = {
    "IntMatrix negative rows": (lambda: IntMatrix(-1, 0, ()), InvalidArgument),
    "IntMatrix index out of range": (lambda: IntMatrix.identity(2)[2, 0], IndexError),
    "determinant non-square": (lambda: determinant(IntMatrix.zero(2, 3)), InvalidArgument),
    "HodgeDiamond 4x4": (lambda: HodgeDiamond(((0,) * 4,) * 4), InvalidArgument),
    "MilnorLattice gram size": (
        lambda: MilnorLattice(((0,),), IntMatrix.from_diagonal([2, 2])),
        InvalidArgument,
    ),
    "MilnorLattice diagonal": (
        lambda: MilnorLattice(((0,),), IntMatrix.from_diagonal([1])),
        InvalidArgument,
    ),
    "Spectrum unsorted": (
        lambda: Spectrum((Fraction(1, 2), Fraction(1, 3))),
        InvalidArgument,
    ),
    "Theta7Element residue": (lambda: Theta7Element(28), InvalidArgument),
    "de_sapio_steps configs": (
        lambda: de_sapio_steps(theta7(0), theta7(1, GroupConfig(order=7)), theta7(2)),
        ConfigMismatch,
    ),
    "sphere_cohomology negative": (lambda: sphere_cohomology(-1), InvalidArgument),
}


@pytest.mark.parametrize("build, error", REJECTED.values(), ids=list(REJECTED))
def test_invalid_arguments_are_rejected(build, error):
    with pytest.raises(error):
        build()


def test_empty_matrix_determinant_is_one():
    assert determinant(IntMatrix.zero(0, 0)) == 1


def test_zero_sphere_is_two_points():
    assert sphere_cohomology(0) == GradedGroups({0: AbelianGroup.free(2)})


def test_graded_groups_hash_repr_and_foreign_equality():
    a = GradedGroups({0: Z, 4: AbelianGroup.cyclic(3)})
    b = GradedGroups({4: AbelianGroup.cyclic(3), 0: Z, 2: AbelianGroup.free(0)})
    assert hash(a) == hash(b) and len({a, b}) == 1
    assert repr(a) == "GradedGroups({0: Z, 4: C3})"
    assert a.__eq__({0: Z, 4: AbelianGroup.cyclic(3)}) is NotImplemented
    assert a != "GradedGroups({0: Z, 4: C3})"

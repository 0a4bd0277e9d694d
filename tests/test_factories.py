"""Factories and constructors reject non-integers instead of truncating them."""

from fractions import Fraction

import pytest

from exotic_invariants.abelian import Z, AbelianGroup, GradedGroups, divisibility_chain
from exotic_invariants.brieskorn import BrieskornPham
from exotic_invariants.errors import InvalidArgument
from exotic_invariants.groups import GroupConfig
from exotic_invariants.hodge import HodgeDiamond
from exotic_invariants.snf import IntMatrix

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

"""Factories, constructors and functions reject non-integers and values of
the wrong library type with InvalidArgument, instead of truncating them or
failing inside, and every other argument check raises its documented
exception."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exotic_invariants.abelian import (
    Z,
    AbelianGroup,
    GradedGroups,
    cokernel_group,
    divisibility_chain,
    kernel_group,
    kunneth,
    sphere_cohomology,
    tensor_and_tor,
)
from exotic_invariants.brieskorn import (
    BrieskornPham,
    MilnorLattice,
    milnor_family,
    milnor_lattice,
    spectrum,
)
from exotic_invariants.bundles import (
    MilnorBundle,
    clutching_compose,
    gysin_cohomology,
    lambda_invariant,
    star_quotient,
)
from exotic_invariants.errors import ConfigMismatch, InvalidArgument
from exotic_invariants.groups import (
    GroupConfig,
    LinkIsotropy,
    RepClass,
    Sigma8Element,
    Theta7Element,
    compose,
    de_sapio_steps,
    family_weights,
    fano_moduli_compose,
    link_isotropies,
    sigma8,
    sigma33,
    sigma_tilde8,
    theta7,
)
from exotic_invariants.hodge import (
    HodgeDiamond,
    branch_of_euler,
    ddbar_constraints_check,
    enumerate_admissible_diamonds,
    hopf_manifold_cohomology,
)
from exotic_invariants.snf import IntMatrix, determinant, rank, smith_normal_form
from exotic_invariants.tduality import (
    FluxedBundle,
    correspondence_h7,
    euler_preserving_dual,
    lifted_flux,
    principal_dual,
)

BUILDERS = {
    "IntMatrix": lambda x: IntMatrix(1, 2, (x, 1)),
    "IntMatrix.from_rows": lambda x: IntMatrix.from_rows([[x, 1]]),
    "IntMatrix.from_diagonal": lambda x: IntMatrix.from_diagonal([x]),
    "BrieskornPham": lambda x: BrieskornPham((x, 2)),
    "BrieskornPham.of": lambda x: BrieskornPham.of(x, 2),
    "AbelianGroup free rank": lambda x: AbelianGroup(x, ()),
    "AbelianGroup torsion": lambda x: AbelianGroup(0, (x,)),
    "AbelianGroup.from_orders free rank": lambda x: AbelianGroup.from_orders(x),
    "AbelianGroup.from_orders orders": lambda x: AbelianGroup.from_orders(0, [x, 6]),
    "divisibility_chain": lambda x: divisibility_chain([x, 6]),
    "HodgeDiamond.from_entries": lambda x: HodgeDiamond.from_entries({(0, 0): x, (4, 4): x}),
    "GradedGroups": lambda x: GradedGroups({x: Z}),
    "GroupConfig order": lambda x: GroupConfig(order=x),
    "GroupConfig coeff": lambda x: GroupConfig(coeff=x),
    "MilnorBundle m": lambda x: MilnorBundle(x, 0),
    "MilnorBundle n": lambda x: MilnorBundle(0, x),
    "FluxedBundle flux": lambda x: FluxedBundle(MilnorBundle(1, 0), x),
    "FluxedBundle bundle": lambda x: FluxedBundle(x, 1),
    "RepClass exponent": lambda x: RepClass(x),
    "link_isotropies l": lambda x: link_isotropies(1, x),
    "Theta7Element residue": lambda x: Theta7Element(x),
    "correspondence_h7 m": lambda x: correspondence_h7(x, 4),
    "lifted_flux m": lambda x: lifted_flux(x, 4),
    "branch_of_euler": lambda x: branch_of_euler(x),
    "milnor_family": lambda x: milnor_family(x),
    "family_weights": lambda x: family_weights(x),
    "cokernel_group": lambda x: cokernel_group(x),
    "kernel_group": lambda x: kernel_group(x),
    "rank": lambda x: rank(x),
    "determinant": lambda x: determinant(x),
    "de_sapio_steps target": lambda x: de_sapio_steps(theta7(1), theta7(2), x),
    "sphere_cohomology": lambda x: sphere_cohomology(x),
}


# Z is a library value of the wrong type for every entry of BUILDERS.
@pytest.mark.parametrize("value", [2.5, Fraction(5, 2), "3", None, Z], ids=str)
@pytest.mark.parametrize("build", BUILDERS.values(), ids=list(BUILDERS))
def test_non_integers_are_rejected(build, value):
    with pytest.raises(InvalidArgument):
        build(value)


def test_bools_pass_as_integers():
    assert MilnorBundle(True, False).euler == 1
    assert FluxedBundle(MilnorBundle(1, 0), True).flux == 1
    assert RepClass(True).exponent == 1
    assert link_isotropies(1, True) == link_isotropies(1, 1)
    assert theta7(True).residue == 1
    assert IntMatrix(True, 2, (1, 2)).to_lists() == [[1, 2]]
    assert IntMatrix.zero(True, False).rows == 1
    assert IntMatrix.identity(True).entries == (1,)
    assert branch_of_euler(True) == branch_of_euler(1)
    assert milnor_family(True) == milnor_family(1)
    assert lifted_flux(True, 4) == lifted_flux(1, 4)
    assert AbelianGroup.from_orders(True, [False]) == AbelianGroup.free(2)


REJECTED = {
    "IntMatrix negative rows": (lambda: IntMatrix(-1, 0, ()), InvalidArgument),
    "IntMatrix index out of range": (lambda: IntMatrix.identity(2)[2, 0], IndexError),
    "IntMatrix.identity negative": (lambda: IntMatrix.identity(-1), InvalidArgument),
    "IntMatrix.zero negative cols": (lambda: IntMatrix.zero(2, -1), InvalidArgument),
    "IntMatrix float rows": (lambda: IntMatrix(2.5, 2, (1,) * 5), InvalidArgument),
    "IntMatrix.zero float rows": (lambda: IntMatrix.zero(2.5, 1), InvalidArgument),
    "IntMatrix.identity float": (lambda: IntMatrix.identity(1.5), InvalidArgument),
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
    "MilnorLattice diagonal last": (
        lambda: MilnorLattice(((0,), (1,)), IntMatrix.from_diagonal([2, 1])),
        InvalidArgument,
    ),
    "IntMatrix float last": (lambda: IntMatrix(1, 3, (1, 2, 3.0)), InvalidArgument),
    "Theta7Element residue": (lambda: Theta7Element(28), InvalidArgument),
    "de_sapio_steps configs": (
        lambda: de_sapio_steps(theta7(0), theta7(1, GroupConfig(order=7)), theta7(2)),
        ConfigMismatch,
    ),
    "sphere_cohomology negative": (lambda: sphere_cohomology(-1), InvalidArgument),
    "GradedGroups non-group value": (lambda: GradedGroups({0: 5}), InvalidArgument),
    "correspondence_h7 float": (lambda: correspondence_h7(2.5, 4), InvalidArgument),
    "lifted_flux float": (lambda: lifted_flux(2.5, 4), InvalidArgument),
    "tensor_and_tor int": (lambda: tensor_and_tor(5, Z), InvalidArgument),
    "tensor_and_tor str": (lambda: tensor_and_tor(Z, "3"), InvalidArgument),
    "cokernel_group list": (lambda: cokernel_group([[1, 2]]), InvalidArgument),
    "kernel_group list": (lambda: kernel_group([[1, 2]]), InvalidArgument),
    "de_sapio_steps float": (
        lambda: de_sapio_steps(theta7(1), theta7(2), 2.5),
        InvalidArgument,
    ),
    "branch_of_euler float": (lambda: branch_of_euler(2.5), InvalidArgument),
    "milnor_family float": (lambda: milnor_family(2.5), InvalidArgument),
    "family_weights float": (lambda: family_weights(2.5), InvalidArgument),
    "AbelianGroup.from_orders str": (lambda: AbelianGroup.from_orders("3"), InvalidArgument),
    "AbelianGroup.from_orders None": (lambda: AbelianGroup.from_orders(None), InvalidArgument),
    "FluxedBundle int bundle": (lambda: FluxedBundle(5, 1), InvalidArgument),
    "BrieskornPham int exponents": (lambda: BrieskornPham(5), InvalidArgument),
    "AbelianGroup int torsion": (lambda: AbelianGroup(0, 5), InvalidArgument),
    "GradedGroups int": (lambda: GradedGroups(5), InvalidArgument),
    "GradedGroups list of ints": (lambda: GradedGroups([1, 2]), InvalidArgument),
    "GradedGroups one-item pair": (lambda: GradedGroups([(0,)]), InvalidArgument),
    "milnor_lattice tuple": (lambda: milnor_lattice((3, 2)), InvalidArgument),
    "spectrum tuple": (lambda: spectrum((3, 2)), InvalidArgument),
    "lambda_invariant tuple": (lambda: lambda_invariant((1, 0)), InvalidArgument),
    "smith_normal_form list": (lambda: smith_normal_form([[1]]), InvalidArgument),
    "kunneth int": (lambda: kunneth(1, 2), InvalidArgument),
    "euler_preserving_dual int": (lambda: euler_preserving_dual(5), InvalidArgument),
    "principal_dual int": (lambda: principal_dual(5), InvalidArgument),
    "gysin_cohomology int": (lambda: gysin_cohomology(5), InvalidArgument),
    "clutching_compose int": (
        lambda: clutching_compose(5, MilnorBundle(1, 0)),
        InvalidArgument,
    ),
    "compose ints": (lambda: compose(1, 2), InvalidArgument),
    "fano_moduli_compose int": (
        lambda: fano_moduli_compose(5, RepClass(1)),
        InvalidArgument,
    ),
    "ddbar_constraints_check int": (lambda: ddbar_constraints_check(5, 1), InvalidArgument),
    "direct_sum int": (lambda: Z.direct_sum(5), InvalidArgument),
    "theta7 str": (lambda: theta7("3"), InvalidArgument),
    "theta7 int config": (lambda: theta7(1, 5), InvalidArgument),
    "sigma33 int config": (lambda: sigma33(1, 1, 5), InvalidArgument),
    "Theta7Element int config": (lambda: Theta7Element(1, 5), InvalidArgument),
    "sigma8 str": (lambda: sigma8("3"), InvalidArgument),
    "sigma8 int config": (lambda: sigma8(1, 5), InvalidArgument),
    "sigma_tilde8 int config": (lambda: sigma_tilde8(1, 1, 1, 5), InvalidArgument),
    "Sigma8Element int config": (lambda: Sigma8Element(1, 5), InvalidArgument),
    "hopf_manifold_cohomology str": (lambda: hopf_manifold_cohomology("3", 1), InvalidArgument),
    "star_quotient str": (lambda: star_quotient("3", 1, "principal"), InvalidArgument),
    "HodgeDiamond.from_entries int": (lambda: HodgeDiamond.from_entries(5), InvalidArgument),
    "HodgeDiamond.from_entries int key": (
        lambda: HodgeDiamond.from_entries({5: 1}),
        InvalidArgument,
    ),
    "HodgeDiamond.from_entries triple key": (
        lambda: HodgeDiamond.from_entries({(0, 0, 0): 1}),
        InvalidArgument,
    ),
    "HodgeDiamond int": (lambda: HodgeDiamond(5), InvalidArgument),
    "divisibility_chain int": (lambda: divisibility_chain(5), InvalidArgument),
    "AbelianGroup.from_orders int orders": (
        lambda: AbelianGroup.from_orders(0, 5),
        InvalidArgument,
    ),
    "IntMatrix.from_rows int": (lambda: IntMatrix.from_rows(5), InvalidArgument),
    "IntMatrix.from_rows int row": (lambda: IntMatrix.from_rows([5]), InvalidArgument),
    "IntMatrix.from_diagonal int": (lambda: IntMatrix.from_diagonal(5), InvalidArgument),
    "IntMatrix int entries": (lambda: IntMatrix(1, 1, 5), InvalidArgument),
    "IntMatrix @ int": (lambda: IntMatrix.identity(2) @ 5, InvalidArgument),
    "MilnorLattice int index set": (
        lambda: MilnorLattice(5, IntMatrix.zero(0, 0)),
        InvalidArgument,
    ),
    "MilnorLattice int gram": (lambda: MilnorLattice((), 5), InvalidArgument),
    # GradedGroups' `__getitem__` never raises, so reading it as a
    # sequence did not end.
    "BrieskornPham graded groups": (
        lambda: BrieskornPham(sphere_cohomology(7)),
        InvalidArgument,
    ),
    "LinkIsotropy float order": (lambda: LinkIsotropy([0, 1], 2.5, None), InvalidArgument),
}


@pytest.mark.parametrize("build, error", REJECTED.values(), ids=list(REJECTED))
def test_invalid_arguments_are_rejected(build, error):
    with pytest.raises(error):
        build()


def test_sphere_cohomology_names_its_dimension():
    with pytest.raises(InvalidArgument, match="sphere dimension must be of type int"):
        sphere_cohomology(2.5)


def test_bool_entries_and_equal_distinct_spectrum_values_pass():
    assert IntMatrix(1, 2, (True, False)).entries == (True, False)
    # x*y^0 and x^0*y are distinct basis monomials of equal weight 3/3;
    # the spectrum keeps both.
    assert spectrum(BrieskornPham.of(3, 3)) == (3, [2, 3, 3, 4])


def test_list_torsion_is_stored_as_a_tuple():
    g = AbelianGroup(0, [2])
    assert g.torsion == (2,) and g == AbelianGroup.cyclic(2)
    assert hash(g) == hash(AbelianGroup.cyclic(2))
    assert g.direct_sum(Z) == AbelianGroup.from_orders(1, [2])
    assert AbelianGroup(0, iter([2, 4])).torsion == (2, 4)


def test_list_exponents_equal_the_tuple():
    assert BrieskornPham([5, 3, 2, 2, 2]) == milnor_family(1)


def test_list_exponents_are_hashable():
    assert hash(BrieskornPham([5, 3, 2, 2, 2])) == hash(milnor_family(1))


def test_list_exponents_are_in_the_sphere_link_family():
    assert BrieskornPham([5, 3, 2, 2, 2]).in_sphere_link_family


# `IntMatrix` and `HodgeDiamond` take (i, j) pairs in `__getitem__`; read
# as a collection, each is refused by its type name, not by what Python's
# fallback iteration would have fetched first.
@pytest.mark.parametrize(
    "value",
    [IntMatrix.identity(2), HodgeDiamond.from_entries({(0, 0): 1, (4, 4): 1})],
    ids=["IntMatrix", "HodgeDiamond"],
)
def test_pair_indexed_values_are_not_iterable(value):
    name = type(value).__name__
    with pytest.raises(InvalidArgument) as err:
        BrieskornPham(value)
    assert str(err.value) == f"exponents must be iterable: '{name}' object is not iterable"


# Each refuses a pair outside its 5 x 5 grid with an IndexError naming it,
# a negative index too: the diamond's nested tuples read h^{4,4} = 1 at
# (-1, -1).
@pytest.mark.parametrize("pair", [(-1, 0), (0, -1), (5, 0)], ids=str)
@pytest.mark.parametrize(
    "value",
    [IntMatrix.identity(5), enumerate_admissible_diamonds("unit")[0]],
    ids=["IntMatrix", "HodgeDiamond"],
)
def test_pair_indexed_values_refuse_pairs_outside_the_grid(value, pair):
    with pytest.raises(IndexError) as err:
        value[pair]
    assert err.value.args == (pair,)


# Collections are stored as the tuples their check returns, so a value
# built from lists equals the one built from tuples and hashes like it.


def test_list_entries_equal_the_tuple():
    m = IntMatrix(1, 2, [1, 2])
    assert m == IntMatrix.from_rows([[1, 2]]) == IntMatrix(1, 2, (1, 2))
    assert hash(m) == hash(IntMatrix.from_rows([[1, 2]]))
    assert IntMatrix.from_diagonal(iter([2, 3])) == IntMatrix.from_rows([[2, 0], [0, 3]])


def test_list_isotropy_record_equals_the_tuple():
    record = LinkIsotropy([0, 1], 2, [2, 3])
    assert record == LinkIsotropy((0, 1), 2, (2, 3))
    assert hash(record) == hash(LinkIsotropy((0, 1), 2, (2, 3)))
    assert record in link_isotropies(1, 3)


def test_list_grid_equals_the_sparse_diamond():
    grid = [[0] * 5 for _ in range(5)]
    grid[0][0] = grid[4][4] = 1
    d = HodgeDiamond(grid)
    assert d == HodgeDiamond.from_entries({(0, 0): 1, (4, 4): 1})
    assert hash(d) == hash(HodgeDiamond.from_entries({(0, 0): 1, (4, 4): 1}))


def test_list_index_set_equals_the_library_lattice():
    lat = milnor_lattice(BrieskornPham.of(3, 3, 2))
    rebuilt = MilnorLattice(list(lat.index_set), lat.gram)
    assert rebuilt == lat and hash(rebuilt) == hash(lat)


# The library builds these values without its public checks; rebuilding
# each through its public constructor is the check that they would pass.


def _grid(rows, cols):
    n = rows * cols
    return st.lists(st.integers(-9, 9), min_size=n, max_size=n).map(
        lambda e: IntMatrix(rows, cols, tuple(e))
    )


dims = st.integers(0, 4)
chained_pairs = st.tuples(dims, dims, dims).flatmap(
    lambda s: st.tuples(_grid(s[0], s[1]), _grid(s[1], s[2]))
)


@given(chained_pairs, dims, dims)
@settings(max_examples=100)
def test_library_built_matrices_pass_the_public_checks(pair, n, k):
    a, b = pair
    built = [a @ b, a.transpose(), IntMatrix.identity(n), IntMatrix.zero(n, k)]
    for m in built + list(smith_normal_form(a)):
        assert IntMatrix(m.rows, m.cols, m.entries) == m


@given(st.lists(st.integers(2, 5), min_size=1, max_size=4).map(tuple))
@settings(max_examples=50)
def test_library_built_lattices_pass_the_public_checks(exps):
    bp = BrieskornPham(exps)
    lat = milnor_lattice(bp)
    g = lat.gram
    assert IntMatrix(g.rows, g.cols, g.entries) == g
    assert MilnorLattice(lat.index_set, lat.gram) == lat


@given(chained_pairs, dims, st.lists(st.integers(-12, 12), max_size=4), st.integers(-6, 6))
@settings(max_examples=100)
def test_library_built_groups_pass_the_public_checks(pair, free, orders, k):
    a, b = pair
    g = AbelianGroup.from_orders(free, orders)
    built = [g, cokernel_group(a), kernel_group(b), *tensor_and_tor(g, cokernel_group(b))]
    circle = kunneth(GradedGroups({0: g, 1: cokernel_group(a)}), sphere_cohomology(1))
    for h in built + [group for _, group in circle.items()]:
        assert AbelianGroup(h.free_rank, h.torsion) == h
    graded = [circle, MilnorBundle(1, k - 1).cohomology, sphere_cohomology(free)]
    for gg in graded:
        rebuilt = GradedGroups(dict(gg.items()))
        assert rebuilt == gg and hash(rebuilt) == hash(gg)


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

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exotic_invariants.abelian import (
    TRIVIAL,
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
from exotic_invariants.bundles import MilnorBundle
from exotic_invariants.errors import InvalidArgument
from exotic_invariants.hodge import hopf_manifold_cohomology
from exotic_invariants.snf import IntMatrix
from oracles import cofactor_determinant, kunneth_by_pairs


def groups_strategy():
    return st.builds(
        AbelianGroup.from_orders,
        st.integers(0, 2),
        st.lists(st.integers(2, 12), max_size=3),
    )


def graded_strategy():
    return st.dictionaries(st.integers(0, 4), groups_strategy(), max_size=3).map(
        GradedGroups
    )


def test_divisibility_chain_refuses_an_order_below_two():
    with pytest.raises(
        InvalidArgument, match="^chain normalization expects integer orders >= 2$"
    ):
        divisibility_chain([6, 1])


def test_normalization_crt():
    assert AbelianGroup.from_orders(0, [2, 3]) == AbelianGroup.cyclic(6)
    assert AbelianGroup.from_orders(0, [4, 6]).torsion == (2, 12)
    assert AbelianGroup.from_orders(1, [1, 0]) == AbelianGroup.free(2)


@given(st.lists(st.integers(2, 40), max_size=6))
@settings(max_examples=150)
def test_chain_normalization_agrees_with_snf_route(orders):
    via_chain = AbelianGroup.from_orders(0, orders)
    if orders:
        via_snf = cokernel_group(IntMatrix.from_diagonal(orders))
        assert via_chain == via_snf


def test_invariant_enforced():
    with pytest.raises(ValueError):
        AbelianGroup(0, (4, 6))  # not a chain
    with pytest.raises(ValueError):
        AbelianGroup(0, (1,))


def test_group_equal_examples():
    assert Z.direct_sum(AbelianGroup.cyclic(2)) == AbelianGroup.from_orders(1, [2])
    assert AbelianGroup.from_orders(0, [2, 3]) == AbelianGroup.cyclic(6)
    assert AbelianGroup.cyclic(4) != AbelianGroup.from_orders(0, [2, 2])


def test_cokernel_examples():
    assert cokernel_group(IntMatrix.from_rows([[6]])) == AbelianGroup.cyclic(6)
    assert cokernel_group(IntMatrix.from_rows([[0]])) == Z
    assert cokernel_group(IntMatrix.from_diagonal([4, 6])).torsion == (2, 12)


def test_kernel_examples():
    assert kernel_group(IntMatrix.from_rows([[2, 4]])) == Z
    assert kernel_group(IntMatrix.from_rows([[1, 0], [0, 1]])) == TRIVIAL


@given(
    st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3), min_size=3, max_size=3)
)
@settings(max_examples=150)
def test_cokernel_order_matches_determinant(rows):
    m = IntMatrix.from_rows(rows)
    det = cofactor_determinant(m)
    order = cokernel_group(m).order()
    if det != 0:
        assert order == abs(det)
    else:
        assert order is None


def test_tensor_tor_examples():
    t, tor = tensor_and_tor(Z, AbelianGroup.cyclic(5))
    assert t == AbelianGroup.cyclic(5) and tor == TRIVIAL
    t, tor = tensor_and_tor(AbelianGroup.cyclic(4), AbelianGroup.cyclic(6))
    assert t == AbelianGroup.cyclic(2) and tor == AbelianGroup.cyclic(2)
    t, tor = tensor_and_tor(AbelianGroup.from_orders(1, [2]), AbelianGroup.cyclic(2))
    assert t == AbelianGroup.from_orders(0, [2, 2]) and tor == AbelianGroup.cyclic(2)


@given(groups_strategy(), groups_strategy())
@settings(max_examples=100)
def test_tensor_and_tor_symmetric(a, b):
    tab = tensor_and_tor(a, b)
    tba = tensor_and_tor(b, a)
    assert tab == tba


def test_kunneth_spheres():
    k = kunneth(sphere_cohomology(7), sphere_cohomology(1))
    assert k == GradedGroups({0: Z, 1: Z, 7: Z, 8: Z})


def test_kunneth_point_identity():
    point = GradedGroups({0: Z})
    g = GradedGroups({0: Z, 2: AbelianGroup.cyclic(4), 5: Z})
    assert kunneth(point, g) == g
    assert kunneth(g, point) == g


def test_kunneth_bundle_times_circle():
    # H*(M(3,0)) = Z, C3, Z in degrees 0, 4, 7; the circle factor copies
    # everything up one degree.
    m30 = GradedGroups({0: Z, 4: AbelianGroup.cyclic(3), 7: Z})
    k = kunneth(m30, sphere_cohomology(1))
    assert k == GradedGroups(
        {
            0: Z,
            1: Z,
            4: AbelianGroup.cyclic(3),
            5: AbelianGroup.cyclic(3),
            7: Z,
            8: Z,
        }
    )


@given(graded_strategy(), graded_strategy())
@settings(max_examples=100)
def test_kunneth_matches_the_pairwise_fold(a, b):
    assert kunneth(a, b) == kunneth_by_pairs(a, b)


def test_kunneth_trivial_pair_and_point_match_the_pairwise_fold():
    c2 = GradedGroups({0: AbelianGroup.cyclic(2)})
    c3 = GradedGroups({0: AbelianGroup.cyclic(3)})
    # C2 (x) C3 and Tor(C2, C3) are both trivial, so the product is empty.
    assert kunneth(c2, c3) == kunneth_by_pairs(c2, c3) == GradedGroups()
    # Tor(C2, C2) = C2 lands one degree up.
    assert kunneth(c2, c2) == kunneth_by_pairs(c2, c2) == GradedGroups({0: c2[0], 1: c2[0]})
    point = GradedGroups({0: Z})
    g = GradedGroups({0: Z, 2: AbelianGroup.from_orders(1, [4, 6]), 5: Z})
    assert kunneth(point, g) == kunneth_by_pairs(point, g) == g
    assert kunneth(g, point) == kunneth_by_pairs(g, point) == g


def test_hopf_manifold_cohomology_matches_the_pairwise_fold():
    circle = sphere_cohomology(1)
    for m in range(-6, 7):
        for k in range(-6, 7):
            total = MilnorBundle(m, k - m).cohomology
            assert hopf_manifold_cohomology(m, k) == kunneth_by_pairs(total, circle), (m, k)


@given(graded_strategy(), graded_strategy(), graded_strategy())
@settings(max_examples=40)
def test_kunneth_associative(a, b, c):
    assert kunneth(kunneth(a, b), c) == kunneth(a, kunneth(b, c))


def test_graded_groups_canonical():
    gg = GradedGroups({0: Z, 3: TRIVIAL})
    assert gg.degrees() == [0]
    assert gg[3] == TRIVIAL
    assert gg == GradedGroups({0: Z})
    with pytest.raises(ValueError):
        GradedGroups({-1: Z})

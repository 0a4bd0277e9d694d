import re
from itertools import product

import pytest

from exotic_invariants.abelian import AbelianGroup, GradedGroups, Z
from exotic_invariants.errors import InvalidArgument
from exotic_invariants.hodge import (
    NONUNIT,
    UNIT,
    HodgeDiamond,
    betti_vector,
    branch_of_euler,
    ddbar_constraints_check,
    enumerate_admissible_diamonds,
    hopf_manifold_cohomology,
)
from oracles import hopf_hodge_numbers, mall_diamond

MALL = {(0, 0): 1, (0, 1): 1, (4, 4): 1, (4, 3): 1}
DUAL = {(0, 0): 1, (1, 0): 1, (4, 4): 1, (3, 4): 1}


def test_hopf_hodge_numbers():
    assert hopf_hodge_numbers(4) == MALL
    assert hopf_hodge_numbers(2) == {(0, 0): 1, (0, 1): 1, (2, 2): 1, (2, 1): 1}
    with pytest.raises(InvalidArgument, match="need complex dimension >= 2, got 1"):
        hopf_hodge_numbers(1)


def test_mall_diamond_serre_symmetric():
    d = mall_diamond()
    assert d.entries() == MALL
    assert d in enumerate_admissible_diamonds(UNIT)
    for p in range(5):
        for q in range(5):
            assert d[p, q] == d[4 - p, 4 - q]


def test_serre_duality_enforced_by_type():
    with pytest.raises(ValueError):
        HodgeDiamond.from_entries({(0, 0): 1})
    with pytest.raises(ValueError):
        HodgeDiamond.from_entries({(0, 1): 2, (4, 3): 1})


def test_a_serre_symmetric_grid_with_a_negative_entry_is_refused():
    grid = [[0] * 5 for _ in range(5)]
    grid[0][1] = grid[4][3] = -1
    with pytest.raises(InvalidArgument, match="^Hodge numbers are nonnegative integers$"):
        HodgeDiamond(grid)


@pytest.mark.parametrize(
    "entries, index",
    [({(-1, -1): 1, (0, 0): 1}, "(-1,-1)"), ({(5, 0): 1}, "(5,0)")],
    ids=["negative wraps", "past the grid"],
)
def test_from_entries_rejects_indices_off_the_grid(entries, index):
    with pytest.raises(InvalidArgument, match=re.escape(index)):
        HodgeDiamond.from_entries(entries)


def test_branch_selection():
    assert branch_of_euler(1) == branch_of_euler(-1) == UNIT
    assert branch_of_euler(0) == branch_of_euler(5) == NONUNIT
    assert betti_vector(UNIT) == (1, 1, 0, 0, 0, 0, 0, 1, 1)
    assert betti_vector(NONUNIT) == (1, 1, 0, 0, 1, 0, 0, 1, 1)
    with pytest.raises(InvalidArgument):
        betti_vector("weird")


def test_checker_on_examples():
    ok, why = ddbar_constraints_check(mall_diamond(), 1)
    assert ok, why
    ok, why = ddbar_constraints_check(HodgeDiamond.from_entries({}), 1)
    assert not ok and "b_0" in why
    nonunit = HodgeDiamond.from_entries({**MALL, (2, 2): 1})
    ok, why = ddbar_constraints_check(nonunit, 5)
    assert ok, why
    # same diamond fails on the unit branch: b_4 would have to vanish
    ok, why = ddbar_constraints_check(nonunit, 1)
    assert not ok


def test_unit_enumeration_matches_known_pair():
    diamonds = enumerate_admissible_diamonds(UNIT)
    assert len(diamonds) == 2
    assert {frozenset(d.entries().items()) for d in diamonds} == {
        frozenset(MALL.items()),
        frozenset(DUAL.items()),
    }


def test_nonunit_enumeration_constraints():
    diamonds = enumerate_admissible_diamonds(NONUNIT)
    assert diamonds
    for d in diamonds:
        assert d[4, 0] == 0 and d[1, 3] == 0
        assert d[2, 2] == betti_vector(NONUNIT)[4]
        ok, why = ddbar_constraints_check(d, 7)
        assert ok, why


def test_enumerations_closed_under_checker_and_frolicher():
    for branch, k in ((UNIT, 1), (NONUNIT, 3)):
        betti = betti_vector(branch)
        for d in enumerate_admissible_diamonds(branch):
            ok, why = ddbar_constraints_check(d, k)
            assert ok, why
            for r in range(9):
                assert betti[r] <= d.antidiagonal_sum(r)


SERRE_CELLS = [(p, q) for p in range(5) for q in range(5) if (p, q) <= (4 - p, 4 - q)]


def serre_diamond(values) -> HodgeDiamond:
    grid = [[0] * 5 for _ in range(5)]
    for (p, q), value in zip(SERRE_CELLS, values):
        grid[p][q] = grid[4 - p][4 - q] = value
    return HodgeDiamond(tuple(map(tuple, grid)))


@pytest.mark.parametrize("branch, k", [(UNIT, 1), (NONUNIT, 3)])
def test_betti_sums_imply_the_paper_constraints(branch, k):
    """The checker tests only the Betti sums; every 0/1 Serre-symmetric
    diamond it passes also meets the paper's edge and degree-4 rules, and
    the diamonds it passes, in the lexicographic order of the Serre cells,
    are exactly the closed-form enumeration."""
    assert len(SERRE_CELLS) == 13
    passed = []
    for values in product((0, 1), repeat=len(SERRE_CELLS)):
        d = serre_diamond(values)
        if not ddbar_constraints_check(d, k)[0]:
            continue
        passed.append(d)
        assert d[0, 1] + d[1, 0] == 1
        assert d[3, 4] + d[4, 3] == 1
        if branch == NONUNIT:
            assert 2 * d[4, 0] + d[2, 2] + 2 * d[1, 3] == 1
            assert d[4, 0] == d[1, 3] == 0
    assert passed == enumerate_admissible_diamonds(branch)


def test_hopf_manifold_cohomology():
    for m, k in ((1, 1), (4, -1)):
        coh = hopf_manifold_cohomology(m, k)
        assert coh == GradedGroups({0: Z, 1: Z, 7: Z, 8: Z})
    coh = hopf_manifold_cohomology(2, 5)
    assert coh == GradedGroups(
        {
            0: Z,
            1: Z,
            4: AbelianGroup.cyclic(5),
            5: AbelianGroup.cyclic(5),
            7: Z,
            8: Z,
        }
    )
    # trivial-bundle case keeps the free classes of the 3-sphere factor
    coh = hopf_manifold_cohomology(3, 0)
    assert coh == GradedGroups(
        {
            0: Z,
            1: Z,
            3: Z,
            4: AbelianGroup.free(2),
            5: Z,
            7: Z,
            8: Z,
        }
    )


def test_free_ranks_differ_from_the_paper_betti_vector_off_the_unit_branch():
    def free_ranks(m, k):
        coh = hopf_manifold_cohomology(m, k)
        return tuple(coh[d].free_rank for d in range(9))

    for m, k in ((1, 1), (4, -1), (0, 1)):
        assert free_ranks(m, k) == betti_vector(UNIT)
    assert betti_vector(NONUNIT) == (1, 1, 0, 0, 1, 0, 0, 1, 1)
    for m, k in ((2, 5), (0, 2), (3, -4)):
        assert branch_of_euler(k) == NONUNIT
        assert free_ranks(m, k) == (1, 1, 0, 0, 0, 0, 0, 1, 1)  # b4 = 0
    for m in (0, 3, -2):
        assert free_ranks(m, 0) == (1, 1, 0, 1, 2, 1, 0, 1, 1)  # (b3, b4, b5) = (1, 2, 1)


def test_triangle_layout_rows():
    rows = mall_diamond().triangle().splitlines()
    assert rows[0].strip() == "1"
    assert rows[1].split() == ["0", "1"]  # h10 then h01
    assert rows[7].split() == ["1", "0"]  # h43 then h34
    assert rows[8].strip() == "1"

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exotic_invariants.snf import (
    IntMatrix,
    determinant,
    invariant_factors,
    rank,
    smith_normal_form,
)
from oracles import cofactor_determinant, fraction_free_rank


def matrices(max_dim=6, bound=20):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(st.integers(-bound, bound), min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            ).map(IntMatrix.from_rows)
        )
    )


def grids(rows, cols, bound=20):
    return st.lists(
        st.integers(-bound, bound), min_size=rows * cols, max_size=rows * cols
    ).map(lambda e: IntMatrix(rows, cols, tuple(e)))


def shaped_matrices(max_dim=6):
    """Rectangular, rank-deficient (a product through a thin middle) and
    zero matrices, with empty shapes among them."""
    dims = st.integers(0, max_dim)
    dense = st.tuples(dims, dims).flatmap(lambda s: grids(*s))
    thin = st.tuples(dims, st.integers(0, 2), dims).flatmap(
        lambda s: st.tuples(grids(s[0], s[1], 5), grids(s[1], s[2], 5))
    ).map(lambda f: f[0] @ f[1])
    zero = st.tuples(dims, dims).map(lambda s: IntMatrix.zero(*s))
    return st.one_of(dense, thin, zero)


def is_divisibility_chain(diag):
    nonzero = [d for d in diag if d != 0]
    return all(nonzero[i + 1] % nonzero[i] == 0 for i in range(len(nonzero) - 1)) and all(
        d == 0 for d in diag[len(nonzero):]
    )


def test_identity_is_fixed():
    m = IntMatrix.identity(3)
    u, d, v = smith_normal_form(m)
    assert d == m
    assert u @ m @ v == d


def test_zero_matrix():
    m = IntMatrix.zero(2, 3)
    u, d, v = smith_normal_form(m)
    assert d == m


def test_worked_example():
    # d1 = gcd of the entries = 2 and d1*d2 = |det| = 8, so diag(2, 4)
    m = IntMatrix.from_rows([[2, 4], [6, 8]])
    _, d, _ = smith_normal_form(m)
    assert d.diagonal() == [2, 4]


@given(matrices())
@settings(max_examples=200)
def test_snf_roundtrip(m):
    u, d, v = smith_normal_form(m)
    assert u @ m @ v == d
    assert d.is_diagonal()
    assert all(x >= 0 for x in d.diagonal())
    assert is_divisibility_chain(d.diagonal())
    assert abs(cofactor_determinant(u)) == 1
    assert abs(cofactor_determinant(v)) == 1


@given(matrices(max_dim=5, bound=12))
@settings(max_examples=100)
def test_determinant_routes_agree(m):
    if m.rows == m.cols:
        assert determinant(m) == cofactor_determinant(m)


@pytest.mark.parametrize(
    "rows, det",
    [
        ([[0, 1], [1, 0]], -1),
        ([[0, 1, 2], [0, 3, 4], [5, 6, 7]], -10),
        ([[0, 1], [0, 2]], 0),
        ([[1, 2, 3], [2, 4, 6], [0, 0, 1]], 0),
    ],
    ids=["swap next row", "swap past a zero", "zero column", "zero pivot later"],
)
def test_determinant_zero_pivots(rows, det):
    m = IntMatrix.from_rows(rows)
    assert determinant(m) == cofactor_determinant(m) == det


@given(matrices())
@settings(max_examples=100)
def test_rank_bounded(m):
    assert 0 <= rank(m) <= min(m.rows, m.cols)


@given(shaped_matrices())
@example(IntMatrix.zero(0, 0))
@example(IntMatrix.zero(0, 3))
@example(IntMatrix.zero(3, 0))
@settings(max_examples=200)
def test_invariant_factors_match_smith_diagonal(m):
    assert invariant_factors(m) == smith_normal_form(m)[1].diagonal()


@given(shaped_matrices())
@settings(max_examples=200)
def test_rank_matches_fraction_free_oracle(m):
    assert rank(m) == fraction_free_rank(m.to_lists())


def test_empty_shapes():
    for rows, cols in [(0, 0), (0, 3), (3, 0)]:
        m = IntMatrix.zero(rows, cols)
        u, d, v = smith_normal_form(m)
        assert (u, d, v) == (IntMatrix.identity(rows), m, IntMatrix.identity(cols))
        assert invariant_factors(m) == [] and rank(m) == 0


def test_transforms_are_pinned():
    # The pivot rule fixes U and V, not just D; callers may rely on them.
    m = IntMatrix.from_rows([[4, 7, -2, 0], [6, 3, 5, 9], [-8, 2, 10, 6]])
    u, d, v = smith_normal_form(m)
    assert u.to_lists() == [[-1, 0, 0], [19, -1, 1], [-72, 6, -5]]
    assert d.diagonal() == [1, 1, 4] and d.is_diagonal()
    assert v.to_lists() == [
        [0, 2, 36, 105], [1, 0, -2, -6], [4, 4, 65, 189], [0, -3, -59, -173]
    ]


def test_transpose_and_matmul_shapes():
    m = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
    assert m.transpose().to_lists() == [[1, 4], [2, 5], [3, 6]]
    with pytest.raises(ValueError):
        m @ m


def test_entry_validation():
    with pytest.raises(ValueError):
        IntMatrix(2, 2, (1, 2, 3))
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 2], [3]])


def test_large_entries_stay_exact():
    big = 10**40
    m = IntMatrix.from_rows([[big, 1], [0, big]])
    u, d, v = smith_normal_form(m)
    assert u @ m @ v == d
    prod = 1
    for x in d.diagonal():
        prod *= x
    assert prod == big * big

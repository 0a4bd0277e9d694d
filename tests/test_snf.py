import random
from contextlib import contextmanager
from itertools import accumulate
from math import gcd, isqrt, prod
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exotic_invariants import snf
from exotic_invariants.brieskorn import FAMILY_RANGE, milnor_family, milnor_lattice
from exotic_invariants.errors import InvalidArgument
from exotic_invariants.snf import (
    IntMatrix,
    _bareiss,
    _bezout,
    determinant,
    invariant_factors,
    rank,
    smith_normal_form,
)
from oracles import cofactor_determinant, rational_rank, row_support_scan


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


def scaled_matrices():
    """Shaped matrices with every entry times a common factor c >= 2.  Then
    c divides the pivot minor D and every entry, so no entry is a unit mod D
    and every column of `invariant_factors` takes the gcd route."""
    return st.tuples(shaped_matrices(), st.integers(2, 12)).map(
        lambda t: IntMatrix(t[0].rows, t[0].cols, tuple(t[1] * x for x in t[0].entries))
    )


def sparse_grids(rows, cols, bound=20):
    """rows x cols matrices with about 80% of their entries zero."""
    entry = st.tuples(st.integers(0, 4), st.integers(-bound, bound)).map(
        lambda t: 0 if t[0] else t[1]
    )
    return st.lists(entry, min_size=rows * cols, max_size=rows * cols).map(
        lambda e: IntMatrix(rows, cols, tuple(e))
    )


def banded_part(m, width):
    return IntMatrix.from_rows(
        [[x if abs(i - j) <= width else 0 for j, x in enumerate(r)] for i, r in enumerate(m.to_lists())]
    )


def block_diagonal_rows(a, b):
    return [r + [0] * b.cols for r in a.to_lists()] + [[0] * a.cols + r for r in b.to_lists()]


def zero_lines(m, rows, cols):
    return IntMatrix.from_rows(
        [[0 if i in rows or j in cols else x for j, x in enumerate(r)] for i, r in enumerate(m.to_lists())]
    )


def sparse_matrices(max_dim=6, square=False):
    """Banded, block-diagonal with shuffled rows, about 80% zeros, and
    dense with zero rows and columns.  Their pivot columns miss rows below
    the pivot, which the Bareiss pass then rescales lazily when they are
    next used."""
    n, half = st.integers(1, max_dim), st.integers(1, max_dim // 2)
    shapes = n.map(lambda k: (k, k)) if square else st.tuples(n, n)
    block_shapes = half.map(lambda k: (k, k)) if square else st.tuples(half, half)
    banded = st.tuples(shapes, st.integers(0, 2)).flatmap(
        lambda s: grids(*s[0]).map(lambda m: banded_part(m, s[1]))
    )
    blocks = (
        st.tuples(block_shapes, block_shapes)
        .flatmap(lambda s: st.tuples(grids(*s[0]), grids(*s[1])))
        .flatmap(lambda ab: st.permutations(block_diagonal_rows(*ab)))
        .map(IntMatrix.from_rows)
    )
    mostly_zero = shapes.flatmap(lambda s: sparse_grids(*s))
    holed = shapes.flatmap(
        lambda s: st.tuples(
            grids(*s), st.sets(st.integers(0, s[0] - 1)), st.sets(st.integers(0, s[1] - 1))
        )
    ).map(lambda t: zero_lines(*t))
    return st.one_of(banded, blocks, mostly_zero, holed)


# Rows that Bareiss pivot columns miss and that are rescaled later.  The
# second and third pivot columns miss the last row, which is then the last
# pivot row; in the second matrix they miss it and the fourth pivot
# eliminates it, and the pivot row of that step was missed three times.
# In the third, the first two pivot columns miss the last row and the third
# eliminates it; left unscaled, its update floors a nonzero entry to 0 and
# the rank to 3.
SKIPPED_THEN_PIVOT = IntMatrix.from_rows(
    [[2, 0, 0, 1], [0, 3, 0, 0], [0, 0, 5, 0], [1, 0, 0, 2]]
)
SKIPPED_THEN_ELIMINATED = IntMatrix.from_rows(
    [[2, 0, 0, 1, 0], [0, 3, 0, 0, 0], [0, 0, 5, 0, 0], [0, 0, 0, 7, 1], [1, 0, 0, 2, 3]]
)
SKIPPED_THEN_RANK_KEPT = IntMatrix.from_rows(
    [[-3, 1, -2, 1], [0, -2, 0, -3], [1, 0, -2, 0], [0, 0, 0, 0], [0, 0, 1, 0]]
)


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


class Two(int):
    """An int subclass, which IntMatrix stores as a plain int."""


@pytest.mark.parametrize(
    "m, entries",
    [
        (IntMatrix(1, 1, (True,)), (1,)),
        (IntMatrix(1, 2, [Two(2), False]), (2, 0)),
        (IntMatrix.from_rows([[True, 0], [0, True]]), (1, 0, 0, 1)),
        (IntMatrix.from_rows([(Two(2), True)]), (2, 1)),
        (IntMatrix.from_diagonal([True, False]), (1, 0, 0, 0)),
        (IntMatrix.from_diagonal([Two(2)]), (2,)),
    ],
    ids=["init bool", "init subclass", "from_rows bool", "from_rows subclass",
         "from_diagonal bool", "from_diagonal subclass"],
)
def test_checked_entries_are_stored_as_exact_ints(m, entries):
    assert m.entries == entries
    assert [type(x) for x in m.entries] == [int] * len(entries)


def test_smith_form_of_a_bool_matrix_has_int_diagonal():
    m = IntMatrix.from_rows([[True, 0], [0, True]])
    u, d, v = smith_normal_form(m)
    assert d.diagonal() == [1, 1]
    assert [type(x) for x in d.diagonal() + list(m.transpose().entries)] == [int] * 6
    assert u @ m @ v == d


@given(st.one_of(matrices(), shaped_matrices(), scaled_matrices()))
@example(IntMatrix.zero(0, 0))
@example(IntMatrix.zero(0, 3))
@example(IntMatrix.zero(3, 0))
# Repeated column additions for divisibility, zeros ahead of nonzeros on
# the diagonal, and a single row and column.
@example(IntMatrix.from_diagonal([6, 4, 9]))
@example(IntMatrix.from_diagonal([12, 18, 8, 27]))
@example(IntMatrix.from_diagonal([2, 0, 3]))
@example(IntMatrix.from_rows([[0, 0], [0, 5]]))
@example(IntMatrix.from_rows([[4, 6, 10, 15]]))
@example(IntMatrix.from_rows([[4], [6], [10], [15]]))
@settings(max_examples=200)
def test_snf_roundtrip(m):
    u, d, v = smith_normal_form(m)
    assert u @ m @ v == d
    assert d.is_diagonal()
    assert all(x >= 0 for x in d.diagonal())
    assert is_divisibility_chain(d.diagonal())
    assert abs(cofactor_determinant(u)) == 1
    assert abs(cofactor_determinant(v)) == 1


@given(st.one_of(matrices(max_dim=5, bound=12), sparse_matrices(square=True)))
@example(SKIPPED_THEN_PIVOT)
@example(SKIPPED_THEN_ELIMINATED)
@settings(max_examples=200)
def test_determinant_routes_agree(m):
    if m.rows == m.cols:
        assert determinant(m) == cofactor_determinant(m)


@pytest.mark.parametrize(
    "rows, det, rk",
    [
        ([[0, 1], [1, 0]], -1, 2),
        ([[0, 1, 2], [0, 3, 4], [5, 6, 7]], -10, 3),
        ([[0, 1], [0, 2]], 0, 1),
        ([[1, 2, 3], [2, 4, 6], [0, 0, 1]], 0, 2),
        ([[0, 1, 2], [0, 3, 4], [0, 5, 7]], 0, 2),
    ],
    ids=[
        "swap next row",
        "swap past a zero",
        "zero column",
        "zero pivot later",
        "zero column then pivots",
    ],
)
def test_determinant_zero_pivots(rows, det, rk):
    m = IntMatrix.from_rows(rows)
    assert determinant(m) == cofactor_determinant(m) == det
    assert rank(m) == rk


def test_determinant_refuses_a_non_square_matrix_before_eliminating(monkeypatch):
    calls = []
    monkeypatch.setattr(snf, "_bareiss", lambda M: calls.append(M))
    with pytest.raises(InvalidArgument, match="^determinant needs a square matrix$"):
        determinant(IntMatrix.zero(2, 3))
    assert calls == []


@given(matrices())
@settings(max_examples=100)
def test_rank_bounded(m):
    assert 0 <= rank(m) <= min(m.rows, m.cols)


# Named examples, one per branch of the modular route: projecting onto the
# Bareiss pivot rows would give [2, 2] for the first; then tall matrices
# with a gcd row merge and with a column zero mod D; a gcd column merge;
# column merges that refill the pivot column; D = 1, square and tall; and
# the zero matrix.
@given(st.one_of(matrices(), shaped_matrices(), scaled_matrices(), sparse_matrices()))
@example(IntMatrix.zero(0, 0))
@example(IntMatrix.zero(0, 3))
@example(IntMatrix.zero(3, 0))
@example(SKIPPED_THEN_PIVOT)
@example(SKIPPED_THEN_ELIMINATED)
@example(SKIPPED_THEN_RANK_KEPT)
@example(IntMatrix.from_rows([[2, 0], [0, 2], [1, 1]]))
@example(IntMatrix.from_rows([[36], [18], [-24]]))
@example(IntMatrix.from_rows([[2], [-3]]))
@example(IntMatrix.from_rows([[-24, -12, 6]]))
@example(IntMatrix.from_rows([[8, -18, -17, -6, -1], [-8, 15, -9, -8, 16], [-8, 3, 14, -7, -12]]))
@example(IntMatrix.from_rows([[2, 1], [1, 1]]))
@example(IntMatrix.from_rows([[1, 0], [0, 1], [0, 0]]))
@example(IntMatrix.zero(3, 2))
@settings(max_examples=600)
def test_invariant_factors_match_smith_diagonal(m):
    assert invariant_factors(m) == smith_normal_form(m)[1].diagonal()


def unimodular(n):
    """A unit lower times a unit upper triangular n x n matrix, its rows
    permuted: determinant +-1."""

    def triangular(cells, below):
        return IntMatrix.from_rows(
            [[cells[i * n + j] if (i > j) == below and i != j else int(i == j) for j in range(n)] for i in range(n)]
        )

    def build(t):
        low, up, order = t
        rows = (triangular(low, True) @ triangular(up, False)).to_lists()
        return IntMatrix.from_rows([rows[i] for i in order])

    cells = st.lists(st.integers(-3, 3), min_size=n * n, max_size=n * n)
    return st.tuples(cells, cells, st.permutations(range(n))).map(build)


def planted_chains(n):
    """Chains d1 | ... | dn: d1 ... d(n-1) made of 2, 3 and 5, and dn is
    d(n-1) times a power of one of them, which d(n-1) may already hold,
    and times primes that the others lack."""

    def chain(t):
        steps, shared, power, fresh = t
        head = list(accumulate(steps, mul))
        return head + [(head[-1] if head else 1) * shared**power * fresh]

    steps = st.lists(st.sampled_from([1, 2, 3, 4, 5, 6]), min_size=n - 1, max_size=n - 1)
    fresh = st.sampled_from([1, 7, 11, 13, 77, 1001])
    return st.tuples(steps, st.sampled_from([2, 3, 5]), st.integers(0, 3), fresh).map(chain)


def planted_torsion(max_dim=5):
    """U diag(d) V for unimodular U and V and a planted chain d."""
    return st.integers(1, max_dim).flatmap(
        lambda n: st.tuples(unimodular(n), planted_chains(n), unimodular(n))
    ).map(lambda t: t[0] @ IntMatrix.from_diagonal(t[1]) @ t[2])


@contextmanager
def pass_moduli():
    """The moduli of the `_diagonal_gcds` calls made inside the block."""
    moduli, run = [], snf._diagonal_gcds

    def spy(a, D):
        moduli.append(D)
        return run(a, D)

    snf._diagonal_gcds = spy
    try:
        yield moduli
    finally:
        snf._diagonal_gcds = run


# [[6]], where the pass is skipped; det 1; a singular square and a wide
# matrix of full row rank, whose pivot minors hold a prime (3) that the
# pivot before last lacks and that d_r lacks too, so a split of their
# modulus would put it in d_r.
@given(planted_torsion())
@example(IntMatrix.from_rows([[6]]))
@example(IntMatrix.from_rows([[2, 1], [1, 1]]))
@example(IntMatrix.from_rows([[1, 0, 0], [0, 3, 1], [0, 6, 2]]))
@example(IntMatrix.from_rows([[2, 0, 1], [0, 3, 1]]))
@settings(max_examples=300)
def test_modulus_split_keeps_the_smith_diagonal(m):
    with pass_moduli() as moduli:
        factors = invariant_factors(m)
    assert factors == smith_normal_form(m)[1].diagonal()
    r, d, _ = _bareiss(m)
    D = abs(d)
    if r == m.rows == m.cols:
        # The pass runs modulo D1, the part of D at some of its primes,
        # and D1 holds d(n-1) and so d1, ..., d(n-1); or it is skipped.
        assert len(moduli) <= 1
        D1 = moduli[0] if moduli else 1
        assert D % D1 == 0 and gcd(D1, D // D1) == 1
        assert r < 2 or D1 % factors[-2] == 0
    else:
        assert moduli == ([D] if D > 1 else [])


@pytest.mark.parametrize(
    "rows, moduli, factors",
    [
        ([[1, 2], [3, 4]], [], [1, 2]),  # det -2, pivot before last 1
        ([[2, 0], [0, 40]], [16], [2, 40]),  # D = 80 = 16 * 5, pivot before last 2
    ],
)
def test_modulus_of_the_pass(rows, moduli, factors):
    with pass_moduli() as seen:
        assert invariant_factors(IntMatrix.from_rows(rows)) == factors
    assert seen == moduli


signed = st.integers(-(2**90), 2**90)
bezout_pairs = st.tuples(signed, signed.filter(bool))


@given(bezout_pairs | bezout_pairs.map(lambda p: (p[0] * p[1], p[1])))
@example((-4, 6))
@example((4, -6))
@example((-4, -6))
@example((6, 3))
@example((-6, 3))
@example((6, -3))
@example((0, -5))
@settings(max_examples=300)
def test_bezout_identity_and_merge_determinant(pair):
    a, b = pair
    h, s, u = _bezout(a, b)
    assert h == gcd(a, b) and s * a + u * b == h
    # The merge [[s, u], [-b / h, a / h]] of _diagonal_gcds has determinant 1.
    assert s * (a // h) + u * (b // h) == 1
    if a % b == 0:
        assert s == 0  # the inverse modulo |b / h| = 1


@pytest.mark.parametrize("k", range(1, 7))
def test_invariant_factors_of_family_grams(k):
    gram = milnor_lattice(milnor_family(k)).gram
    diagonal = smith_normal_form(gram)[1].diagonal()
    assert invariant_factors(gram) == diagonal
    assert abs(determinant(gram)) == prod(diagonal)


@pytest.mark.parametrize("k", FAMILY_RANGE)
def test_family_grams_have_full_rank(k):
    # mu of (6k - 1, 3, 2, 2, 2) is (6k - 2) * 2, a closed form that no
    # elimination computes; the gram at k = 28 is 332 x 332.
    assert rank(milnor_lattice(milnor_family(k)).gram) == 12 * k - 4


@given(st.one_of(shaped_matrices(), sparse_matrices()))
@example(SKIPPED_THEN_PIVOT)
@example(SKIPPED_THEN_ELIMINATED)
@example(SKIPPED_THEN_RANK_KEPT)
@settings(max_examples=300)
def test_rank_matches_rational_oracle(m):
    assert rank(m) == rational_rank(m.to_lists())


@given(shaped_matrices())
@example(IntMatrix.zero(0, 0))
@example(IntMatrix.zero(0, 3))
@example(IntMatrix.zero(3, 0))
@example(IntMatrix.from_rows([[1, 2], [2, 4]]))
@example(IntMatrix.from_rows([[1, 2, 3], [2, 4, 6]]))
@settings(max_examples=200)
def test_rank_counts_smith_diagonal(m):
    assert rank(m) == sum(1 for x in invariant_factors(m) if x)
    # M M^T is square with the rank of M, singular when M has more rows than
    # its rank, so every example also checks a square matrix.
    gram = m @ m.transpose()
    assert rank(gram) == rank(m)
    for sq in (m, gram):
        if sq.rows == sq.cols:
            assert (determinant(sq) == 0) == (rank(sq) < sq.rows)


def test_empty_shapes():
    for rows, cols in [(0, 0), (0, 3), (3, 0)]:
        m = IntMatrix.zero(rows, cols)
        u, d, v = smith_normal_form(m)
        assert (u, d, v) == (IntMatrix.identity(rows), m, IntMatrix.identity(cols))
        assert invariant_factors(m) == [] and rank(m) == 0


def test_transforms_are_pinned():
    # The alternating row and column Hermite passes fix U and V, not just
    # D; callers may rely on them.
    m = IntMatrix.from_rows([[4, 7, -2, 0], [6, 3, 5, 9], [-8, 2, 10, 6]])
    u, d, v = smith_normal_form(m)
    assert u.to_lists() == [[-5, 9, 4], [-1, 2, 1], [-8, 14, 7]]
    assert d.diagonal() == [1, 1, 4] and d.is_diagonal()
    assert v.to_lists() == [
        [-3432, 0, -40, 105], [196, 1, 2, -6], [-6178, 0, -71, 189], [5655, 0, 65, -173]
    ]


def hadamard_bits(m) -> int:
    """Bit length of Hadamard's bound on |det M|, the product of the row norms."""
    return (isqrt(prod(sum(x * x for x in row) for row in m.to_lists())) + 1).bit_length()


def test_transforms_stay_near_hadamard_size():
    # The Hermite row pass fixes U = H M^-1 for nonsingular M; the Smith
    # elimination alone let U and V reach 26 times these bounds.
    rng = random.Random(15)
    for n, bound in [(12, 20), (24, 20), (40, 20), (10, 10**12)]:
        m = IntMatrix(n, n, tuple(rng.randint(-bound, bound) for _ in range(n * n)))
        u, d, v = smith_normal_form(m)
        assert u @ m @ v == d
        transform_bits = max(abs(x).bit_length() for x in u.entries + v.entries)
        assert transform_bits <= 3 * hadamard_bits(m)


def test_transpose_and_matmul_shapes():
    m = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
    assert m.transpose().to_lists() == [[1, 4], [2, 5], [3, 6]]
    assert IntMatrix.zero(3, 0).to_lists() == [[], [], []]
    assert IntMatrix.zero(0, 3).to_lists() == []
    with pytest.raises(ValueError):
        m @ m


@given(st.one_of(matrices(), shaped_matrices(), sparse_matrices()))
@settings(max_examples=60)
@example(IntMatrix.from_rows([[0, 0, 0], [0, 4, 0], [0, 0, 0]]))
@example(IntMatrix.from_rows([[7]]))
@example(IntMatrix.from_rows([[0]]))
def test_row_support_matches_a_scan_for_every_constructor(m):
    """Every constructor's matrix, read for the first time, has the support
    of its rows as lists, all-zero rows and empty shapes included; the
    read keeps it and changes no equality or hash."""
    rows = m.to_lists()
    u, d, v = smith_normal_form(m)
    built = [
        m,
        IntMatrix.from_rows(rows),
        IntMatrix(m.rows, m.cols, m.entries),
        IntMatrix.identity(m.rows),
        IntMatrix.zero(m.rows, m.cols),
        IntMatrix.from_diagonal(m.diagonal()),
        m.transpose(),
        m @ m.transpose(),
        m.transpose() @ m,
        u,
        d,
        v,
    ]
    for x in built:
        fresh = IntMatrix(x.rows, x.cols, x.entries)
        assert "row_support" not in vars(x)
        assert x.row_support == row_support_scan(x)
        assert vars(x)["row_support"] is x.row_support
        assert x == fresh and hash(x) == hash(fresh)


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

"""Exact integer matrices and the Smith normal form.

Everything here runs on arbitrary-precision Python integers: Smith normal
form intermediates can blow up far past 64 bits even for small inputs, so
no fixed-width array library is used.

Three elimination loops serve three jobs.  A fraction-free (Bareiss) row
elimination gives `rank`, which kernels need, `determinant`, and the
pivot minor D that `invariant_factors` works modulo: one pass per column
over Z/DZ gives the Smith diagonal alone, all that cokernels need.  For a
square nonsingular M that pass runs modulo only the part of D at the
primes D shares with the pivot before last, which holds d1 ... d(n-1);
the rest of D goes into dn, and when that part is 1 the pass is skipped.
The Bareiss pass leaves a row that a pivot column misses as it is and
rescales it lazily, by the telescoped pivot ratio, when it is next used;
the ratio divides exactly because the stored entries are minors of M.
So a banded input, such as a family gram, costs about n w^2 big-integer
updates for width w, not n^3.
`smith_normal_form` runs the third, a Hermite pass, on the rows of M and
on its columns in turn, each bordered by an identity block that records
the operations: the row border becomes U and the column border V.  The
Hermite pass fixes its transform at H M^-1 for a nonsingular M, which
keeps U and V near Hadamard size.  Building U and V still costs the
most, so call it only when they are needed.  Its diagonal is the tests'
oracle for `invariant_factors`.

>>> M = IntMatrix.from_rows([[2, 4], [6, 8]])
>>> U, D, V = smith_normal_form(M)
>>> D.diagonal()
[2, 4]
>>> U @ M @ V == D
True
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, compress
from math import gcd
from operator import mul

from .errors import InvalidArgument, _kept, _require, _trusted


@dataclass(frozen=True)
class IntMatrix:
    """An immutable rows x cols integer matrix stored in row-major order.

    The public constructors check what a caller passes: `IntMatrix(...)`,
    `from_rows` and `from_diagonal` the shape and that every entry is an
    int, `identity` and `zero` their dimensions.  Each checked entry is
    stored as `int(x)`: a bool becomes 0 or 1 and an int subclass a plain
    int, so every IntMatrix holds exact ints, and `cli.canonical_json`
    writes one as the list of its rows with no type check.  True == 1 and
    both hash alike, so this changes no equality or hash.  Matrices whose
    entries the library computes itself or has checked already (those of
    `identity` and `zero`, of `from_rows` and `from_diagonal` after their
    check, `transpose`, `@`, the outputs of `smith_normal_form` and the
    gram of `brieskorn.milnor_lattice`) are made through `errors._trusted`
    without the entry check: those entries are exact ints by construction,
    and checking them again took about half the time of a large family
    lattice.  `row_support`, the nonzero columns of each row, is read once
    per matrix: the gram of `milnor_lattice` is built holding it, and any
    other matrix scans its entries on the first read.

    >>> IntMatrix.from_rows([[True, 0], [0, 1]]).entries
    (1, 0, 0, 1)
    """

    rows: int
    cols: int
    entries: tuple
    # `__getitem__` takes (i, j) pairs, so Python's fallback iteration
    # would read it as a sequence; an IntMatrix is not one.
    __iter__ = None

    def __post_init__(self):
        _check_dims(self.rows, self.cols)
        entries = _require(int, "entries", self.entries)
        if len(entries) != self.rows * self.cols:
            raise InvalidArgument(f"expected {self.rows * self.cols} entries, got {len(entries)}")
        object.__setattr__(self, "entries", tuple(map(int, entries)))

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix":
        rows = [_require(int, "entries", r) for r in _require(object, "matrix rows", rows)]
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise InvalidArgument("ragged rows")
        return _trusted(cls, len(rows), ncols, tuple(map(int, chain.from_iterable(rows))))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        _check_dims(n, n)
        entries = tuple(1 if i == j else 0 for i in range(n) for j in range(n))
        return _trusted(cls, n, n, entries)

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntMatrix":
        _check_dims(rows, cols)
        return _trusted(cls, rows, cols, (0,) * (rows * cols))

    @classmethod
    def from_diagonal(cls, diag) -> "IntMatrix":
        d = tuple(map(int, _require(int, "entries", diag)))
        n = len(d)
        entries = tuple(d[i] if i == j else 0 for i in range(n) for j in range(n))
        return _trusted(cls, n, n, entries)

    def __getitem__(self, ij) -> int:
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(ij)
        return self.entries[i * self.cols + j]

    def to_lists(self) -> list:
        e, c = self.entries, self.cols
        return [list(e[i * c : i * c + c]) for i in range(self.rows)]

    def transpose(self) -> "IntMatrix":
        e, c = self.entries, self.cols
        return _trusted(IntMatrix, c, self.rows, tuple(x for j in range(c) for x in e[j::c]))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        _require(IntMatrix, "matrix product operand", (other,))
        if self.cols != other.rows:
            raise InvalidArgument(f"shape mismatch: {self.cols} vs {other.rows}")
        e, n, c = self.entries, self.cols, other.cols
        columns = [other.entries[j::c] for j in range(c)]
        flat = tuple(
            sum(map(mul, e[i * n : (i + 1) * n], col))
            for i in range(self.rows)
            for col in columns
        )
        return _trusted(IntMatrix, self.rows, c, flat)

    @_kept
    def row_support(self) -> tuple:
        """For each row, the tuple of the columns that hold its nonzero
        entries, in increasing order: scanned on the first read, unless
        the builder stored it.

        >>> IntMatrix.from_rows([[2, 0, -1], [0, 0, 0]]).row_support
        ((0, 2), ())
        """
        e, c = self.entries, self.cols
        columns = range(c)
        return tuple(tuple(compress(columns, e[i * c : i * c + c])) for i in range(self.rows))

    def diagonal(self) -> list:
        return list(self.entries[:: self.cols + 1][: min(self.rows, self.cols)])

    def is_diagonal(self) -> bool:
        # Off-diagonal entries are all zero when the diagonal holds every nonzero one.
        return sum(map(bool, self.entries)) == sum(map(bool, self.diagonal()))


def _check_dims(rows: int, cols: int) -> None:
    _require(int, "matrix dimensions", (rows, cols))
    if rows < 0 or cols < 0:
        raise InvalidArgument("matrix dimensions must be nonnegative")


def _hermite(a, nrows, ncols) -> None:
    """Reduce the top-left nrows x ncols block of the rows `a` in place to
    row Hermite form, by row operations only.

    Column by column, the smallest-magnitude nonzero entry at or below the
    pivot row moves to the pivot row and is made positive, and the rows
    below give up nearest-integer multiples of it until the column below
    the pivot is zero.  Then, from the last pivot row up, each entry above
    a pivot p is reduced to [0, p) by a floor multiple of the pivot row.
    For a nonsingular M this fixes the row transform at H M^-1, near
    Hadamard size (Kannan-Bachem, SIAM J. Comput. 1979), where a
    smallest-pivot Smith elimination lets it grow with every pivot.
    `smith_normal_form` runs it on the rows of the block and, transposed,
    on its columns, so it builds U and V alike.  Reducing bottom-up
    meets only pivot rows already reduced, which keeps a row under about
    twice the bit length of H's entries; reducing each column as its
    pivot is found let the rows above reach ten times it.  Rows at or past
    the pivot row are zero before its column, so row operations start
    there, and they touch only the entries where the pivot row is
    nonzero: an identity border stays sparse for many steps, and the
    column pass of a wide M meets pivot rows that are mostly zero.
    """
    pivots = []
    for c in range(ncols):
        t = len(pivots)
        if t == nrows:
            break
        live = [i for i in range(t, nrows) if a[i][c]]
        if not live:
            continue
        while True:
            i = min(live, key=lambda i: abs(a[i][c]))
            a[t], a[i] = a[i], a[t]
            top = a[t]
            if top[c] < 0:
                top[c:] = [-x for x in top[c:]]
            if len(live) == 1:
                break
            p, half = top[c], top[c] >> 1
            head = [(k, y) for k, y in enumerate(top[c:], c) if y]
            for r in a[t + 1 : nrows]:
                q = (r[c] + half) // p
                if q:
                    for k, y in head:
                        r[k] -= q * y
            live = [i for i in range(t, nrows) if a[i][c]]
        pivots.append((top, c))
    for k in range(len(pivots) - 2, -1, -1):
        r = pivots[k][0]
        for top, c in pivots[k + 1 :]:
            q = r[c] // top[c]
            if q:
                r[c:] = [x - q * y for x, y in zip(r[c:], top[c:])]


def invariant_factors(M: IntMatrix) -> list:
    """The Smith diagonal d1 | d2 | ... of M, min(rows, cols) entries long.

    d1...dr divides the rank-r pivot minor D of `_bareiss`, so M diagonalised
    over Z/DZ gives each di as a gcd with D (Hafner-McCurley, SIAM J. Comput.
    1991; Domich-Kannan-Trotter, Math. Oper. Res. 1987).

    A square nonsingular M needs less.  Then D = d1...dn, and d1...d(n-1),
    the gcd of the (n-1)-minors, divides the pivot before last p.  So every
    prime of d1...d(n-1) divides gcd(D, p).  Split D = D1 D2, with D1 the
    part of D at the primes of gcd(D, p): D2 is coprime to d1...d(n-1), so
    it lies in dn alone, and the pass over Z/D1Z gives the gcds of the di
    with D1, since Z^n / (M Z^n + D1 Z^n) is the sum of the Z/gcd(di, D1).
    The last of these times D2 is dn.  When D1 = 1 the pass is skipped:
    here p = 1, so D = 2 is all in d2.

    >>> invariant_factors(IntMatrix.from_rows([[1, 2], [3, 4]]))
    [1, 2]
    >>> invariant_factors(IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, -4, -16]]))
    [2, 6, 12]
    """
    _require(IntMatrix, "matrix", (M,))
    r, d, p = _bareiss(M)
    D = abs(d)
    factors = [1] * r
    if D > 1:
        D1, D2 = D, 1
        if r == M.rows == M.cols:
            D1, D2, g = 1, D, gcd(D, p)
            while g > 1:
                D1, D2 = D1 * g, D2 // g
                g = gcd(D2, g)
        if D1 > 1:
            # Z^rows / (col span M + D1 Z^rows) is the sum of the
            # Z/gcd(di, D1) and rows - r copies of Z/D1, and for D1 = D
            # every di divides D1: so the chain of the diagonal's gcds,
            # padded with 1s to rows entries, is gcd(d1, D1), ...,
            # gcd(dr, D1) and then D1 repeated.
            orders = _diagonal_gcds(M.to_lists(), D1)
            factors = ([1] * (M.rows - len(orders)) + _gcd_lcm_exchange(orders))[:r]
        factors[-1] *= D2
    return factors + [0] * (min(M.rows, M.cols) - r)


def _diagonal_gcds(a, D) -> list:
    """gcd(s, D) for each diagonal entry s of the rows `a` diagonalised over
    Z/DZ, omitting those equal to 1, and D for each row left without a
    pivot.  `a` is consumed; it has a row and a column, since D > 1 needs
    rank at least 1.

    Column by column: the pivot row is the first row whose entry in the
    column is a unit mod D, or failing one, the row whose entry has the
    smallest gcd g with D.  Every other entry f that g divides is cleared
    by one row operation, row -= q * pivot row with q * pivot = f mod D;
    any other f is merged into the pivot by a 2x2 extended-gcd row
    combination of determinant 1, which makes g smaller.  A unit pivot
    (g = 1) always takes the first branch, so its column costs one pass.
    When g divides the rest of the pivot row, column operations would
    clear that row without touching the others, so the row is done and
    gives g.  Otherwise 2x2 extended-gcd column combinations shrink g
    again and refill the column below the pivot, which is then scanned
    anew.  Only the pivot row and the multipliers are reduced, to residues
    of size at most D/2; other entries are reduced when they reach the
    pivot column or the pivot row, so each update is one product and one
    subtraction, and no entry outgrows about rows * D^2.
    """
    half = D >> 1
    out = []
    for _ in range(len(a[0])):
        while a:
            piv, g = None, D
            for i, row in enumerate(a):
                x = row[0]
                if x:
                    x = row[0] = (x + half) % D - half
                if x and (h := gcd(x, D)) < g:
                    piv, g = i, h
                    if g == 1:
                        break
            if piv is None:
                break  # the column is zero mod D
            top = a.pop(piv)
            top[:] = [(y + half) % D - half if y else 0 for y in top]
            Dg = D // g
            inv = pow(top[0] // g, -1, Dg)
            for i, row in enumerate(a):
                f = (row[0] + half) % D - half
                if not f:
                    continue
                if f % g == 0:
                    q = (f // g * inv + Dg // 2) % Dg - Dg // 2
                    a[i] = [x - q * y for x, y in zip(row, top)]
                    continue
                h, s, u = _bezout(top[0], f)
                p0, f0 = top[0] // h, f // h
                top[:], a[i] = (
                    [(s * y + u * x + half) % D - half for x, y in zip(row, top)],
                    [(p0 * x - f0 * y + half) % D - half for x, y in zip(row, top)],
                )
                g = gcd(h, D)
                Dg = D // g
                inv = pow(top[0] // g, -1, Dg)
            if g == 1 or not any(y % g for y in top):
                if g > 1:
                    out.append(g)
                break
            for j in range(1, len(top)):
                if top[j] % g:
                    h, s, u = _bezout(top[0], top[j])
                    p0, f0 = top[0] // h, top[j] // h
                    for row in [top] + a:
                        x, y = row[0], row[j]
                        row[0], row[j] = (s * x + u * y) % D, (p0 * y - f0 * x) % D
                    g = gcd(h, D)
            a.insert(0, top)
        for row in a:
            del row[0]
    return out + [D] * len(a)


def _bezout(a: int, b: int):
    """(h, s, u) with s * a + u * b = h = gcd(a, b), for b != 0.

    s inverts a / h modulo |b / h| (0 when that modulus is 1), so
    u = (1 - s * a / h) / (b / h) is exact, and the merge matrix
    [[s, u], [-b / h, a / h]] has determinant 1.

    >>> _bezout(-4, 6), _bezout(6, 3)
    ((2, 1, 1), (3, 0, 1))
    """
    h = gcd(a, b)
    s = pow(a // h, -1, abs(b // h))
    return h, s, (1 - s * (a // h)) // (b // h)


def _gcd_lcm_exchange(vals: list) -> list:
    """Put the positive integers `vals` in a chain d1 | d2 | ... in place,
    keeping their number and product, and return the list.

    One gcd/lcm exchange per non-dividing pair i < j, in row order.  After
    row i, vals[i] divides every later entry, and later rows only replace
    entries by gcds and lcms of multiples of vals[i]; so one pass leaves a
    chain, already non-decreasing.

    >>> _gcd_lcm_exchange([4, 6, 9])
    [1, 6, 36]
    """
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            a, b = vals[i], vals[j]
            if b % a:
                g = gcd(a, b)
                vals[i], vals[j] = g, a * b // g
    return vals


def smith_normal_form(M: IntMatrix):
    """Return (U, D, V) with U @ M @ V == D.

    U and V are square and unimodular (determinant +-1), and D is diagonal
    with the `invariant_factors` of M, nonnegative, d1 | d2 | ... .  Each
    round runs `_hermite` on the rows [M | U], U starting as I_m, and then
    on the columns, the rows [M^T | V^T], V^T starting as I_n
    (Kannan-Bachem, SIAM J. Comput. 1979); D is the block left when a
    round ends with it diagonal.  If some d_i then does not divide a later
    d_j, column j is added to column i, in the block and in V, and the
    rounds go on.  They end because a round that does not clear the first
    row and column of what is left of the block puts a gcd smaller than
    its leading pivot there, and a column addition makes d_i smaller.
    """
    _require(IntMatrix, "matrix", (M,))
    m, n = M.rows, M.cols
    a = [r + e for r, e in zip(M.to_lists(), IntMatrix.identity(m).to_lists())]
    vt = IntMatrix.identity(n).to_lists()
    while True:
        _hermite(a, m, n)
        b = [[r[j] for r in a] + v for j, v in enumerate(vt)]
        _hermite(b, n, m)
        a = [[c[i] for c in b] + r[n:] for i, r in enumerate(a)]
        vt = [c[m:] for c in b]
        d = [a[k][k] for k in range(min(m, n))]
        if sum(bool(x) for r in a for x in r[:n]) > sum(map(bool, d)):
            continue
        pairs = combinations(range(len(d)), 2)
        step = next(((i, j) for i, j in pairs if d[i] and d[j] % d[i]), None)
        if step is None:
            break
        i, j = step
        a[j][i] = d[j]  # column j of the block is d_j in row j alone
        vt[i] = [x + y for x, y in zip(vt[i], vt[j])]
    flat = chain.from_iterable
    return (
        _trusted(IntMatrix, m, m, tuple(flat(r[n:] for r in a))),
        _trusted(IntMatrix, m, n, tuple(flat(r[:n] for r in a))),
        _trusted(IntMatrix, n, n, tuple(flat(vt))).transpose(),
    )


def _bareiss(M: IntMatrix):
    """(r, d, p): the rank r of M, its leading r x r pivot minor d, signed
    by the row swaps, and the pivot before it p, the leading
    (r - 1) x (r - 1) minor of the swapped rows (1 when r <= 1), by
    fraction-free (Bareiss) row elimination.

    A column with no nonzero entry left below the pivot rows is skipped.
    Every entry below the pivot rows stays a minor of M, so each division
    by the previous pivot is exact and the integers grow only as minors do.

    Rows are scaled lazily.  With pivots p_0 = 1, p_1, ..., the k-th pivot
    step would only multiply a row that its column misses (the row's entry
    there is 0) by p_k / p_(k-1), so that row is left as it is, and
    `level` keeps the number s of pivots after which its stored entries
    were last exact.  The ratios telescope: when the row is next the pivot
    row, or has a nonzero entry in the pivot column, with r pivots found,
    its tail from that column on is first rescaled by p_r / p_s.  That
    division is exact, since the rescaled entries are again minors of M.
    Scaling keeps zeros at zero, so the zero tests may read the stored
    entries.  A banded input of width w thus costs about n w^2
    big-integer updates, where rescaling every row below the pivot took
    n^3.  M must be an IntMatrix: `rank`, `determinant` and
    `invariant_factors`, through which the abelian cokernel and kernel
    come, each check that once before they call it.
    """
    a = M.to_lists()
    level = [0] * M.rows
    pivots = [1]
    r, sign = 0, 1
    for c in range(M.cols):
        piv = next((i for i in range(r, M.rows) if a[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            level[r], level[piv] = level[piv], level[r]
            sign = -sign
        prev = pivots[r]
        if level[r] < r:
            _rescale(a[r], c, prev, pivots[level[r]])
        p, tail = a[r][c], a[r][c + 1 :]
        for i in range(r + 1, M.rows):
            row = a[i]
            if row[c]:
                if level[i] < r:
                    _rescale(row, c, prev, pivots[level[i]])
                f = row[c]
                row[c + 1 :] = [(x * p - f * y) // prev for x, y in zip(row[c + 1 :], tail)]
                level[i] = r + 1
        pivots.append(p)
        r += 1
    return r, sign * pivots[r], pivots[max(r - 1, 0)]


def _rescale(row, c, now, then) -> None:
    """Multiply row[c:] by now / then, exactly."""
    row[c:] = [x * now // then for x in row[c:]]


def rank(M: IntMatrix) -> int:
    """Rank over the rationals, the number of pivots of the Bareiss
    elimination.

    >>> rank(IntMatrix.from_rows([[0, 1, 2], [0, 3, 4], [0, 5, 7]]))
    2
    """
    _require(IntMatrix, "matrix", (M,))
    return _bareiss(M)[0]


def determinant(M: IntMatrix) -> int:
    """Exact determinant, the full pivot minor of the Bareiss elimination,
    or 0 when a column has no pivot.

    Independent of the Smith normal form code path, so the two can be
    cross-checked against each other.  The second and third pivot columns
    miss the last row below, so it is rescaled once, by the pivot ratio
    30 / 2, when it becomes the last pivot row:

    >>> determinant(IntMatrix.from_rows([[2, 0, 0, 1], [0, 3, 0, 0], [0, 0, 5, 0], [1, 0, 0, 2]]))
    45
    """
    _require(IntMatrix, "matrix", (M,))
    if M.rows != M.cols:
        raise InvalidArgument("determinant needs a square matrix")
    r, d, _ = _bareiss(M)
    return d if r == M.rows else 0

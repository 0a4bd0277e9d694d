"""Exact integer matrices and the Smith normal form.

Everything here runs on arbitrary-precision Python integers: Smith normal
form intermediates can blow up far past 64 bits even for small inputs, so
no fixed-width array library is used.

`invariant_factors` returns the Smith diagonal alone, all that ranks,
kernels and cokernels need.  `smith_normal_form` runs the same elimination
and also carries the unimodular transforms U and V, whose entries are
where the integers grow; call it only when U or V is needed.

>>> M = IntMatrix.from_rows([[2, 4], [6, 8]])
>>> U, D, V = smith_normal_form(M)
>>> D.diagonal()
[2, 4]
>>> U @ M @ V == D
True
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import mul


@dataclass(frozen=True)
class IntMatrix:
    """An immutable rows x cols integer matrix stored in row-major order."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )
        if not all(isinstance(e, int) for e in self.entries):
            raise ValueError("entries must be integers")

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix":
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        flat = tuple(int(x) for r in rows for x in r)
        return cls(len(rows), ncols, flat)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, (0,) * (rows * cols))

    @classmethod
    def from_diagonal(cls, diag) -> "IntMatrix":
        diag = [int(d) for d in diag]
        n = len(diag)
        return cls(n, n, tuple(diag[i] if i == j else 0 for i in range(n) for j in range(n)))

    def __getitem__(self, ij) -> int:
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(ij)
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> list:
        return list(self.entries[i * self.cols : (i + 1) * self.cols])

    def to_lists(self) -> list:
        return [self.row(i) for i in range(self.rows)]

    def transpose(self) -> "IntMatrix":
        e, c = self.entries, self.cols
        return IntMatrix(c, self.rows, tuple(x for j in range(c) for x in e[j::c]))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.cols} vs {other.rows}")
        e, n, c = self.entries, self.cols, other.cols
        columns = [other.entries[j::c] for j in range(c)]
        flat = tuple(
            sum(map(mul, e[i * n : (i + 1) * n], col))
            for i in range(self.rows)
            for col in columns
        )
        return IntMatrix(self.rows, c, flat)

    def diagonal(self) -> list:
        return list(self.entries[:: self.cols + 1][: min(self.rows, self.cols)])

    def is_diagonal(self) -> bool:
        # Off-diagonal entries are all zero when the diagonal holds every nonzero one.
        return sum(map(bool, self.entries)) == sum(map(bool, self.diagonal()))


def _eliminate(a, u=None, vt=None) -> None:
    """Reduce the rows `a` in place to the Smith diagonal, repeating the row
    operations on the rows `u` of U and the column operations on the rows
    `vt` of V transposed, when those are given.

    Each pivot is the first smallest-magnitude nonzero entry of the block
    left, in row-major order, which keeps growth in check and the output
    deterministic.  Rows and columns before step t are zero off the
    diagonal, so row operations start at column t and a column operation
    touches only the rows nonzero in column t.
    """
    nrows, ncols = len(a), len(a[0]) if a else 0
    t = 0
    while t < min(nrows, ncols):
        pos = _min_pivot(a, t)
        if pos is None:
            break
        i, j = pos
        if i != t:
            a[t], a[i] = a[i], a[t]
            if u is not None:
                u[t], u[i] = u[i], u[t]
        if j != t:
            for r in a[t:]:
                r[t], r[j] = r[j], r[t]
            if vt is not None:
                vt[t], vt[j] = vt[j], vt[t]
        top = a[t]
        if top[t] < 0:
            top[t:] = [-x for x in top[t:]]
            if u is not None:
                u[t] = [-x for x in u[t]]
        p, head = top[t], top[t:]
        dirty = False
        for i in range(t + 1, nrows):
            r = a[i]
            if r[t]:
                q = r[t] // p
                r[t:] = [x - q * y for x, y in zip(r[t:], head)]
                if u is not None:
                    u[i] = [x - q * y for x, y in zip(u[i], u[t])]
                dirty = dirty or r[t] != 0
        live = [(r, r[t]) for r in a[t:] if r[t]]
        for j in range(t + 1, ncols):
            if top[j]:
                q = top[j] // p
                for r, c in live:
                    r[j] -= q * c
                if vt is not None:
                    vt[j] = [x - q * y for x, y in zip(vt[j], vt[t])]
                dirty = dirty or top[j] != 0
        if dirty:
            continue  # remainders survived; pick a smaller pivot

        # Pivot must divide the rest of the block for d_t | d_{t+1} | ...
        rest = (i for i in range(t + 1, nrows) if any(x % p for x in a[i][t + 1 :]))
        offender = next(rest, None)
        if offender is not None:
            top[t:] = [x + y for x, y in zip(top[t:], a[offender][t:])]
            if u is not None:
                u[t] = [x + y for x, y in zip(u[t], u[offender])]
            continue
        t += 1


def _min_pivot(a, t):
    """Position of the first smallest-magnitude nonzero entry of the block
    from (t, t) in row-major order, or None if the block is zero."""
    best, pos = 0, None
    for i in range(t, len(a)):
        for j, x in enumerate(a[i][t:], t):
            if x and (pos is None or abs(x) < best):
                best, pos = abs(x), (i, j)
    return pos


def invariant_factors(M: IntMatrix) -> list:
    """The Smith diagonal d1 | d2 | ... of M, min(rows, cols) entries long,
    from the elimination of `smith_normal_form` without U and V.

    >>> invariant_factors(IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, -4, -16]]))
    [2, 6, 12]
    """
    a = M.to_lists()
    _eliminate(a)
    return [a[i][i] for i in range(min(M.rows, M.cols))]


def smith_normal_form(M: IntMatrix):
    """Return (U, D, V) with U @ M @ V == D.

    U and V are square and unimodular (determinant +-1), and D is diagonal
    with the `invariant_factors` of M, nonnegative, d1 | d2 | ... .
    """
    a = M.to_lists()
    u, vt = IntMatrix.identity(M.rows).to_lists(), IntMatrix.identity(M.cols).to_lists()
    _eliminate(a, u, vt)
    flat = chain.from_iterable
    return (
        IntMatrix(M.rows, M.rows, tuple(flat(u))),
        IntMatrix(M.rows, M.cols, tuple(flat(a))),
        IntMatrix(M.cols, M.cols, tuple(flat(zip(*vt)))),
    )


def rank(M: IntMatrix) -> int:
    """Rank over the rationals, read off the Smith diagonal."""
    return sum(1 for x in invariant_factors(M) if x != 0)


def determinant(M: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination.

    Independent of the Smith normal form code path, so the two can be
    cross-checked against each other.
    """
    if M.rows != M.cols:
        raise ValueError("determinant needs a square matrix")
    n = M.rows
    if n == 0:
        return 1
    a = M.to_lists()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


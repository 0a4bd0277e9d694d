"""Independent brute-force oracles shared by the test modules.

These deliberately avoid the library's own code paths wherever they are
used to verify one.
"""

import json
from fractions import Fraction
from itertools import product
from math import gcd


def order_in_quotient(x, y, gen_free, gen_tors, i, cap):
    """Order of (x, y) in (Z + Z_i) / <(gen_free, gen_tors)>, scanned up to cap.

    Requires gen_free >= 1.  t*(x, y) lies in the subgroup spanned by the
    generator and (0, i) exactly when gen_free | t*x and the torsion parts
    then match mod i.
    """
    assert gen_free >= 1
    for t in range(1, cap + 1):
        if (t * x) % gen_free == 0:
            s = (t * x) // gen_free
            if (t * y - s * gen_tors) % i == 0:
                return t
    return None


def divisor_enumeration_oracle(m, j):
    """The unique i | gcd(m, j) admitting torsion parts (b, bhat) that give
    the element (m/i, b) order exactly j in (Z + Z_i) / <(j/i, bhat)>.

    Independent route to the correspondence-space torsion order; requires
    m, j >= 1.
    """
    n = gcd(m, j)
    admissible = []
    for i in range(1, n + 1):
        if n % i != 0:
            continue
        found = any(
            order_in_quotient(m // i, b, j // i, bhat, i, cap=j) == j
            for b in range(i)
            for bhat in range(i)
        )
        if found:
            admissible.append(i)
    assert admissible, f"no admissible torsion order for m={m}, j={j}"
    assert len(admissible) == 1, f"ambiguous torsion order for m={m}, j={j}"
    return admissible[0]


def cofactor_determinant(M):
    """Textbook cofactor expansion along the first row, skipping zeros.

    Exponential in general but fine for the small and sparse matrices it is
    used on; serves as an independent check on SNF-based determinants.
    """
    if M.rows != M.cols:
        raise ValueError("determinant needs a square matrix")

    def expand(rows):
        n = len(rows)
        if n == 0:
            return 1
        if n == 1:
            return rows[0][0]
        total = 0
        sign = 1
        for j, coeff in enumerate(rows[0]):
            if coeff != 0:
                minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
                total += sign * coeff * expand(minor)
            sign = -sign
        return total

    return expand(M.to_lists())


def fraction_free_rank(rows):
    """Rank over the rationals by fraction-free (Bareiss) row reduction.

    Each entry below the pivots stays a minor of the input, so every
    division is exact; columns with no pivot left are skipped.
    """
    a = [list(r) for r in rows]
    rank, prev = 0, 1
    for c in range(len(a[0]) if a else 0):
        piv = next((i for i in range(rank, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        top = a[rank]
        for i in range(rank + 1, len(a)):
            f = a[i][c]
            a[i] = [(x * top[c] - f * y) // prev for x, y in zip(a[i], top)]
        prev = top[c]
        rank += 1
    return rank


def _chain_pairing(a, b):
    if a == b:
        return 2
    if abs(a - b) == 1:
        return -1
    return 0


def paper_rule_gram(exponents):
    """Distinguished-basis gram by the paper rule, pair by pair.

    Index tuples run over 1 <= i_m <= a_m - 1 in lexicographic order.  For
    each pair r < s the entry is the product of the single-variable chain
    pairings when the tuples are comparable componentwise, zero otherwise;
    the diagonal is 2.  O(mu^2) pairs, returned as a list of rows.
    """
    index_set = list(product(*(range(1, a) for a in exponents)))
    size = len(index_set)
    rows = [[0] * size for _ in range(size)]
    for r in range(size):
        rows[r][r] = 2
        for s in range(r + 1, size):
            i, j = index_set[r], index_set[s]
            if all(im <= jm for im, jm in zip(i, j)):
                val = 1
                for im, jm in zip(i, j):
                    val *= _chain_pairing(im, jm)
            else:
                val = 0
            rows[r][s] = rows[s][r] = val
    return rows


def fraction_sum_spectrum(exponents):
    """Sorted weights sum((k_i + 1) / a_i) over 0 <= k_i <= a_i - 2, each
    summed as Fractions."""
    return tuple(
        sorted(
            sum((Fraction(k + 1, a) for k, a in zip(tup, exponents)), Fraction(0))
            for tup in product(*(range(a - 1) for a in exponents))
        )
    )


def canonical_json_oracle(payload):
    """The standard library's rendering of canonical CLI JSON: sorted keys,
    two-space indent, ASCII escapes.  Reference for cli.canonical_json."""
    return json.dumps(payload, sort_keys=True, indent=2)

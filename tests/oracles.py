"""Independent brute-force oracles shared by the test modules.

These deliberately avoid the library's own code paths wherever they are
used to verify one.  The directed chain category (category_hom_dims,
hom_dims_product, chain_euler_matrix) gives the chain lattice a_lattice
as its symmetrised Euler form, a second route to the milnor_lattice gram
of a single exponent; hopf_hodge_numbers and mall_diamond give the
standard diamond of S^7 x S^1, which enumerate_admissible_diamonds(UNIT)
must return; kunneth_by_pairs is the product formula one pair of degrees
at a time, a second route to kunneth.  cli_run_oracle is `cli.run` with
every argv parsed by the top-level parser, the route `cli.parse_args`
takes only for help, errors and leftover arguments.  row_support_scan
reads a matrix's support off its rows as lists, the reference for the
support `IntMatrix.row_support` scans or `milnor_lattice` stores.
"""

import json
import sys
from fractions import Fraction
from itertools import product
from math import gcd

from exotic_invariants import cli
from exotic_invariants.abelian import TRIVIAL, GradedGroups, tensor_and_tor
from exotic_invariants.brieskorn import CanonicalType
from exotic_invariants.errors import DomainError, InvalidArgument
from exotic_invariants.hodge import DIM, HodgeDiamond
from exotic_invariants.snf import IntMatrix


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


def rational_rank(rows):
    """Rank over the rationals by Gaussian elimination on Fractions.

    Each pivot row is scaled to a leading 1 and cleared from every other
    row, so the matrix ends in reduced row echelon form; the rank is the
    number of nonzero rows left.
    """
    a = [[Fraction(x) for x in r] for r in rows]
    pivots = 0
    for c in range(len(a[0]) if a else 0):
        piv = next((i for i in range(pivots, len(a)) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[pivots], a[piv] = a[piv], a[pivots]
        lead = a[pivots][c]
        top = a[pivots] = [x / lead for x in a[pivots]]
        for i, r in enumerate(a):
            f = r[c]
            if i != pivots and f != 0:
                a[i] = [x - f * y for x, y in zip(r, top)]
        pivots += 1
    return sum(1 for r in a if any(r))


def _chain_pairing(a, b):
    if a == b:
        return 2
    if abs(a - b) == 1:
        return -1
    return 0


def a_lattice(n):
    """Gram matrix of the rank-n chain lattice: 2 on the diagonal, -1 on
    the first off-diagonals."""
    if n < 1:
        raise InvalidArgument(f"lattice rank must be >= 1, got {n}")
    return IntMatrix.from_rows([[_chain_pairing(i, j) for j in range(n)] for i in range(n)])


def category_hom_dims(a, i, j):
    """Morphism-space dimensions by degree between objects i, j of the
    rank-a directed chain category.

    hom(C_i, C_i) is one-dimensional in degree 0, hom(C_i, C_{i+1}) is
    one-dimensional in degree 1, and every other pair has no morphisms.
    """
    if not (1 <= i <= a and 1 <= j <= a):
        raise InvalidArgument(f"objects run 1..{a}, got ({i}, {j})")
    if i == j:
        return {0: 1}
    if j == i + 1:
        return {1: 1}
    return {}


def hom_dims_product(*factors):
    """Degreewise convolution of hom-dimension tables, as in a tensor
    product of chain categories."""
    out = {0: 1}
    for table in factors:
        nxt = {}
        for d1, n1 in out.items():
            for d2, n2 in table.items():
                nxt[d1 + d2] = nxt.get(d1 + d2, 0) + n1 * n2
        out = nxt
    return out


def chain_euler_matrix(n):
    """Matrix of alternating-sum hom dimensions chi(i, j) for the rank-n
    chain category; its symmetrization recovers a_lattice(n)."""
    if n < 1:
        raise InvalidArgument(f"need n >= 1, got {n}")
    rows = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            dims = category_hom_dims(n, i, j)
            row.append(sum((-1) ** d * c for d, c in dims.items()))
        rows.append(row)
    return IntMatrix.from_rows(rows)


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


def milnor_number_and_basis(bp):
    """Milnor number and the monomial basis of the Milnor algebra.

    The basis is every exponent tuple (k_0, ..., k_n) with
    0 <= k_i <= a_i - 2, in lexicographic order; the Milnor number is its
    length.
    """
    basis = list(product(*(range(a - 1) for a in bp.exponents)))
    return len(basis), basis


def sphere_link_family_shape(exponents):
    """Membership in the family (6k - 1, 3, 2, 2, 2), k in 1..28, read off
    the shape of the exponent vector."""
    e = tuple(exponents)
    return (
        len(e) == 5
        and e[1:] == (3, 2, 2, 2)
        and e[0] % 6 == 5
        and 1 <= (e[0] + 1) // 6 <= 28
    )


def fraction_sum_canonical_type(exponents):
    """(type, Gorenstein parameter) with s = sum(1 / a_i) summed as
    Fractions: Fano for s > 1, Calabi-Yau for s = 1, general type else."""
    s = sum((Fraction(1, a) for a in exponents), Fraction(0))
    if s > 1:
        kind = CanonicalType.FANO
    elif s == 1:
        kind = CanonicalType.CALABI_YAU
    else:
        kind = CanonicalType.GENERAL_TYPE
    return kind, s - 1


def canonical_json_oracle(payload):
    """The standard library's rendering of canonical CLI JSON: sorted keys,
    two-space indent, ASCII escapes.  Reference for cli.canonical_json."""
    return json.dumps(payload, sort_keys=True, indent=2)


def row_support_scan(m):
    """For each row of the IntMatrix m, the tuple of the columns whose
    entries are nonzero, read from `to_lists`."""
    return tuple(tuple(j for j, x in enumerate(row) if x != 0) for row in m.to_lists())


def cli_run_oracle(argv):
    """`cli.run(argv)` with argv parsed whole by `build_parser().parse_args`,
    the top-level parser handing argv[1:] on to the subcommand's parser,
    and the payload computed and printed as `run` does."""
    try:
        args = cli.build_parser().parse_args(argv)
    except SystemExit as e:
        return e.code
    name = args.command.replace("-", "_")
    try:
        payload = getattr(cli, f"cmd_{name}")(args)
    except (DomainError, InvalidArgument) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2 if isinstance(e, InvalidArgument) else 1
    if args.json:
        payload["schema_version"] = cli.SCHEMA_VERSION
        print(cli.canonical_json(payload))
    else:
        print(getattr(cli, f"{name}_table")(payload))
    return 0


def hopf_hodge_numbers(n):
    """Hodge numbers of the standard product of S^{2n-1} with a circle.

    Exactly four entries are 1: (0,0), (0,1), (n,n) and (n,n-1); the rest
    vanish.  Returned sparsely so any n >= 2 is representable; the n = 4
    case fits the HodgeDiamond grid via from_entries.
    """
    if n < 2:
        raise InvalidArgument(f"need complex dimension >= 2, got {n}")
    return {(0, 0): 1, (0, 1): 1, (n, n): 1, (n, n - 1): 1}


def mall_diamond():
    """The standard diamond of S^7 x S^1 on the 5x5 grid."""
    return HodgeDiamond.from_entries(hopf_hodge_numbers(DIM))


def kunneth_by_pairs(a, b):
    """The product formula one pair of degrees at a time: the tensor and
    Tor groups of each pair from tensor_and_tor, folded into degrees p + q
    and p + q + 1 by direct_sum.  kunneth instead gathers the cyclic orders
    of each degree and normalizes them once."""
    out = {}
    for p, ap in a.items():
        for q, bq in b.items():
            tensor, tor = tensor_and_tor(ap, bq)
            for n, group in ((p + q, tensor), (p + q + 1, tor)):
                out[n] = out.get(n, TRIVIAL).direct_sum(group)
    return GradedGroups(out)

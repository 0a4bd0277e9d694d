"""Seeded operation lists for the four workloads, with independent checks.

A workload is drawn afresh for every pass from the seed and the pass
index, before that pass is timed, so no pass repeats the inputs of
another.  Slot i of a pass holds the same kind and size of input in every
pass, because the order of the kinds depends on the seed alone.  Each
operation has a `call` (the only timed part: one call into the library or
the CLI), a `check` that verifies the result without going through the
code under test, a `fingerprint` used for the exact-repeat check, and a
`key` that names its input.

Checks raise `WrongAnswer` for a wrong result and `BadExit` for an
unexpected CLI exit status; an exception escaping `call` is an uncaught
error.  All three count as failed operations.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm, prod
from typing import Callable, NamedTuple

from exotic_invariants import abelian, brieskorn, bundles, cli, snf


class WrongAnswer(Exception):
    """The operation completed but its result is wrong."""


class BadExit(Exception):
    """The CLI exited with another status than the request calls for."""


def expect(condition, message: str) -> None:
    if not condition:
        raise WrongAnswer(message)


@dataclass(frozen=True)
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], None]
    fingerprint: Callable[[object], bytes]
    key: str  # the same key means the same input, so the same result


# --------------------------------------------------------------------- CLI


class CliResult(NamedTuple):
    rc: int
    out: str
    err: str


def run_cli(argv) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.run(argv)
    return CliResult(rc, out.getvalue(), err.getvalue())


def cli_fingerprint(result) -> bytes:
    rc, out, err = result
    return hashlib.sha256(f"{rc}\0{out}\0{err}".encode()).digest()


def cli_op(argv, check) -> Op:
    argv = [str(a) for a in argv]
    label = " ".join(argv)
    return Op(label, lambda: run_cli(argv), check, cli_fingerprint, label)


def expect_exit(rc, wanted) -> None:
    if rc != wanted:
        raise BadExit(f"exit {rc}, expected {wanted}")


def json_ok(check_payload):
    """Exit 0, silent stderr, canonical JSON that re-serializes byte for byte."""

    def check(result):
        rc, out, err = result
        expect_exit(rc, 0)
        expect(err == "", f"unexpected stderr {err!r}")
        payload = json.loads(out)
        expect(
            json.dumps(payload, sort_keys=True, indent=2) + "\n" == out,
            "--json output does not re-serialize byte for byte",
        )
        expect(payload.pop("schema_version") == 1, "schema_version is not 1")
        check_payload(payload)

    return check


def table_ok(*needles):
    def check(result):
        rc, out, err = result
        expect_exit(rc, 0)
        expect(err == "", f"unexpected stderr {err!r}")
        for needle in needles:
            expect(needle in out, f"table lacks {needle!r}")

    return check


def domain_error(json_mode):
    """Exit 1; in table mode, nothing on stdout and one 'error:' line on stderr."""

    def check(result):
        rc, out, err = result
        expect_exit(rc, 1)
        if not json_mode:
            expect(out == "", "stdout is not empty on a domain error")
            expect(
                err.startswith("error: ") and err.count("\n") == 1,
                f"stderr is not one error line: {err!r}",
            )

    return check


def usage_error(result):
    rc, out, err = result
    expect_exit(rc, 2)
    expect(out == "", "stdout is not empty on a usage error")
    expect(err != "", "no diagnostic on stderr")


def frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def group(free_rank, torsion=()):
    return {"free_rank": free_rank, "torsion": list(torsion)}


def cyclic(order):
    order = abs(order)
    if order == 0:
        return group(1)
    return group(0, [order] if order >= 2 else [])


def graded(groups: dict):
    """Degree -> group dict in the CLI's [[degree, group], ...] form, trivial
    groups dropped."""
    return [
        [d, g] for d, g in sorted(groups.items()) if g["free_rank"] or g["torsion"]
    ]


def milnor_number(exps) -> int:
    return prod(a - 1 for a in exps)


def check_spectrum(exps, values, minimum) -> None:
    """Count mu, least value sum(1/a), values sorted and symmetric about N/2."""
    mu = milnor_number(exps)
    expect(len(values) == mu, f"spectrum has {len(values)} values, mu = {mu}")
    vals = [Fraction(v) for v in values]
    expect(
        all(frac_str(v) == s for v, s in zip(vals, values)),
        "spectrum value not in lowest terms",
    )
    least = sum((Fraction(1, a) for a in exps), Fraction(0))
    expect(minimum == frac_str(least), f"spectrum minimum {minimum}, expected {least}")
    expect(vals[0] == least, "first spectrum value is not the minimum")
    expect(all(vals[i] <= vals[i + 1] for i in range(mu - 1)), "spectrum not sorted")
    n = len(exps)
    expect(
        all(vals[i] + vals[mu - 1 - i] == n for i in range(mu)),
        f"spectrum not symmetric about {n}/2",
    )


def in_family(exps) -> bool:
    return (
        len(exps) == 5
        and tuple(exps[1:]) == (3, 2, 2, 2)
        and exps[0] % 6 == 5
        and 1 <= (exps[0] + 1) // 6 <= 28
    )


def check_lattice(exps, payload) -> None:
    """Index tuples, a symmetric gram with diagonal 2, and rank mu for a
    family member in any order of its exponents (the paper rule can give a
    singular gram elsewhere, as for (2, 3))."""
    mu = milnor_number(exps)
    expect(payload["exponents"] == list(exps), "exponents differ")
    expect(payload["rank"] == mu, f"rank {payload['rank']}, mu = {mu}")
    index_set = [list(t) for t in product(*(range(1, a) for a in exps))]
    expect(payload["index_set"] == index_set, "index set differs")
    gram = payload["gram"]
    expect(len(gram) == mu and all(len(r) == mu for r in gram), "gram is not mu x mu")
    expect(all(gram[i][i] == 2 for i in range(mu)), "gram diagonal is not 2")
    expect(
        all(gram[i][j] == gram[j][i] for i in range(mu) for j in range(i)),
        "gram is not symmetric",
    )
    if in_family(sorted(exps, reverse=True)):
        expect(eliminate_mod_p(descending_factor_order(exps, gram))[0] == mu,
               "family gram is singular")


def descending_factor_order(exps, gram):
    """The gram with its factors put in descending order of exponent.

    Reordering the factors permutes the basis, which keeps the rank.  In
    that order a family gram is banded, so elimination is cheap."""
    order = sorted(range(len(exps)), key=lambda f: -exps[f])
    tuples = list(product(*(range(1, a) for a in exps)))
    perm = sorted(range(len(tuples)), key=lambda r: [tuples[r][f] for f in order])
    return [[gram[i][j] for j in perm] for i in perm]


def brieskorn_payload(exps, spectrum_flag):
    def check(p):
        s = sum((Fraction(1, a) for a in exps), Fraction(0))
        ell = lcm(*exps)
        kind = "Fano" if s > 1 else "CalabiYau" if s == 1 else "GeneralType"
        expect(p["exponents"] == list(exps), "exponents differ")
        expect(p["milnor_number"] == milnor_number(exps), "milnor number differs")
        expect(p["degree"] == ell, "degree differs")
        expect(p["weights"] == [ell // a for a in exps], "weights differ")
        expect(p["type"] == kind, "canonical type differs")
        expect(p["gorenstein"] == frac_str(s - 1), "gorenstein parameter differs")
        expect(p["sphere_link_family"] == in_family(exps), "family flag differs")
        if spectrum_flag:
            check_spectrum(exps, p["spectrum"], p["spectrum_min"])

    return check


def spectrum_payload(exps):
    def check(p):
        expect(p["exponents"] == list(exps), "exponents differ")
        expect(p["count"] == milnor_number(exps), "count differs from mu")
        check_spectrum(exps, p["values"], p["min"])

    return check


def lattice_payload(exps):
    return lambda p: check_lattice(exps, p)


# Valid requests, one generator per subcommand: rng, json_mode -> Op.


def milnor_request(rng, js):
    m, n = rng.randint(-9, 9), rng.randint(-9, 9)
    if rng.random() < 0.3:
        n = rng.choice((1, -1)) - m
    e = m + n
    sphere = abs(e) == 1
    argv = ["milnor", m, n] + (["--lambda"] if sphere and rng.random() < 0.5 else [])
    if not js:
        return cli_op(argv, table_ok(f"M({m},{n}): euler {e}, p1 {2 * (m - n)}", "cohomology:"))

    def check(p):
        cm, cn = min((m, n), (-n, -m))
        lam = None
        if sphere:
            mm = m if e == 1 else -n
            lam = ((2 * mm - 1) ** 2 - 1) % 7
        gysin = bundles.gysin_cohomology(bundles.MilnorBundle(m, n))
        expected = {
            "bundle": {"m": m, "n": n},
            "canonical": {"m": cm, "n": cn},
            "euler": e,
            "pontryagin": 2 * (m - n),
            "principal": m == 0 or n == 0,
            "homotopy_sphere": sphere,
            "lambda": lam,
            "cohomology": [
                [d, group(g.free_rank, g.torsion)] for d, g in gysin.items()
            ],
        }
        expect(p == expected, f"payload {p} differs from {expected}")

    return cli_op(argv + ["--json"], json_ok(check))


def tdual_request(rng, js):
    m, k, j = (rng.randint(-9, 9) for _ in range(3))
    principal = rng.random() < 0.3
    if principal:
        m = rng.choice((0, k))
    argv = ["tdual", "--m", m, "--k", k, "--flux", j] + (["--principal"] if principal else [])
    if not js:
        return cli_op(argv, table_ok("<-->"))

    def check(p):
        n = k - m
        if principal:
            dual = {"bundle": {"m": 0, "n": -j}, "flux": m if n == 0 else -n}
        else:
            dual = {"bundle": {"m": j, "n": k - j}, "flux": m}
        expected = {
            "input": {"bundle": {"m": m, "n": n}, "flux": j},
            "rule": "principal" if principal else "euler_preserving",
            "dual": dual,
        }
        if m or j:
            g = gcd(m, j)
            expected["correspondence_h7"] = group(1, [g] if g >= 2 else [])
            expected["lifted_flux"] = j * m // g
        expect(p == expected, f"payload {p} differs from {expected}")

    return cli_op(argv + ["--json"], json_ok(check))


def small_exponents(rng, max_len, max_exp):
    return [rng.randint(2, max_exp) for _ in range(rng.randint(2, max_len))]


def brieskorn_request(rng, js):
    exps = small_exponents(rng, 4, 6)
    spec = rng.random() < 0.5
    argv = ["brieskorn", *exps] + (["--spectrum"] if spec else [])
    if not js:
        return cli_op(argv, table_ok(f"milnor number mu = {milnor_number(exps)}"))
    return cli_op(argv + ["--json"], json_ok(brieskorn_payload(exps, spec)))


def lattice_request(rng, js):
    exps = small_exponents(rng, 3, 5)
    if not js:
        return cli_op(["lattice", *exps], table_ok(f": rank {milnor_number(exps)}\n"))
    return cli_op(["lattice", *exps, "--json"], json_ok(lattice_payload(exps)))


def spectrum_request(rng, js):
    exps = small_exponents(rng, 4, 6)
    if not js:
        return cli_op(["spectrum", *exps], table_ok(f"({milnor_number(exps)} values"))
    return cli_op(["spectrum", *exps, "--json"], json_ok(spectrum_payload(exps)))


def group_options(rng):
    if rng.random() < 0.5:
        return 28, 1, []
    order, coeff = rng.randint(2, 40), rng.randint(-5, 5)
    return order, coeff, ["--order", order, "--coeff", coeff]


def theta7_request(rng, js):
    m, n = rng.randint(-9, 9), rng.randint(-9, 9)
    order, coeff, opts = group_options(rng)
    residue = m * n * coeff % order
    steps = None
    if rng.random() < 0.5:
        start, step = rng.randint(-30, 30), rng.randint(-30, 30)
        target = start + rng.randint(0, order - 1) * step
        count = next(
            l for l in range(order) if (start + l * step - target) % order == 0
        )
        steps = {"start": start % order, "step": step % order,
                 "target": target % order, "count": count}
        opts = opts + ["--steps", start, step, target]
    argv = ["theta7", m, n] + opts
    if not js:
        return cli_op(argv, table_ok(f"= {residue} in Z_{order}"))

    def check(p):
        expected = {
            "order": order,
            "coeff": coeff,
            "coeff_coprime": gcd(coeff, order) == 1,
            "pair": [m, n],
            "residue": residue,
        }
        if steps is not None:
            expected["steps"] = steps
        expect(p == expected, f"payload {p} differs from {expected}")

    return cli_op(argv + ["--json"], json_ok(check))


def sigma8_request(rng, js):
    m, n, l = (rng.randint(-9, 9) for _ in range(3))
    order, coeff, opts = group_options(rng)
    residue = m * n * l * coeff % order
    argv = ["sigma8", m, n, l] + opts
    if not js:
        return cli_op(argv, table_ok(f"= {residue} in Z_{order}"))
    expected = {"order": order, "coeff": coeff, "triple": [m, n, l], "residue": residue}
    return cli_op(argv + ["--json"], json_ok(lambda p: expect(p == expected, f"payload {p}")))


def fano_request(rng, js):
    exps = [rng.randint(-9, 9) for _ in range(rng.randint(1, 4))]
    total = sum(exps)
    if not js:
        return cli_op(["fano", *exps], table_ok(f"composite representation exponent {total}"))
    expected = {
        "exponents": exps,
        "composite": total,
        "composite_orbifold": total != 0,
        "orbifold": [e != 0 for e in exps],
    }
    return cli_op(["fano", *exps, "--json"], json_ok(lambda p: expect(p == expected, f"payload {p}")))


def isotropy_request(rng, js):
    k, l = rng.randint(1, 28), rng.randint(1, 9)
    weights = [6, 2 * (6 * k - 1)] + [3 * (6 * k - 1)] * 3
    if not js:
        return cli_op(["isotropy", k, l], table_ok(f"link k={k}, weights"))
    rows = []
    for size in range(2, 6):
        for support in combinations(range(5), size):
            b = gcd(*(weights[i] for i in support))
            rows.append({"support": list(support), "b": b, "isotropy": [b, l]})
    expected = {"k": k, "l": l, "weights": weights, "isotropies": rows}
    return cli_op(["isotropy", k, l, "--json"], json_ok(lambda p: expect(p == expected, f"payload {p}")))


BETTI = {"unit": (1, 1, 0, 0, 0, 0, 0, 1, 1), "nonunit": (1, 1, 0, 0, 1, 0, 0, 1, 1)}


def hodge_request(rng, js):
    branch = rng.choice(sorted(BETTI))
    if not js:
        return cli_op(["hodge", "--branch", branch], table_ok(f"on the {branch} branch"))

    def check(p):
        betti = BETTI[branch]
        expect(p["branch"] == branch, "branch differs")
        expect(p["count"] == len(p["diamonds"]) >= 1, "diamond count differs")
        for h in p["diamonds"]:
            expect(len(h) == 5 and all(len(r) == 5 for r in h), "diamond is not 5x5")
            expect(
                all(h[a][b] == h[4 - a][4 - b] for a in range(5) for b in range(5)),
                "diamond breaks Serre duality",
            )
            for r in range(9):
                s = sum(h[a][r - a] for a in range(5) if 0 <= r - a <= 4)
                expect(s == betti[r], f"antidiagonal {r} sums to {s}")
            expect(h[3][4] + h[4][3] == 1 and h[0][1] + h[1][0] == 1, "edge constraint")

    return cli_op(["hodge", "--branch", branch, "--json"], json_ok(check))


def kunneth_request(rng, js):
    m, k = rng.randint(-9, 9), rng.randint(-9, 9)
    if not js:
        return cli_op(["kunneth", "--m", m, "--k", k], table_ok(f"H*(M({m},{k - m}) x S^1):"))
    groups = {d: group(1) for d in (0, 1, 7, 8)}
    if k == 0:
        groups.update({3: group(1), 4: group(2), 5: group(1)})
    elif abs(k) != 1:
        groups.update({4: cyclic(k), 5: cyclic(k)})

    def check(p):
        expect(p["m"] == m and p["k"] == k, "inputs differ")
        expect(p["cohomology"] == graded(groups), f"cohomology {p['cohomology']}")
        torsion = [d for d, g in sorted(groups.items()) if g["torsion"]]
        expect(p["metadata"]["torsion_degrees"] == torsion, "torsion degrees differ")

    return cli_op(["kunneth", "--m", m, "--k", k, "--json"], json_ok(check))


def family_row(k):
    exps = [6 * k - 1, 3, 2, 2, 2]
    ell = lcm(*exps)
    s = sum((Fraction(1, a) for a in exps), Fraction(0))
    return {
        "k": k,
        "exponents": exps,
        "mu": 12 * k - 4,
        "mu_formula": 12 * k - 4,
        "mu_match": True,
        "degree": ell,
        "weights": [ell // a for a in exps],
        "type": "Fano" if s > 1 else "CalabiYau" if s == 1 else "GeneralType",
        "gorenstein": frac_str(s - 1),
    }


def family_report_request(rng, js):
    start = rng.randint(1, 28)
    end = min(28, start + rng.randint(0, 4)) if rng.random() < 0.85 else start - 1
    argv = ["family-report", "--start", start, "--end", end]
    if not js:
        return cli_op(argv, table_ok("(empty range)" if start > end else "gorenstein"))
    expected = {"rows": [family_row(k) for k in range(start, end + 1)]}
    return cli_op(argv + ["--json"], json_ok(lambda p: expect(p == expected, "rows differ")))


VALID = (
    milnor_request, tdual_request, brieskorn_request, lattice_request,
    spectrum_request, theta7_request, sigma8_request, fano_request,
    isotropy_request, hodge_request, kunneth_request, family_report_request,
)


# Domain errors: well-formed requests whose answer does not exist (exit 1).


def domain_requests(rng):
    m = rng.choice([x for x in range(-9, 10) if x != 0])
    k = rng.choice([x for x in range(-9, 10) if x != m])  # M(m, k - m) not principal
    return [
        ["milnor", m, rng.choice([x for x in range(-9, 10) if abs(m + x) != 1]), "--lambda"],
        ["tdual", "--m", m, "--k", k, "--flux", rng.randint(-9, 9), "--principal"],
        ["isotropy", rng.randint(29, 60), rng.randint(1, 9)],
        ["isotropy", rng.randint(1, 28), -rng.randint(0, 5)],
        ["theta7", m, k, "--steps", 2 * rng.randint(0, 13), 2 * rng.randint(0, 13),
         2 * rng.randint(0, 13) + 1],
        ["family-report", "--start", -rng.randint(0, 5), "--end", rng.randint(1, 28)],
    ]


# Usage errors: rejected by the argument parser (exit 2).

USAGE = (
    ["milnor", "1"],
    ["milnor", "x", "1"],
    ["frobnicate"],
    ["hodge", "--branch", "sideways"],
    ["tdual", "--m", "1", "--k", "2"],
    ["theta7", "1", "2", "--steps", "1", "2"],
    ["lattice"],
)


def known_defect_requests(rng):
    """Invalid constructor arguments that escape as ValueError today.

    The CLI contract is a usage error (exit 2) with one stderr line; until
    the library maps them, these operations count as failed.
    """
    return [
        ["theta7", rng.randint(-9, 9), rng.randint(-9, 9), "--order", -rng.randint(0, 9)],
        ["sigma8", 1, 2, 3, "--order", -rng.randint(0, 9)],
        ["brieskorn", rng.randint(-3, 1), rng.randint(2, 6)],
        ["spectrum", rng.randint(2, 6), rng.randint(-3, 1)],
        ["lattice", rng.randint(-3, 1), rng.randint(2, 6)],
    ]


def cli_mix(rng):
    ops = []
    for gen in VALID:
        for _ in range(4):
            ops.append(gen(rng, False))
            ops.append(gen(rng, True))
    for argv in domain_requests(rng):
        ops.append(cli_op(argv, domain_error(False)))
        ops.append(cli_op(argv + ["--json"], domain_error(True)))
    for argv in USAGE:
        ops.append(cli_op(argv, usage_error))
    for i, argv in enumerate(known_defect_requests(rng)):
        ops.append(cli_op(argv + (["--json"] if i % 2 else []), usage_error))
    return ops


# ------------------------------------------------------------ lattice-render

# Milnor-number targets for the spectrum inputs: forty from 10 to 700 and
# three large ones.  Each gets one `spectrum` and one `brieskorn --spectrum`
# request, with 4 or 5 exponents in turn and mu within 5% of the target,
# so every seed asks for about the same amount of work.
MU_TARGETS = tuple(round(10 * 70 ** (i / 39)) for i in range(40)) + (2000, 4000, 7000)


def exponents_with_mu(rng, target, count):
    while True:
        exps = [rng.randint(2, 13) for _ in range(count)]
        if abs(milnor_number(exps) - target) <= max(1, target // 20):
            return exps


def lattice_render(rng):
    ops = []
    # Family members in a drawn order of the factors: the same link, and a
    # gram of the same size and cost, but not the same request every pass.
    for k in range(2, 29, 2):  # fixed, so the costliest inputs do not vary by seed
        exps = [6 * k - 1, 3, 2, 2, 2]
        rng.shuffle(exps)
        ops.append(cli_op(["lattice", *exps, "--json"], json_ok(lattice_payload(exps))))
    for i, target in enumerate(MU_TARGETS):
        exps = exponents_with_mu(rng, target, 4 + i % 2)
        ops.append(cli_op(["spectrum", *exps, "--json"], json_ok(spectrum_payload(exps))))
        exps = exponents_with_mu(rng, target, 5 - i % 2)
        ops.append(
            cli_op(["brieskorn", *exps, "--spectrum", "--json"],
                   json_ok(brieskorn_payload(exps, True)))
        )
    return ops


# ------------------------------------------------------- exact linear algebra

P1, P2 = (1 << 61) - 1, (1 << 31) - 1


def _dense_shapes():
    """Shapes of the dense inputs.  They come from a fixed generator, not
    the seed, so that the median and 90th-percentile inputs keep their
    size from seed to seed; the seed picks the entries."""
    rng = random.Random("dense shapes")
    rectangles = []
    while len(rectangles) < 44:  # up to 24 x 24
        n, m = rng.randint(2, 24), rng.randint(2, 24)
        if n != m:
            rectangles.append((n, m))
    products = []  # rows, inner rank, cols: up to 30 x 30
    for _ in range(40):
        n, m = rng.randint(4, 30), rng.randint(4, 30)
        products.append((n, rng.randint(1, min(n, m) - 1), m))
    return tuple(rectangles), tuple(products)


SQUARES = tuple(range(2, 25, 2)) + (28, 32, 36, 40)
RECTANGLES, PRODUCTS = _dense_shapes()


def eliminate_mod_p(rows, p=P1):
    """(rank, determinant) modulo the prime p; the determinant is 0 unless
    the matrix is square of full rank."""
    a = [[x % p for x in r] for r in rows]
    n, m = len(a), len(a[0]) if a else 0
    rank, det = 0, 1
    for c in range(m):
        piv = next((i for i in range(rank, n) if a[i][c]), None)
        if piv is None:
            continue
        if piv != rank:
            a[rank], a[piv] = a[piv], a[rank]
            det = -det
        top = a[rank]
        det = det * top[c] % p
        inv = pow(top[c], -1, p)
        for i in range(rank + 1, n):
            f = a[i][c] * inv % p
            if f:
                a[i] = a[i][:c] + [(x - f * y) % p for x, y in zip(a[i][c:], top[c:])]
        rank += 1
    return rank, det % p if rank == n == m else 0


def unit_det(rows) -> bool:
    """Whether det is +1 or -1 modulo two primes, with the same sign."""
    signs = set()
    for p in (P1, P2):
        d = eliminate_mod_p(rows, p)[1]
        signs.add(1 if d == 1 else -1 if d == p - 1 else 0)
    return signs in ({1}, {-1})


def rank_and_det(rows):
    """Exact rank, and the determinant of a square matrix, by fraction-free
    elimination in the benchmark's own code."""
    a = [list(r) for r in rows]
    n, m = len(a), len(a[0]) if a else 0
    rank, prev, sign = 0, 1, 1
    for c in range(m):
        piv = next((i for i in range(rank, n) if a[i][c]), None)
        if piv is None:
            continue
        if piv != rank:
            a[rank], a[piv] = a[piv], a[rank]
            sign = -sign
        top, p = a[rank], a[rank][c]
        for i in range(rank + 1, n):
            f = a[i][c]
            a[i] = a[i][:c] + [(x * p - f * y) // prev for x, y in zip(a[i][c:], top[c:])]
        prev = p
        rank += 1
    det = None
    if n == m:
        det = 1 if n == 0 else sign * a[n - 1][n - 1] if rank == n else 0
    return rank, det


def random_rows(rng, n, m, bound=20):
    return [[rng.randint(-bound, bound) for _ in range(m)] for _ in range(n)]


def product_rows(rng, n, r, m):
    a, b = random_rows(rng, n, r, 5), random_rows(rng, r, m, 5)
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def family_gram_rows(rng, k):
    """Gram of family member k under the paper's distinguished-basis rule,
    with a drawn sign on each basis vector: the same cokernel and cost, but
    other entries every pass."""
    gram = brieskorn.milnor_lattice(brieskorn.milnor_family(k)).gram.to_lists()
    signs = [rng.choice((1, -1)) for _ in gram]
    return [[si * sj * x for sj, x in zip(signs, row)] for si, row in zip(signs, gram)]


def dense_inputs(rng):
    """(kind, label, rows) for the dense inputs shared by both SNF workloads."""
    out = [("square", f"dense {n}x{n}", random_rows(rng, n, n)) for n in SQUARES]
    out += [("rectangle", f"dense {n}x{m}", random_rows(rng, n, m)) for n, m in RECTANGLES]
    out += [
        ("product", f"product {n}x{m} rank<={r}", product_rows(rng, n, r, m))
        for n, r, m in PRODUCTS
    ]
    return out


def matrix_bytes(*matrices) -> bytes:
    h = hashlib.sha256()
    for mat in matrices:
        h.update(f"{mat.rows}x{mat.cols}:".encode())
        h.update(b"".join(
            x.to_bytes(x.bit_length() // 8 + 1, "little", signed=True) for x in mat.entries
        ))
    return h.digest()


def group_bytes(g) -> bytes:
    return repr((g.free_rank, tuple(g.torsion))).encode()


def check_chain(torsion) -> None:
    expect(all(d >= 2 for d in torsion), "torsion order below 2")
    expect(
        all(torsion[i + 1] % torsion[i] == 0 for i in range(len(torsion) - 1)),
        "torsion is not a divisibility chain",
    )


def matrix_key(rows) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def invariants_op(kind, label, rows) -> Op:
    M = snf.IntMatrix.from_rows(rows)
    key = f"{kind} {matrix_key(rows)}"
    n, m = len(rows), len(rows[0])
    r, det = rank_and_det(rows)

    if kind == "cokernel":

        def check(g):
            expect(g.free_rank == n - r, f"cokernel free rank {g.free_rank}, expected {n - r}")
            check_chain(g.torsion)
            if det:
                expect(prod(g.torsion) == abs(det), "torsion order differs from |det|")

        return Op(
            f"cokernel_group {label}", lambda: abelian.cokernel_group(M), check, group_bytes, key
        )
    if kind == "kernel":

        def check(g):
            expect(g.torsion == () and g.free_rank == m - r, "rank + kernel rank != cols")

        return Op(
            f"kernel_group {label}", lambda: abelian.kernel_group(M), check, group_bytes, key
        )

    def check_rank(value):
        expect(value == r, f"rank {value}, expected {r}")

    return Op(
        f"rank {label}", lambda: snf.rank(M), check_rank, lambda v: str(v).encode(), key
    )


def snf_invariants(rng):
    """Cokernels of every square; the three calls in turn on the others."""
    calls = ("cokernel", "kernel", "rank")
    ops = [
        invariants_op("cokernel" if shape == "square" else calls[i % 3], label, rows)
        for i, (shape, label, rows) in enumerate(dense_inputs(rng))
    ]
    ops += [
        invariants_op("cokernel", f"family gram k={k}", family_gram_rows(rng, k))
        for k in range(1, 7)
    ]
    return ops


def smith_with_transforms(M):
    U, D, V = snf.smith_normal_form(M)
    return U, D, V, U @ M @ V


def transforms_op(label, rows) -> Op:
    M = snf.IntMatrix.from_rows(rows)
    n, m = len(rows), len(rows[0])
    r, det = rank_and_det(rows)

    def check(result):
        U, D, V, R = result
        expect((U.rows, U.cols, V.rows, V.cols) == (n, n, m, m), "transform shapes")
        expect((D.rows, D.cols, R.rows, R.cols) == (n, m, n, m), "D shape")
        expect(R.entries == D.entries, "U @ M @ V != D")
        expect(
            all(D.entries[i * m + j] == 0 for i in range(n) for j in range(m) if i != j),
            "D is not diagonal",
        )
        diag = [D.entries[i * m + i] for i in range(min(n, m))]
        expect(all(d > 0 for d in diag[:r]) and not any(diag[r:]), "D has wrong rank")
        expect(all(diag[i + 1] % diag[i] == 0 for i in range(r - 1)), "D is not a chain")
        if det:
            expect(prod(diag) == abs(det), "product of D differs from |det M|")
        expect(unit_det(U.to_lists()) and unit_det(V.to_lists()), "|det U| or |det V| != 1")

    return Op(
        f"smith_normal_form {label}",
        lambda: smith_with_transforms(M),
        check,
        lambda res: matrix_bytes(*res[:3]),
        matrix_key(rows),
    )


def snf_transforms(rng):
    return [transforms_op(label, rows) for _, label, rows in dense_inputs(rng)]


WORKLOADS = {
    "cli-mix": cli_mix,
    "lattice-render": lattice_render,
    "snf-invariants": snf_invariants,
    "snf-transforms": snf_transforms,
}


# Latency percentiles are taken over a pass's slots, so a pass needs 100
# of them for ten to lie beyond the 90th percentile.
MIN_INPUTS = 100


def build(workload: str, seed: int, pass_index: int) -> list:
    """The operations of one pass, in the seed's order of slots."""
    ops = WORKLOADS[workload](random.Random(f"{workload}:{seed}:{pass_index}"))
    if len(ops) < MIN_INPUTS:
        raise ValueError(f"{workload} has {len(ops)} inputs, fewer than {MIN_INPUTS}")
    random.Random(f"{workload}:{seed}").shuffle(ops)
    return ops

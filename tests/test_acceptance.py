"""Acceptance suite: the exit criteria of the build, one test per criterion.

Every check is exact (integers and rationals, no tolerances).  Each test
prints a single PASS line on success; run with `pytest -s` to see them.
"""

import json
import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

import exotic_invariants as ei
from exotic_invariants.cli import run as cli_run

from oracles import (
    a_lattice,
    chain_euler_matrix,
    cofactor_determinant,
    divisor_enumeration_oracle,
    milnor_number_and_basis,
)


def report(number, text):
    print(f"ACCEPTANCE {number:02d} PASS: {text}")


def test_c01_lambda_table():
    assert ei.lambda_invariant(ei.MilnorBundle(1, 0)) == 0
    assert ei.lambda_invariant(ei.MilnorBundle(2, -1)) == 1

    def table():
        return [ei.lambda_invariant(ei.MilnorBundle(m, 1 - m)) for m in range(-10, 11)]

    first = table()
    assert first == table()
    assert first == [((2 * m - 1) ** 2 - 1) % 7 for m in range(-10, 11)]
    report(1, "lambda values exact and stable for m in [-10, 10]")


def test_c02_gysin_oracle_equivalence():
    checked = 0
    for k in range(-25, 26):
        for m in (0, 1, k, k - 2, 7):
            b = ei.MilnorBundle(m, k - m)
            assert b.cohomology == ei.gysin_cohomology(b), b
            checked += 1
    report(2, f"closed-form cohomology equals the Gysin solve ({checked} bundles)")


def test_c03_correspondence_cohomology():
    for m in range(1, 13):
        for j in range(1, 13):
            i = divisor_enumeration_oracle(m, j)
            assert i == gcd(m, j)
            for sm in (m, -m):
                for sj in (j, -j):
                    assert ei.correspondence_h7(sm, sj) == ei.AbelianGroup.from_orders(
                        1, [i]
                    )
    report(3, "H^7 of the correspondence space matches the divisor oracle")


def test_c04_duality_involution():
    for m in range(-20, 21):
        for k in range(-20, 21):
            b = ei.MilnorBundle(m, k - m)
            for j in range(-20, 21):
                fb = ei.FluxedBundle(b, j)
                dual = ei.euler_preserving_dual(fb)
                back = ei.euler_preserving_dual(dual)
                assert back == fb
                assert back.bundle.canonical_form == fb.bundle.canonical_form
                assert dual.flux == m and back.flux == j
    report(4, "euler-preserving duality is an involution on [-20, 20]^3")


def test_c05_family_identities():
    for k in range(1, 29):
        bp = ei.milnor_family(k)
        mu, basis = milnor_number_and_basis(bp)
        assert mu == len(basis) == 2 * (6 * k - 2)
        assert bp.milnor_number == mu
        assert sum(Fraction(1, a) for a in bp.exponents) > 1
        kind, _ = bp.canonical_type
        assert kind is ei.CanonicalType.FANO
    assert ei.milnor_family(1).weights_and_degree == (30, (6, 10, 15, 15, 15))
    _, gorenstein = ei.milnor_family(1).canonical_type
    assert gorenstein == Fraction(31, 30)
    report(5, "family k=1..28: mu = 2(6k-2), Fano, k=1 weights and Gorenstein exact")


def test_c06_lattice_suite():
    rng = random.Random(6)
    for _ in range(25):
        exps = tuple(rng.randint(2, 7) for _ in range(rng.randint(1, 4)))
        bp = ei.BrieskornPham(exps)
        lat = ei.milnor_lattice(bp)
        mu = bp.milnor_number
        assert lat.rank == mu and lat.gram.rows == lat.gram.cols == mu
        assert all(lat.gram[i, i] == 2 for i in range(mu))
        assert lat.gram == lat.gram.transpose()
    for a in range(2, 14):
        assert ei.milnor_lattice(ei.BrieskornPham.of(a)).gram == a_lattice(a - 1)
    for n in range(1, 13):
        assert cofactor_determinant(a_lattice(n)) == n + 1
    for n in range(1, 11):
        e = chain_euler_matrix(n)
        sym = ei.IntMatrix.from_rows(
            [[e[i, j] + e[j, i] for j in range(n)] for i in range(n)]
        )
        assert sym == a_lattice(n)
    report(6, "gram shape, chain-lattice, determinant, and Euler-form checks")


def test_c07_spectrum_suite():
    rng = random.Random(7)
    for _ in range(30):
        exps = tuple(rng.randint(2, 7) for _ in range(rng.randint(1, 4)))
        bp = ei.BrieskornPham(exps)
        ell, nums = ei.spectrum(bp)
        assert len(nums) == bp.milnor_number
        values = tuple(Fraction(x, ell) for x in nums)
        assert values[0] == sum(Fraction(1, a) for a in exps)
        top = Fraction(len(exps))
        assert tuple(sorted(top - v for v in values)) == values
    report(7, "spectrum cardinality, minimum, and symmetry in exact rationals")


def test_c08_snf_property_suite():
    rng = random.Random(8)
    for _ in range(500):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = ei.IntMatrix.from_rows(
            [[rng.randint(-20, 20) for _ in range(cols)] for _ in range(rows)]
        )
        u, d, v = ei.smith_normal_form(m)
        assert u @ m @ v == d
        assert abs(cofactor_determinant(u)) == 1
        assert abs(cofactor_determinant(v)) == 1
        diag = d.diagonal()
        assert all(x >= 0 for x in diag)
        nonzero = [x for x in diag if x != 0]
        assert all(nonzero[i + 1] % nonzero[i] == 0 for i in range(len(nonzero) - 1))
        assert all(x == 0 for x in diag[len(nonzero):])
        if rows == cols:
            det = cofactor_determinant(m)
            if det != 0:
                assert ei.cokernel_group(m).order() == abs(det)
    report(8, "SNF round trip, unimodularity, chain, and cokernel order (500 matrices)")


def test_c09_hodge_enumeration():
    mall = {(0, 0): 1, (0, 1): 1, (4, 4): 1, (4, 3): 1}
    dual = {(0, 0): 1, (1, 0): 1, (4, 4): 1, (3, 4): 1}
    unit = ei.enumerate_admissible_diamonds(ei.UNIT)
    assert len(unit) == 2
    assert {frozenset(d.entries().items()) for d in unit} == {
        frozenset(mall.items()),
        frozenset(dual.items()),
    }
    nonunit = ei.enumerate_admissible_diamonds(ei.NONUNIT)
    assert nonunit
    for d in nonunit:
        assert d[4, 0] == 0 and d[1, 3] == 0
        assert d[2, 2] == ei.betti_vector(ei.NONUNIT)[4]
    report(9, "unit branch yields exactly the two known diamonds; nonunit constrained")


def test_c10_kunneth(capsys):
    assert ei.kunneth(
        ei.sphere_cohomology(7), ei.sphere_cohomology(1)
    ) == ei.GradedGroups({0: ei.Z, 1: ei.Z, 7: ei.Z, 8: ei.Z})
    for m in range(2, 7):
        coh = ei.hopf_manifold_cohomology(m, m)  # M(m, 0) x S^1
        expected = ei.GradedGroups(
            {
                0: ei.Z,
                1: ei.Z,
                4: ei.AbelianGroup.cyclic(m),
                5: ei.AbelianGroup.cyclic(m),
                7: ei.Z,
                8: ei.Z,
            }
        )
        assert coh == expected
        assert set(coh.degrees()) == {0, 1, 4, 5, 7, 8}
    code = cli_run(["kunneth", "--m", "3", "--k", "3", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["metadata"]["torsion_degrees"] == [4, 5]
    assert doc["metadata"]["note"]
    report(10, "product cohomology exact; degree-5 torsion flagged in CLI metadata")


def test_c11_group_law_suites():
    for order in (1, 2, 7, 28):
        cfg = ei.GroupConfig(order)
        elems = [ei.theta7(r, cfg) for r in range(order)]
        zero = ei.theta7(0, cfg)
        for x in elems:
            assert ei.compose(x, zero) == x
            assert ei.compose(x, ei.theta7(-x.residue, cfg)) == zero
            for y in elems:
                assert ei.compose(x, y) == ei.compose(y, x)
                for z in elems:
                    assert ei.compose(ei.compose(x, y), z) == ei.compose(
                        x, ei.compose(y, z)
                    )
    cfg = ei.GroupConfig(28, 3)
    for m in range(-10, 11):
        for mp in range(-10, 11):
            for n in range(-10, 11):
                assert ei.sigma33(m + mp, n, cfg) == ei.compose(
                    ei.sigma33(m, n, cfg), ei.sigma33(mp, n, cfg)
                )
    for m, n, l, lp in ((2, -1, 1, 3), (5, 4, -2, 2), (0, 9, 9, -9)):
        assert ei.sigma_tilde8(m, n, l + lp, cfg) == ei.compose(
            ei.sigma_tilde8(m, n, l, cfg), ei.sigma_tilde8(m, n, lp, cfg)
        )
        assert ei.sigma_tilde8(m, n, l, cfg) == ei.sigma_tilde8(n, m, l, cfg)
    zero = ei.RepClass(0)
    for l1 in range(-10, 11):
        for l2 in range(-10, 11):
            a, b = ei.RepClass(l1), ei.RepClass(l2)
            assert ei.fano_moduli_compose(a, b) == ei.fano_moduli_compose(b, a)
            assert ei.fano_moduli_compose(a, zero) == a
            assert ei.fano_moduli_compose(a, ei.RepClass(-l1)) == zero
    n = 28
    for start in range(n):
        for step in range(n):
            reachable = {}
            for l in range(n):
                r = (start + l * step) % n
                reachable.setdefault(r, l)
            for target in range(n):
                if target in reachable:
                    assert (
                        ei.de_sapio_steps(
                            ei.theta7(start), ei.theta7(step), ei.theta7(target)
                        )
                        == reachable[target]
                    )
                else:
                    with pytest.raises(ei.Unreachable):
                        ei.de_sapio_steps(
                            ei.theta7(start), ei.theta7(step), ei.theta7(target)
                        )
    report(11, "group laws, multilinearity, and step counting verified exhaustively")


def test_c12_isotropy_enumeration():
    weights = (6, 10, 15, 15, 15)
    data = ei.link_isotropies(1, 3)
    assert len(data) == 26
    independent = {
        support: gcd(*(weights[i] for i in support))
        for size in range(2, 6)
        for support in combinations(range(5), size)
    }
    assert {d.support: d.b for d in data} == independent
    by_support = {d.support: d for d in data}
    assert by_support[(1, 2)].b == 5
    assert by_support[(0, 1, 2, 3, 4)].b == 1
    report(12, "isotropy b-values over all 26 supports match independent gcds")

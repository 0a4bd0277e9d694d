import re
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exotic_invariants import brieskorn
from exotic_invariants.brieskorn import (
    BP8_ORDER,
    BrieskornPham,
    CanonicalType,
    milnor_family,
    milnor_lattice,
    spectrum,
)
from exotic_invariants.errors import InvalidArgument, OutOfFamily
from exotic_invariants.snf import IntMatrix
from oracles import (
    a_lattice,
    category_hom_dims,
    chain_euler_matrix,
    cofactor_determinant,
    fraction_sum_canonical_type,
    fraction_sum_spectrum,
    hom_dims_product,
    milnor_number_and_basis,
    paper_rule_gram,
    sphere_link_family_shape,
)

exponent_vectors = st.lists(st.integers(2, 7), min_size=1, max_size=4).map(tuple)


def test_type_validation():
    with pytest.raises(ValueError):
        BrieskornPham(())
    with pytest.raises(ValueError):
        BrieskornPham.of(3, 1)


def test_milnor_number_examples():
    mu, basis = milnor_number_and_basis(BrieskornPham.of(5, 3, 2, 2, 2))
    assert mu == 8 and len(basis) == 8
    assert BrieskornPham.of(5, 3, 2, 2, 2).milnor_number == mu
    mu, basis = milnor_number_and_basis(BrieskornPham.of(2))
    assert mu == 1 and basis == [(0,)]
    assert BrieskornPham.of(2).milnor_number == mu
    mu, basis = milnor_number_and_basis(BrieskornPham.of(3, 3))
    assert mu == 4 and basis == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert BrieskornPham.of(3, 3).milnor_number == mu


def test_a_lattice_examples():
    assert a_lattice(2).to_lists() == [[2, -1], [-1, 2]]
    assert a_lattice(1).to_lists() == [[2]]
    assert cofactor_determinant(a_lattice(4)) == 5
    with pytest.raises(InvalidArgument, match="lattice rank must be >= 1, got 0"):
        a_lattice(0)


def test_a_lattice_determinants():
    for n in range(1, 13):
        assert cofactor_determinant(a_lattice(n)) == n + 1


def test_milnor_lattice_small_cases():
    assert milnor_lattice(BrieskornPham.of(3)).gram.to_lists() == [[2, -1], [-1, 2]]
    assert milnor_lattice(BrieskornPham.of(2, 2)).gram.to_lists() == [[2]]
    assert milnor_lattice(BrieskornPham.of(3, 2)).gram.to_lists() == [[2, -2], [-2, 2]]


def test_single_factor_lattice_is_chain_lattice():
    for a in range(2, 13):
        assert milnor_lattice(BrieskornPham.of(a)).gram == a_lattice(a - 1)


@given(exponent_vectors)
@settings(max_examples=60)
def test_lattice_shape_properties(exps):
    bp = BrieskornPham(exps)
    lat = milnor_lattice(bp)
    mu = bp.milnor_number
    assert lat.rank == mu
    g = lat.gram
    assert g.rows == g.cols == mu
    assert all(g[i, i] == 2 for i in range(mu))
    assert g == g.transpose()
    assert lat.index_set == tuple(sorted(lat.index_set))


@given(exponent_vectors)
@settings(max_examples=25)
@example((2,) * 40)
@example((2,) * 30 + (3,))
@example((2, 3, 2, 2, 4, 2))
def test_lattice_gram_matches_pairwise_oracle(exps):
    assert milnor_lattice(BrieskornPham(exps)).gram.to_lists() == paper_rule_gram(exps)


def test_family_lattice_matches_pairwise_oracle():
    for k in range(1, 5):
        orders = set(permutations(milnor_family(k).exponents))
        assert len(orders) == 20
        for exps in orders:
            gram = milnor_lattice(BrieskornPham(exps)).gram.to_lists()
            assert gram == paper_rule_gram(exps), exps
    exps = milnor_family(28).exponents
    assert milnor_lattice(BrieskornPham(exps)).gram.to_lists() == paper_rule_gram(exps)


def test_lattice_index_set_lex_sorted():
    lat = milnor_lattice(BrieskornPham.of(3, 3))
    assert lat.index_set == ((1, 1), (1, 2), (2, 1), (2, 2))


def spectrum_values(bp):
    """The spectrum of bp as Fractions over its weighted degree."""
    ell, nums = spectrum(bp)
    return tuple(Fraction(x, ell) for x in nums)


def test_spectrum_examples():
    assert spectrum(BrieskornPham.of(2, 2, 2)) == (2, [3])
    assert spectrum(BrieskornPham.of(3, 3)) == (3, [2, 3, 3, 4])
    assert spectrum_values(BrieskornPham.of(5, 3, 2, 2, 2))[0] == Fraction(61, 30)
    assert spectrum_values(BrieskornPham.of(3, 3)) == (
        Fraction(2, 3), Fraction(1), Fraction(1), Fraction(4, 3)
    )


@given(exponent_vectors)
@settings(max_examples=60)
def test_spectrum_properties(exps):
    bp = BrieskornPham(exps)
    ell, nums = spectrum(bp)
    assert (ell, len(nums)) == (bp.weights_and_degree[0], bp.milnor_number)
    assert nums == sorted(nums)
    values = spectrum_values(bp)
    assert values[0] == sum(Fraction(1, a) for a in exps)
    top = Fraction(len(exps))
    assert tuple(sorted(top - v for v in values)) == values


@given(exponent_vectors)
@settings(max_examples=60)
def test_spectrum_matches_fraction_sum_oracle(exps):
    assert spectrum_values(BrieskornPham(exps)) == fraction_sum_spectrum(exps)


def test_size_guard_refuses_before_allocating(monkeypatch):
    # The guard is tested with a low limit; nothing of the refused size is built.
    monkeypatch.setattr(brieskorn, "MAX_ENTRIES", 16)
    assert milnor_lattice(BrieskornPham.of(3, 3)).rank == 4  # 16 entries
    assert len(spectrum(BrieskornPham.of(5, 5))[1]) == 16
    monkeypatch.setattr(brieskorn, "MAX_ENTRIES", 15)
    with pytest.raises(InvalidArgument):
        spectrum(BrieskornPham.of(5, 5))
    with pytest.raises(InvalidArgument):
        milnor_lattice(BrieskornPham.of(3, 3))
    monkeypatch.setattr(brieskorn, "product", None)  # the lattice's first allocation
    with pytest.raises(InvalidArgument, match=r"milnor lattice of \(4,3\) has 36 entries"):
        milnor_lattice(BrieskornPham.of(4, 3))
    monkeypatch.setattr(BrieskornPham, "weights_and_degree", None)  # runs before the spectrum's
    with pytest.raises(InvalidArgument, match=r"spectrum of \(5,6\) has 20 entries"):
        spectrum(BrieskornPham.of(5, 6))


def test_size_limit_admits_the_family_lattices():
    assert milnor_family(BP8_ORDER).milnor_number ** 2 <= brieskorn.MAX_ENTRIES


def test_weights_examples():
    assert BrieskornPham.of(5, 3, 2, 2, 2).weights_and_degree == (30, (6, 10, 15, 15, 15))
    assert BrieskornPham.of(2, 2).weights_and_degree == (2, (1, 1))
    assert BrieskornPham.of(11, 3, 2, 2, 2).weights_and_degree == (66, (6, 22, 33, 33, 33))


def test_canonical_type_examples():
    kind, g = BrieskornPham.of(5, 3, 2, 2, 2).canonical_type
    assert kind is CanonicalType.FANO and g == Fraction(31, 30)
    kind, g = BrieskornPham.of(3, 3, 3).canonical_type
    assert kind is CanonicalType.CALABI_YAU and g == 0
    kind, g = BrieskornPham.of(7, 3, 2).canonical_type
    assert kind is CanonicalType.GENERAL_TYPE and g == Fraction(-1, 42)


@given(st.lists(st.integers(2, 60), min_size=1, max_size=6).map(tuple))
@settings(max_examples=200)
def test_canonical_type_matches_fraction_sum_oracle(exps):
    # cli.weighted_type_json reads the grading before canonical_type: the
    # first read keeps it, canonical_type reuses it, and keeping it changes
    # neither the value's equality nor its hash.
    bp = BrieskornPham(exps)
    graded = bp.weights_and_degree
    assert bp.canonical_type == fraction_sum_canonical_type(exps)
    assert bp.weights_and_degree is graded
    assert bp == BrieskornPham(exps) and hash(bp) == hash(BrieskornPham(exps))


@given(exponent_vectors)
@settings(max_examples=60)
def test_fano_iff_weight_excess(exps):
    bp = BrieskornPham(exps)
    ell, weights = bp.weights_and_degree
    kind, _ = bp.canonical_type
    assert (sum(weights) > ell) == (kind is CanonicalType.FANO)


def test_family_examples():
    assert milnor_family(1) == BrieskornPham.of(5, 3, 2, 2, 2)
    assert milnor_family(28) == BrieskornPham.of(167, 3, 2, 2, 2)
    for bad in (0, 29, -1):
        with pytest.raises(OutOfFamily):
            milnor_family(bad)


def test_family_identities():
    for k in range(1, 29):
        bp = milnor_family(k)
        assert bp.milnor_number == 2 * (6 * k - 2)
        assert bp.in_sphere_link_family
        kind, _ = bp.canonical_type
        assert kind is CanonicalType.FANO
    assert not BrieskornPham.of(6, 3, 2, 2, 2).in_sphere_link_family
    assert not BrieskornPham.of(5, 3, 2, 2).in_sphere_link_family


def test_family_membership_matches_shape_oracle():
    # First exponents 2..200 reach k = 0 and k >= 29; tails of length 0-5
    # over {2, 3, 4} include every permutation of (3, 2, 2, 2) and every
    # wrong length.
    tails = [t for n in range(6) for t in product(range(2, 5), repeat=n)]
    members = 0
    for first in range(2, 201):
        for tail in tails:
            exps = (first, *tail)
            expected = sphere_link_family_shape(exps)
            assert BrieskornPham(exps).in_sphere_link_family == expected, exps
            members += expected
    assert members == 28


def test_hom_dims_examples():
    assert category_hom_dims(3, 1, 1) == {0: 1}
    assert category_hom_dims(3, 1, 2) == {1: 1}
    assert category_hom_dims(3, 2, 1) == {}
    with pytest.raises(InvalidArgument, match=re.escape("objects run 1..3, got (0, 1)")):
        category_hom_dims(3, 0, 1)
    with pytest.raises(InvalidArgument, match=re.escape("objects run 1..3, got (1, 4)")):
        category_hom_dims(3, 1, 4)


def test_hom_dims_product_convolves_degrees():
    a = category_hom_dims(3, 1, 2)
    b = category_hom_dims(2, 1, 1)
    assert hom_dims_product(a, b) == {1: 1}
    assert hom_dims_product(a, a) == {2: 1}
    assert hom_dims_product(a, {}) == {}
    assert hom_dims_product() == {0: 1}


def test_chain_euler_matrix_rejects_rank_zero():
    with pytest.raises(InvalidArgument, match="need n >= 1, got 0"):
        chain_euler_matrix(0)


def test_symmetrized_euler_form_recovers_chain_lattice():
    for n in range(1, 13):
        e = chain_euler_matrix(n)
        sym = IntMatrix.from_rows(
            [
                [e[i, j] + e[j, i] for j in range(n)]
                for i in range(n)
            ]
        )
        assert sym == a_lattice(n)

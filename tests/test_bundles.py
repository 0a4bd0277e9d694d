import pytest
from hypothesis import given
from hypothesis import strategies as st

from exotic_invariants.abelian import GradedGroups, Z, AbelianGroup
from exotic_invariants.bundles import (
    MilnorBundle,
    bundle_cohomology,
    canonical_form,
    clutching_compose,
    gysin_cohomology,
    lambda_invariant,
    star_quotient,
)
from exotic_invariants.errors import InvalidArgument, NotHomotopySphere

bundles_strategy = st.builds(
    MilnorBundle, st.integers(-30, 30), st.integers(-30, 30)
)


def test_characteristic_classes_examples():
    hopf = MilnorBundle(1, 0)
    assert (hopf.euler, hopf.pontryagin) == (1, 2)
    assert hopf.is_principal and hopf.is_homotopy_sphere

    gm = MilnorBundle(2, -1)
    assert (gm.euler, gm.pontryagin) == (1, 6)
    assert not gm.is_principal and gm.is_homotopy_sphere

    trivial = MilnorBundle(0, 0)
    assert (trivial.euler, trivial.pontryagin) == (0, 0)
    assert trivial.is_principal and not trivial.is_homotopy_sphere


def test_canonical_form_examples():
    assert canonical_form(MilnorBundle(0, -5)) == MilnorBundle(0, -5)
    assert canonical_form(MilnorBundle(2, -1)) == MilnorBundle(1, -2)
    assert canonical_form(MilnorBundle(4, -4)) == MilnorBundle(4, -4)


@given(bundles_strategy)
def test_canonical_form_idempotent_and_class_preserving(b):
    c = canonical_form(b)
    assert canonical_form(c) == c
    assert c in (b, b.mirror())
    assert c.euler in (b.euler, -b.euler)
    assert abs(c.pontryagin) == abs(b.pontryagin)


def test_lambda_values():
    assert lambda_invariant(MilnorBundle(1, 0)) == 0
    assert lambda_invariant(MilnorBundle(2, -1)) == 1
    assert lambda_invariant(MilnorBundle(3, -2)) == 3


def test_lambda_rejects_non_spheres():
    with pytest.raises(NotHomotopySphere):
        lambda_invariant(MilnorBundle(1, 1))
    with pytest.raises(NotHomotopySphere):
        lambda_invariant(MilnorBundle(0, 0))


def test_lambda_mirror_invariant():
    for m in range(-20, 21):
        for b in (MilnorBundle(m, 1 - m), MilnorBundle(m, -1 - m)):
            assert lambda_invariant(b) == lambda_invariant(canonical_form(b))
            assert lambda_invariant(b) == lambda_invariant(b.mirror())


def test_cohomology_examples():
    for m in (2, 3, 7):
        coh = bundle_cohomology(MilnorBundle(m, 0))
        assert coh == GradedGroups({0: Z, 4: AbelianGroup.cyclic(m), 7: Z})
    assert bundle_cohomology(MilnorBundle(0, 0)) == GradedGroups(
        {0: Z, 3: Z, 4: Z, 7: Z}
    )
    assert bundle_cohomology(MilnorBundle(2, -1)) == GradedGroups({0: Z, 7: Z})


def test_cohomology_matches_gysin_solve():
    for k in range(-25, 26):
        for m in (0, k, k + 3, -5):
            b = MilnorBundle(m, k - m)
            assert bundle_cohomology(b) == gysin_cohomology(b), f"k={k}, m={m}"


def test_clutching_examples():
    assert clutching_compose(MilnorBundle(0, 4), MilnorBundle(9, 0)) == MilnorBundle(9, 4)
    assert clutching_compose(MilnorBundle(5, -3), MilnorBundle(0, 0)) == MilnorBundle(5, -3)
    assert clutching_compose(MilnorBundle(1, 1), MilnorBundle(2, 3)) == MilnorBundle(3, 4)


@given(bundles_strategy, bundles_strategy, bundles_strategy)
def test_clutching_monoid_laws(a, b, c):
    assert clutching_compose(a, b) == clutching_compose(b, a)
    assert clutching_compose(clutching_compose(a, b), c) == clutching_compose(
        a, clutching_compose(b, c)
    )
    assert clutching_compose(a, MilnorBundle(0, 0)) == a


def test_star_quotient_examples():
    assert star_quotient(2, 1, "nonprincipal") == MilnorBundle(2, -1)
    assert star_quotient(4, 4, "nonprincipal") == MilnorBundle(4, 0)
    assert star_quotient(1, 1, "principal") == MilnorBundle(0, 0)
    with pytest.raises(InvalidArgument):
        star_quotient(1, 1, "diagonal")


@given(st.integers(-15, 15), st.integers(-15, 15))
def test_star_quotient_preserves_euler(r, k):
    assert star_quotient(r, k, "nonprincipal").euler == k

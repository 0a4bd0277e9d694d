from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from exotic_invariants.abelian import AbelianGroup
from exotic_invariants.bundles import MilnorBundle
from exotic_invariants.errors import DegenerateInput, NotPrincipal
from oracles import divisor_enumeration_oracle
from exotic_invariants.tduality import (
    FluxedBundle,
    correspondence_h7,
    euler_preserving_dual,
    lifted_flux,
    principal_dual,
)


def test_euler_preserving_examples():
    assert euler_preserving_dual(
        FluxedBundle(MilnorBundle(2, -1), 1)
    ) == FluxedBundle(MilnorBundle(1, 0), 2)
    fixed = FluxedBundle(MilnorBundle(4, 3), 4)
    assert euler_preserving_dual(fixed) == fixed  # flux equal to m is a fixed point
    assert euler_preserving_dual(
        FluxedBundle(MilnorBundle(3, 2), 7)
    ) == FluxedBundle(MilnorBundle(7, -2), 3)


@given(st.integers(-20, 20), st.integers(-20, 20), st.integers(-20, 20))
def test_involution_and_flux_swap(m, k, j):
    fb = FluxedBundle(MilnorBundle(m, k - m), j)
    dd = euler_preserving_dual(euler_preserving_dual(fb))
    assert dd == fb
    assert dd.bundle.canonical_form == fb.bundle.canonical_form
    dual = euler_preserving_dual(fb)
    assert dual.bundle.euler == fb.bundle.euler
    assert dual.flux == m and euler_preserving_dual(dual).flux == j


def test_principal_dual_examples():
    assert principal_dual(FluxedBundle(MilnorBundle(3, 0), 5)) == FluxedBundle(
        MilnorBundle(0, -5), 3
    )
    assert principal_dual(FluxedBundle(MilnorBundle(1, 0), 1)) == FluxedBundle(
        MilnorBundle(0, -1), 1
    )
    with pytest.raises(NotPrincipal):
        principal_dual(FluxedBundle(MilnorBundle(2, -1), 4))


def test_principal_dual_normalizes_mirror_form():
    # M(0, n) is the mirror of M(-n, 0); the flux swap must use -n.
    assert principal_dual(FluxedBundle(MilnorBundle(0, 4), 7)) == FluxedBundle(
        MilnorBundle(0, -7), -4
    )


def test_both_duality_rules_swap_in_the_same_flux():
    fb = FluxedBundle(MilnorBundle(5, 0), 9)
    assert euler_preserving_dual(fb).flux == principal_dual(fb).flux == 5


def test_correspondence_examples():
    assert correspondence_h7(2, 4) == AbelianGroup.from_orders(1, [2])
    for j in (-3, 0, 1, 12):
        assert correspondence_h7(1, j) == AbelianGroup.free(1)
    assert correspondence_h7(6, 9) == AbelianGroup.from_orders(1, [3])
    assert correspondence_h7(0, 5) == AbelianGroup.from_orders(1, [5])
    with pytest.raises(DegenerateInput):
        correspondence_h7(0, 0)


def test_correspondence_against_divisor_oracle():
    for m in range(1, 13):
        for j in range(1, 13):
            i = divisor_enumeration_oracle(m, j)
            assert i == gcd(m, j)
            assert correspondence_h7(m, j) == AbelianGroup.from_orders(1, [i])


def test_lifted_flux_examples():
    assert lifted_flux(6, 4) == 12
    assert lifted_flux(7, 7) == 7
    assert lifted_flux(5, 7) == 35
    with pytest.raises(DegenerateInput):
        lifted_flux(0, 0)


@given(st.integers(-40, 40), st.integers(-40, 40))
def test_lifted_flux_symmetric_and_divisible(m, j):
    if m == 0 and j == 0:
        return
    lift = lifted_flux(m, j)
    assert lift == lifted_flux(j, m)
    g = gcd(abs(m), abs(j))
    if m != 0:
        assert lift % (abs(m) // g) == 0
    if j != 0:
        assert lift % (abs(j) // g) == 0


def test_dual_pair_summary_shape():
    fb = FluxedBundle(MilnorBundle(3, 0), 5)
    assert principal_dual(fb) == FluxedBundle(MilnorBundle(0, -5), 3)
    assert euler_preserving_dual(fb) == FluxedBundle(MilnorBundle(5, -2), 3)
    assert lifted_flux(3, 5) == 15
    with pytest.raises(NotPrincipal):
        principal_dual(FluxedBundle(MilnorBundle(2, -1), 4))

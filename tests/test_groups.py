from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from exotic_invariants.errors import ConfigMismatch, InvalidRep, OutOfFamily, Unreachable
from exotic_invariants.groups import (
    DEFAULT_CONFIG,
    GroupConfig,
    RepClass,
    compose,
    de_sapio_steps,
    family_weights,
    fano_moduli_compose,
    link_isotropies,
    sigma33,
    sigma8,
    sigma_tilde8,
    theta7,
)

SMALL = range(-10, 11)


def test_config_flags():
    assert DEFAULT_CONFIG.order == 28 and DEFAULT_CONFIG.coeff == 1
    assert GroupConfig(28, 3).coeff_coprime
    assert not GroupConfig(28, 14).coeff_coprime
    with pytest.raises(ValueError):
        GroupConfig(0)


def test_sigma33_examples():
    assert sigma33(1, 1).residue == 1 % 28
    assert sigma33(0, 7).residue == 0
    # bilinearity forces an even residue at (2, -1) regardless of the
    # coefficient, so this value cannot generate the order-28 group
    assert sigma33(2, -1).residue == (-2) % 28
    assert sigma33(1, 1, GroupConfig(28, 5)).residue == 5


def test_sigma33_bilinear():
    cfg = GroupConfig(28, 3)
    for m in SMALL:
        for mp in SMALL:
            for n in SMALL:
                left = sigma33(m + mp, n, cfg)
                right = compose(sigma33(m, n, cfg), sigma33(mp, n, cfg))
                assert left == right
                assert sigma33(n, m, cfg) == sigma33(m, n, cfg)


def test_sigma_tilde8_examples():
    assert sigma_tilde8(9, -4, 0).residue == 0
    assert sigma_tilde8(2, -1, 1).residue == sigma33(2, -1).residue
    assert sigma_tilde8(1, 1, 3).residue == 3


@given(
    st.integers(-10, 10),
    st.integers(-10, 10),
    st.integers(-10, 10),
    st.integers(-10, 10),
)
def test_sigma_tilde8_trilinear(m, n, l, lp):
    cfg = GroupConfig(28, 1)
    assert sigma_tilde8(m, n, l + lp, cfg) == compose(
        sigma_tilde8(m, n, l, cfg), sigma_tilde8(m, n, lp, cfg)
    )
    assert sigma_tilde8(m, n, l, cfg) == sigma_tilde8(n, m, l, cfg)


@pytest.mark.parametrize("order", [1, 2, 7, 28])
def test_group_laws(order):
    cfg = GroupConfig(order)
    elems = [theta7(r, cfg) for r in range(order)]
    zero = theta7(0, cfg)
    for x in elems:
        assert compose(x, zero) == x
        assert compose(x, theta7(-x.residue, cfg)) == zero
        for y in elems:
            assert compose(x, y) == compose(y, x)
            for z in elems:
                assert compose(compose(x, y), z) == compose(x, compose(y, z))


def test_compose_rejects_mismatches():
    with pytest.raises(ConfigMismatch):
        compose(theta7(1), theta7(1, GroupConfig(7)))
    with pytest.raises(ConfigMismatch):
        compose(theta7(1), sigma8(1))


def test_de_sapio_examples():
    assert de_sapio_steps(theta7(0), theta7(1), theta7(5)) == 5
    assert de_sapio_steps(theta7(3), theta7(1), theta7(3)) == 0
    with pytest.raises(Unreachable):
        de_sapio_steps(theta7(0), theta7(2), theta7(5))


def test_de_sapio_exhaustive_against_scan():
    def steps_or_none(start, step, target):
        try:
            return de_sapio_steps(start, step, target)
        except Unreachable:
            return None

    for n in range(1, 41):
        elems = [theta7(v, GroupConfig(order=n)) for v in range(n)]
        for start in range(n):
            for step in range(n):
                reachable = {}
                for l in range(n):
                    reachable.setdefault((start + l * step) % n, l)
                assert [
                    steps_or_none(elems[start], elems[step], target) for target in elems
                ] == [reachable.get(target) for target in range(n)], (n, start, step)


def test_fano_moduli_group_laws():
    zero = RepClass(0)
    for l1 in SMALL:
        for l2 in SMALL:
            a, b = RepClass(l1), RepClass(l2)
            assert fano_moduli_compose(a, b) == fano_moduli_compose(b, a)
            assert fano_moduli_compose(a, zero) == a
            assert fano_moduli_compose(a, RepClass(-l1)) == zero
    assert fano_moduli_compose(RepClass(3), RepClass(4)) == RepClass(7)


def test_is_orbifold_rep():
    assert not RepClass(0).is_orbifold
    assert RepClass(1).is_orbifold
    assert RepClass(7).is_orbifold


def test_log_transform_connects_any_two_classes():
    cfg = GroupConfig(28, 1)
    for m in range(28):
        for j in range(28):
            delta = sigma_tilde8(j - m, 1, 1, cfg)
            assert compose(sigma8(m, cfg), delta) == sigma8(j, cfg)


def test_family_weights():
    assert family_weights(1) == (6, 10, 15, 15, 15)
    assert family_weights(2) == (6, 22, 33, 33, 33)
    for k in range(1, 29):
        q = 6 * k - 1
        assert family_weights(k) == (6, 2 * q, 3 * q, 3 * q, 3 * q)
    with pytest.raises(OutOfFamily):
        family_weights(0)


def test_link_isotropies_k1():
    data = link_isotropies(1, 3)
    assert len(data) == 26
    by_support = {d.support: d for d in data}
    assert by_support[(1, 2)].b == 5
    assert by_support[(1, 2)].isotropy == (5, 3)
    assert by_support[(0, 1)].b == 2
    assert by_support[(0, 1, 2)].b == 1
    assert by_support[(0, 1, 2, 3, 4)].b == 1
    # repeated weights keep their full gcd
    assert by_support[(2, 3)].b == 15


def test_link_isotropies_divisibility():
    for k in range(1, 29):
        weights = family_weights(k)
        data = link_isotropies(k, 1)
        for d in data:
            assert all(weights[i] % d.b == 0 for i in d.support)
        full = [d for d in data if len(d.support) == 5]
        assert full[0].b == 1  # the action is effective for every k


def test_link_isotropies_errors():
    with pytest.raises(OutOfFamily):
        link_isotropies(29, 1)
    with pytest.raises(InvalidRep):
        link_isotropies(1, 0)

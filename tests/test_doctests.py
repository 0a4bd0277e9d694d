import doctest

import exotic_invariants.abelian
import exotic_invariants.brieskorn
import exotic_invariants.groups
import exotic_invariants.hodge
import exotic_invariants.snf


def test_snf_doctests():
    failures, _ = doctest.testmod(exotic_invariants.snf)
    assert failures == 0


def test_abelian_doctests():
    failures, _ = doctest.testmod(exotic_invariants.abelian)
    assert failures == 0


def test_brieskorn_doctests():
    failures, tried = doctest.testmod(exotic_invariants.brieskorn)
    assert failures == 0 and tried >= 2


def test_groups_doctests():
    failures, tried = doctest.testmod(exotic_invariants.groups)
    assert failures == 0 and tried >= 3


def test_hodge_doctests():
    failures, tried = doctest.testmod(exotic_invariants.hodge)
    assert failures == 0 and tried >= 1

import doctest

import exotic_invariants.abelian
import exotic_invariants.brieskorn
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

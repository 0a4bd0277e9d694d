"""Spherical T-dual pairs of flux-carrying 3-sphere bundles.

A fluxed bundle is a bundle together with an integer class in H^7 of its
total space (always infinite cyclic here).  Two distinct duality rules are
exposed because they genuinely differ: the principal rule swaps the bundle
class and the flux, changing the Euler class, while the general rule keeps
the Euler class fixed and swaps the first clutching exponent with the
flux.  Nothing in the source material reconciles the two on their common
domain, so no reconciliation is invented.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .abelian import AbelianGroup
from .bundles import MilnorBundle
from .errors import DegenerateInput, NotPrincipal, _require, _trusted


@dataclass(frozen=True)
class FluxedBundle:
    bundle: MilnorBundle
    flux: int

    def __post_init__(self):
        _require(MilnorBundle, "bundle", (self.bundle,))
        _require(int, "flux class", (self.flux,))

    def __str__(self):
        return f"({self.bundle}, [{self.flux}])"


def euler_preserving_dual(fb: FluxedBundle) -> FluxedBundle:
    """(M(m, k-m), [j]) -> (M(j, k-j), [m]) with k the Euler class.

    Involutive on the nose: applying it twice returns the input.
    """
    _require(FluxedBundle, "fluxed bundle", (fb,))
    k = fb.bundle.euler
    j = fb.flux
    return _trusted(FluxedBundle, _trusted(MilnorBundle, j, k - j), fb.bundle.m)


def principal_dual(fb: FluxedBundle) -> FluxedBundle:
    """(M(m, 0), [j]) -> (M(0, -j), [m]); defined for principal bundles only.

    An input M(0, n) with n != 0 is first replaced by its mirror M(-n, 0).
    Over a 4-dimensional base the dual flux is uniquely determined, with no
    correction term.

    >>> print(principal_dual(FluxedBundle(MilnorBundle(0, 4), 7)))
    (M(0,-7), [-4])
    """
    _require(FluxedBundle, "fluxed bundle", (fb,))
    b = fb.bundle
    if not b.is_principal:
        raise NotPrincipal(f"{b} has m*n != 0")
    m = (b if b.n == 0 else b.mirror()).m
    return _trusted(FluxedBundle, _trusted(MilnorBundle, 0, -fb.flux), m)


def correspondence_h7(m: int, j: int) -> AbelianGroup:
    """H^7 of the fiber product of the dual pair classified by m and j.

    Equals Z plus a cyclic factor of order gcd(|m|, |j|).
    """
    _require(int, "classifying integers", (m, j))
    if m == 0 and j == 0:
        raise DegenerateInput("correspondence space needs m, j not both zero")
    return AbelianGroup.from_orders(1, [gcd(abs(m), abs(j))])


def lifted_flux(m: int, j: int) -> int:
    """Common pullback of the two fluxes to the correspondence space.

    Both fluxes lift to j*m / gcd(|j|, |m|) on the free part of H^7, which
    is the consistency condition making the pair an honest dual pair.
    """
    _require(int, "classifying integers", (m, j))
    if m == 0 and j == 0:
        raise DegenerateInput("lifted flux needs m, j not both zero")
    return (j * m) // gcd(abs(j), abs(m))

"""Finite cyclic models for the homotopy-sphere groups and the circle
representation arithmetic on singularity links.

The group of smooth structures on the 7-sphere under connected sum is
cyclic of order 28; the group of homotopy products with a circle under
fiberwise regluing is modeled the same way.  Both live over a shared
GroupConfig so the order and the bilinear coefficient stay configurable:
any bilinear pairing into a cyclic group is multiplication by a constant,
and no single constant satisfies every constraint one might want to
impose on it, so it is configuration rather than a baked-in value.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd

from .brieskorn import BP8_ORDER, milnor_family
from .errors import ConfigMismatch, InvalidArgument, InvalidRep, Unreachable, _require, _trusted


@dataclass(frozen=True)
class GroupConfig:
    """Cyclic order N and the coefficient c of the bilinear pairing."""

    order: int = BP8_ORDER
    coeff: int = 1

    def __post_init__(self):
        _require(int, "group order and pairing coefficient", (self.order, self.coeff))
        if self.order < 1:
            raise InvalidArgument("group order must be >= 1")

    @property
    def coeff_coprime(self) -> bool:
        return gcd(self.coeff, self.order) == 1


DEFAULT_CONFIG = GroupConfig()


@dataclass(frozen=True)
class _Residue:
    """A residue mod N over a GroupConfig; equal only within one kind."""

    residue: int
    config: GroupConfig = DEFAULT_CONFIG

    def __post_init__(self):
        _require(int, "residue", (self.residue,))
        _require(GroupConfig, "group configuration", (self.config,))
        if not 0 <= self.residue < self.config.order:
            raise InvalidArgument(f"residue {self.residue} outside 0..{self.config.order - 1}")


class Theta7Element(_Residue):
    """A diffeomorphism class of homotopy 7-spheres, as a residue mod N."""


class Sigma8Element(_Residue):
    """A diffeomorphism class of homotopy S^7 x S^1 products, mod N."""


@dataclass(frozen=True)
class RepClass:
    """An equivalence class of circle representations q -> lambda^l q."""

    exponent: int

    def __post_init__(self):
        _require(int, "representation exponent", (self.exponent,))

    @property
    def is_orbifold(self) -> bool:
        """Whether the quotient by the representation is an orbifold: the
        fixed set of q -> lambda^l q is all of the circle exactly when l = 0.

        >>> RepClass(0).is_orbifold, RepClass(7).is_orbifold
        (False, True)
        """
        return self.exponent != 0


# The factories check their arguments and then build the reduced residue
# through `_trusted`, so one call makes one set of checks.


def theta7(value: int, config: GroupConfig = DEFAULT_CONFIG) -> Theta7Element:
    _require(int, "residue", (value,))
    _require(GroupConfig, "group configuration", (config,))
    return _trusted(Theta7Element, value % config.order, config)


def sigma8(value: int, config: GroupConfig = DEFAULT_CONFIG) -> Sigma8Element:
    _require(int, "residue", (value,))
    _require(GroupConfig, "group configuration", (config,))
    return _trusted(Sigma8Element, value % config.order, config)


def sigma33(m: int, n: int, config: GroupConfig = DEFAULT_CONFIG) -> Theta7Element:
    """Bilinear pairing of two clutching exponents into the sphere group:
    (m, n) -> m*n*c mod N."""
    _require(int, "clutching exponents", (m, n))
    _require(GroupConfig, "group configuration", (config,))
    return _trusted(Theta7Element, m * n * config.coeff % config.order, config)


def sigma_tilde8(m: int, n: int, l: int, config: GroupConfig = DEFAULT_CONFIG) -> Sigma8Element:
    """Trilinear extension picking up a circle winding: m*n*l*c mod N."""
    _require(int, "clutching exponents and winding", (m, n, l))
    _require(GroupConfig, "group configuration", (config,))
    return _trusted(Sigma8Element, m * n * l * config.coeff % config.order, config)


def compose(x, y):
    """Group law (connected sum / regluing): residue addition mod N.

    Both arguments must be of the same kind and carry the same config.
    """
    _require(_Residue, "group elements", (x, y))
    if type(x) is not type(y) or x.config != y.config:
        raise ConfigMismatch(f"cannot compose {x!r} with {y!r}")
    return _trusted(type(x), (x.residue + y.residue) % x.config.order, x.config)


def de_sapio_steps(start: Theta7Element, step: Theta7Element, target: Theta7Element) -> int:
    """Least l >= 0 with start + l*step = target, by solving the congruence.

    With g = gcd(step, N), the target is reachable exactly when g divides
    target - start, and then l is (target - start)/g times the inverse of
    step/g modulo N/g, reduced into [0, N/g).

    >>> cfg = GroupConfig(order=28)
    >>> de_sapio_steps(theta7(3, cfg), theta7(6, cfg), theta7(1, cfg))
    9
    >>> de_sapio_steps(theta7(0, cfg), theta7(2, cfg), theta7(5, cfg))
    Traceback (most recent call last):
    ...
    exotic_invariants.errors.Unreachable: 5 not reachable from 0 by steps of 2 mod 28
    """
    _require(_Residue, "group elements", (start, step, target))
    if start.config != step.config or step.config != target.config:
        raise ConfigMismatch("mismatched group configurations")
    n = start.config.order
    diff = target.residue - start.residue
    g = gcd(step.residue, n)
    if diff % g:
        raise Unreachable(
            f"{target.residue} not reachable from {start.residue} by steps of {step.residue} mod {n}"
        )
    period = n // g
    return (diff // g) * pow(step.residue // g, -1, period) % period


def fano_moduli_compose(r1: RepClass, r2: RepClass) -> RepClass:
    """Pointwise product of characters adds exponents."""
    _require(RepClass, "representations", (r1, r2))
    return _trusted(RepClass, r1.exponent + r2.exponent)


@dataclass(frozen=True)
class LinkIsotropy:
    """Isotropy data of one coordinate support on a link: the finite part
    Z_b from the weighted action and the Z_l factor from the circle rep."""

    support: tuple
    b: int
    isotropy: tuple

    def __post_init__(self):
        object.__setattr__(self, "support", _require(int, "isotropy support", self.support))
        _require(int, "isotropy order", (self.b,))
        object.__setattr__(self, "isotropy", _require(int, "isotropy", self.isotropy))


def family_weights(k: int) -> tuple:
    """Circle-action weight vector on the k-th link:
    (6, 2(6k-1), 3(6k-1), 3(6k-1), 3(6k-1))."""
    return milnor_family(k).weights_and_degree[1]


def link_isotropies(k: int, l: int) -> list:
    """Isotropy types of the torus action on link k twisted by q -> lambda^l q.

    One entry per admissible coordinate support (at least two nonzero
    coordinates; a single nonzero coordinate cannot lie on the link), with
    b the gcd of the weights over the support.  Repeated and non-coprime
    weights do occur, so b > 1 supports are genuinely present.
    """
    weights = family_weights(k)  # OutOfFamily before the l checks
    _require(int, "representation exponent", (l,))
    if l < 1:
        raise InvalidRep(f"representation exponent must be >= 1, got {l}")
    out = []
    for size in range(2, len(weights) + 1):
        for support in combinations(range(len(weights)), size):
            b = gcd(*(weights[i] for i in support))
            out.append(_trusted(LinkIsotropy, support, b, (b, l)))
    return out

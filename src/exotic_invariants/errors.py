"""Exception hierarchy shared by all modules, and the one argument check.

DomainError subclasses signal well-formed requests whose answer does not
exist (wrong bundle type, out-of-range family index, ...).  The CLI maps
them to exit status 1.  InvalidArgument signals an argument outside the
range its type or function allows; the CLI maps it, like the usage errors
of its parser, to exit status 2.  The type rule is stated once, in
`_require`: an integer argument must be an exact int (a bool passes, a
float or Fraction does not), an argument that is a library value must
be an instance of its class, and a collection of either must be iterable.
`_tuple_of` applies it to a collection that a value stores as a tuple.

Every library value has one construction rule.  Its public constructor
checks what a caller passes; a value the library builds from inputs it
has checked already goes through `_trusted`, the one bypass, and is not
checked again.
"""


def _require(kind, what, values) -> None:
    """Raise InvalidArgument unless `values` is iterable and every item of
    it is a `kind`.

    A plain loop: on CPython 3.11 it beat `all(map(isinstance, ...))` from
    one item up to 110,224, the entry count of the k = 28 family gram."""
    try:
        values = iter(values)
    except TypeError:
        raise InvalidArgument(f"{what} must be iterable, not {type(values).__name__}") from None
    for value in values:
        if not isinstance(value, kind):
            raise InvalidArgument(
                f"{what} must be of type {kind.__name__}, not {type(value).__name__}"
            )


def _tuple_of(kind, what, values) -> tuple:
    """`values` as a tuple, checked by `_require`.  It is read once, so a
    one-shot iterator is stored whole, not emptied by the check."""
    try:
        values = tuple(values)
    except TypeError:
        _require(kind, what, values)  # names a non-iterable's type
        raise
    _require(kind, what, values)
    return values


def _trusted(cls, *values):
    """An instance of the frozen dataclass `cls` with its fields, in
    declaration order, set to `values`, made without running
    `__post_init__`: the one way round the public checks, for a value the
    library builds itself and that is valid by construction.

    >>> from exotic_invariants.abelian import AbelianGroup
    >>> _trusted(AbelianGroup, 1, (2, 6)) == AbelianGroup(1, (2, 6))
    True
    """
    obj = object.__new__(cls)
    obj.__dict__.update(zip(cls.__dataclass_fields__, values))
    return obj


class InvalidArgument(ValueError):
    """Raised for arguments outside the range their type or function allows."""


class DomainError(Exception):
    """Base class for all domain-level failures."""


class NotHomotopySphere(DomainError):
    """Raised when an invariant defined only for homotopy spheres is
    requested for a bundle with |euler class| != 1."""


class NotPrincipal(DomainError):
    """Raised when a principal-bundle operation receives M_{m,n} with m*n != 0."""


class DegenerateInput(DomainError):
    """Raised when both classifying integers of a dual pair vanish."""


class OutOfFamily(DomainError):
    """Raised for family indices outside 1..28."""


class InvalidRep(DomainError):
    """Raised for circle representations with no finite generic isotropy."""


class ConfigMismatch(DomainError):
    """Raised when group elements built over different configurations
    (or of different kinds) are combined."""


class Unreachable(DomainError):
    """Raised when no number of composition steps reaches the target class."""

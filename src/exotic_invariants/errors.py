"""Exception hierarchy shared by all modules, and the one argument check.

DomainError subclasses signal well-formed requests whose answer does not
exist (wrong bundle type, out-of-range family index, ...).  The CLI maps
them to exit status 1.  InvalidArgument signals an argument outside the
range its type or function allows; the CLI maps it, like the usage errors
of its parser, to exit status 2.  The type rule is stated once, in
`_require`: an integer argument must be an exact int (a bool passes, a
float or Fraction does not), an argument that is a library value must
be an instance of its class, and a collection of either must be iterable.
`_require` returns the collection as the tuple it checked, so a value
stores what was checked, and a collection argument is read only there.

Every library value has one construction rule.  Its public constructor
checks what a caller passes; a value the library builds from inputs it
has checked already goes through `_trusted`, the one bypass, and is not
checked again.
"""


def _require(kind, what, values) -> tuple:
    """`values` as a tuple, after raising InvalidArgument unless it is
    iterable and every item of it is a `kind`.  A tuple comes back as the
    same object, and a one-shot iterator is read once.  With `kind` object
    only the iterability is checked.

    A plain loop: on CPython 3.11 it beat `all(map(isinstance, ...))` from
    one item up to 110,224, the entry count of the k = 28 family gram.

    >>> _require(int, "orders", [2, True])
    (2, True)
    >>> _require(int, "orders", 5)
    Traceback (most recent call last):
    ...
    exotic_invariants.errors.InvalidArgument: orders must be iterable: 'int' object is not iterable
    """
    try:
        values = tuple(values)
    except TypeError as err:
        raise InvalidArgument(f"{what} must be iterable: {err}") from None
    for value in values:
        if not isinstance(value, kind):
            raise InvalidArgument(
                f"{what} must be of type {kind.__name__}, not {type(value).__name__}"
            )
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

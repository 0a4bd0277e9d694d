"""Exception hierarchy shared by all modules.

DomainError subclasses signal well-formed requests whose answer does not
exist (wrong bundle type, out-of-range family index, ...).  The CLI maps
them to exit status 1.  InvalidArgument signals an argument outside the
range its type or function allows (a non-integer, an exponent below 2, a
non-integer group order or pairing coefficient, a group order below 1, an
unknown Hodge branch, a ragged matrix, a graded group that is not an
AbelianGroup, a Milnor lattice or spectrum of more than
brieskorn.MAX_ENTRIES entries); the CLI maps it, like the usage errors
of its parser, to exit status 2.
"""


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

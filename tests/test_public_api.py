"""Every public callable, given wrong-typed arguments, raises only
InvalidArgument or a DomainError subclass: no bare TypeError,
AttributeError or ZeroDivisionError escapes from inside the library, and
no call hangs on an argument it cannot read."""

import inspect
import typing
from enum import Enum
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exotic_invariants as ei
from exotic_invariants.errors import DomainError, InvalidArgument

CLASSMETHODS = (
    "from_rows", "from_diagonal", "identity", "zero", "from_orders", "free", "cyclic", "of",
    "from_entries",
)


def public_callables() -> dict:
    """The package's exported callables, by name, with the public
    classmethods as `Class.method`; exception classes and enums are left
    out, since they take any argument by design."""
    found = {}
    for name in ei.__dict__:
        obj = getattr(ei, name)
        if name.startswith("_") or not callable(obj) or inspect.ismodule(obj):
            continue
        if inspect.isclass(obj) and issubclass(obj, (BaseException, Enum)):
            continue
        found[name] = obj
        for method in CLASSMETHODS:
            if inspect.isclass(obj) and method in vars(obj):
                found[f"{name}.{method}"] = getattr(obj, method)
    return found


CALLABLES = public_callables()

# The exported functions whose one parameter is a library value, each with
# the reason it is not a property of that value.  An invariant that every
# value has and that is cheap to compute is a property (README,
# Conventions); a function of one value stays a function when it fails on
# some values, grows with its input, is the oracle route of a property, or
# is one of the two duality rules shown side by side.
ONE_VALUE_FUNCTIONS = {
    "lambda_invariant": "fails: defined on homotopy spheres only",
    "milnor_lattice": "fails and grows with the input: refuses above MAX_ENTRIES",
    "spectrum": "fails and grows with the input: refuses above MAX_ENTRIES",
    "determinant": "fails and grows with the input: square matrices only",
    "cokernel_group": "grows with the input: a Smith normal form",
    "kernel_group": "grows with the input: a Smith normal form",
    "invariant_factors": "grows with the input: a Smith normal form",
    "rank": "grows with the input: a Bareiss elimination",
    "smith_normal_form": "grows with the input: a Smith normal form",
    "gysin_cohomology": "oracle: the Gysin route that checks MilnorBundle.cohomology",
    "euler_preserving_dual": "duality rule, side by side with principal_dual",
    "principal_dual": "duality rule, side by side with euler_preserving_dual",
}

BUNDLE = ei.MilnorBundle(1, 0)
LIBRARY_VALUES = [
    ei.Z,
    BUNDLE,
    ei.FluxedBundle(BUNDLE, 1),
    ei.IntMatrix.identity(2),
    ei.BrieskornPham.of(3, 2),
    ei.milnor_lattice(ei.BrieskornPham.of(3, 2)),
    ei.GroupConfig(),
    ei.theta7(1),
    ei.sigma8(1),
    ei.RepClass(1),
    ei.sphere_cohomology(1),
    ei.HodgeDiamond.from_entries({(0, 0): 1, (4, 4): 1}),
]

# Any slot may get any of these, whatever type it expects, so a call can
# mix right-typed and wrong-typed arguments; it must still end in a
# library error or a result.  Ints stay in -3..3, so `IntMatrix.identity`
# and `IntMatrix.zero` never allocate by size.  "principal" and "unit", a
# mode and a branch name, let the calls that take them get past that slot.
ARGUMENTS = st.one_of(
    st.integers(-3, 3),
    st.sampled_from(
        [2.5, Fraction(5, 2), "3", "principal", "unit", None, [], [1, 2], [[1, 2]]]
        + LIBRARY_VALUES
    ),
)


def positional_slots(fn):
    """(least, most) number of positional arguments `fn` takes, counting
    three for a *args parameter."""
    params = inspect.signature(fn).parameters.values()
    positional = [p for p in params if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
    least = sum(p.default is p.empty for p in positional)
    if any(p.kind is p.VAR_POSITIONAL for p in params):
        return least, len(positional) + 3
    return least, len(positional)


def test_functions_of_one_library_value_have_a_reason():
    found = set()
    for name, fn in CALLABLES.items():
        if not inspect.isfunction(fn):
            continue
        params = list(inspect.signature(fn).parameters)
        kind = typing.get_type_hints(fn).get(params[0]) if len(params) == 1 else None
        if inspect.isclass(kind) and kind.__module__.startswith(f"{ei.__name__}."):
            found.add(name)
    assert found == set(ONE_VALUE_FUNCTIONS)


def test_the_sweep_covers_the_public_classmethods():
    assert {name.split(".")[1] for name in CALLABLES if "." in name} == set(CLASSMETHODS)
    assert "CanonicalType" not in CALLABLES and "InvalidArgument" not in CALLABLES


@pytest.mark.parametrize("fn", CALLABLES.values(), ids=list(CALLABLES))
def test_wrong_typed_arguments_raise_only_library_errors(fn):
    least, most = positional_slots(fn)

    @given(st.lists(ARGUMENTS, min_size=least, max_size=most))
    @settings(max_examples=10)
    def call(args):
        try:
            fn(*args)
        except (InvalidArgument, DomainError):
            pass

    call()

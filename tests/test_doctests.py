import doctest
import importlib
import pkgutil

import exotic_invariants

# Least number of examples each module's doctests must run; a module not
# listed has no minimum but is still run.
MIN_TRIED = {
    "abelian": 11,
    "brieskorn": 5,
    "bundles": 3,
    "cli": 7,
    "errors": 2,
    "groups": 4,
    "hodge": 1,
    "snf": 9,
    "tduality": 1,
}


def _doctest_of(name):
    def test():
        module = importlib.import_module(f"exotic_invariants.{name}")
        failures, tried = doctest.testmod(module)
        assert failures == 0 and tried >= MIN_TRIED.get(name, 0)

    return test


# One test per module of the package, named test_<module>_doctests.
for _module in pkgutil.iter_modules(exotic_invariants.__path__):
    globals()[f"test_{_module.name}_doctests"] = _doctest_of(_module.name)

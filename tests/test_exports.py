"""The package exports exactly the public names its modules declare."""

import carentropy
from carentropy import (
    car_algebra,
    counterexamples,
    errors,
    inequalities,
    operators,
    purification,
    states,
)

MODULES = (car_algebra, counterexamples, errors, inequalities, operators, purification, states)


def test_package_all_is_the_union_of_module_alls():
    declared = [name for module in MODULES for name in module.__all__]
    assert len(set(declared)) == len(declared)
    assert sorted(carentropy.__all__) == sorted(declared)


def test_every_exported_name_resolves_to_its_module():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(carentropy, name) is getattr(module, name), (module.__name__, name)


def test_report_and_error_types_exported():
    for name in ("ViolationReport", "CarError", "NotAStateError", "CapacityError", "ExtensionError"):
        assert name in carentropy.__all__

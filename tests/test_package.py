"""The package namespace."""

from types import ModuleType

import latticeplan


def test_all_holds_the_imported_names_only():
    exported = {name: getattr(latticeplan, name) for name in latticeplan.__all__}
    assert not [name for name, value in exported.items()
                if isinstance(value, ModuleType)]
    for name in ("verify_poset", "FiniteLattice", "load_scenario", "plan_once",
                 "LimitExceeded", "enumerate_facts", "build_game"):
        assert name in exported
    assert latticeplan.__all__ == sorted(latticeplan.__all__)

"""The package namespace and what importing it loads."""

import subprocess
import sys
from types import ModuleType

import pytest

import latticeplan

from test_cli import child_env


def test_all_holds_the_imported_names_only():
    exported = {name: getattr(latticeplan, name) for name in latticeplan.__all__}
    assert not [name for name, value in exported.items()
                if isinstance(value, ModuleType)]
    for name in ("verify_poset", "FiniteLattice", "load_scenario", "plan_once",
                 "LimitExceeded", "enumerate_facts", "build_game"):
        assert name in exported
    assert latticeplan.__all__ == sorted(latticeplan.__all__)


@pytest.mark.parametrize("module", ["latticeplan", "latticeplan.cli"])
def test_import_loads_no_dataclasses_or_inspect(module):
    """A fresh interpreter imports the package without `dataclasses` and
    `inspect`, whose import and class processing once took about a third
    of a command's start-up."""
    code = (f"import sys, {module}\n"
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=child_env(),
                         capture_output=True, text=True, timeout=60,
                         check=True).stdout
    assert out == "[]\n"

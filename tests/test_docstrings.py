"""Every cross reference in the package's source names something that exists.

A role such as :func:`series.morse_counts` or :mod:`recurrence` in a
docstring or comment under src/morsecensus/ is read first in the module
that holds it and then as a module of the package, so a reference left
behind by a rename or a deletion fails here.
"""
import importlib
import inspect
import re
from pathlib import Path

import pytest

import morsecensus

PACKAGE = Path(morsecensus.__file__).parent
ROLE = re.compile(r":(mod|func|data|class|meth):`([^`]+)`")
KIND = {
    "mod": inspect.ismodule,
    "class": inspect.isclass,
    "func": callable,
    "meth": callable,
    "data": lambda value: not callable(value),
}


def references():
    for path in sorted(PACKAGE.glob("*.py")):
        module = "morsecensus" if path.stem == "__init__" else f"morsecensus.{path.stem}"
        for match in ROLE.finditer(path.read_text()):
            yield pytest.param(module, *match.groups(), id=f"{path.stem}-{match[2]}")


def resolve(module: str, target: str):
    head, *rest = target.split(".")
    owner = importlib.import_module(module)
    found = getattr(owner, head) if hasattr(owner, head) else \
        importlib.import_module(f"morsecensus.{head}")
    for name in rest:
        found = getattr(found, name)
    return found


@pytest.mark.parametrize("module, role, target", references())
def test_reference_resolves(module, role, target):
    assert KIND[role](resolve(module, target)), f"{module}: :{role}:`{target}`"


def test_references_are_found():
    # the pattern still matches the roles the package writes
    assert {param.values[1] for param in references()} == set(KIND)

"""Every cross reference in the package's source names something that exists.

A role such as :func:`series.morse_counts` or :mod:`recurrence` in a
docstring or comment under src/morsecensus/ is read first in the module
that holds it and then as a module of the package, so a reference left
behind by a rename or a deletion fails here.  Likewise every name in a
module's `__all__`, which the benchmark's tracer wraps, exists, and no
public function or class of the module is missing from it.
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


def modules_with_all():
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"morsecensus.{path.stem}")
        if hasattr(module, "__all__"):
            yield pytest.param(module, id=path.stem)


@pytest.mark.parametrize("module", modules_with_all())
def test_all_lists_the_public_names(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
    defined = {name for name, value in vars(module).items()
               if not name.startswith("_") and getattr(value, "__module__", None) == module.__name__
               and (inspect.isfunction(value) or inspect.isclass(value))}
    assert defined <= set(module.__all__), module.__name__

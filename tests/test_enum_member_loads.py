"""No enum-class member loads in the function bodies of the hot modules.

On CPython 3.11 ``EnumType`` defines ``__getattr__``, so each
``SomeEnum.MEMBER`` load inside a function goes through the slow
attribute hook, about ten times the cost of a module-global load.  The
modules below run per I/O, per bulk transfer or per applied action, and
bind the members they read as module constants once at import.  This
scan keeps it that way.  ``__init__`` bodies and module level run once
per object or per import, and are exempt.
"""

from __future__ import annotations

import ast
import enum
import importlib
import inspect
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).parent

MODULES = sorted(
    [
        "repro.storage.enclosure",
        "repro.storage.controller",
        "repro.storage.cache",
        "repro.engine.kernel",
        "repro.faults.clock",
        "repro.actions.executor",
        *(
            f"repro.monitoring.{path.stem}"
            for path in (SRC / "monitoring").glob("*.py")
            if path.stem != "__init__"
        ),
    ]
)


def _enum_names(module: object) -> set[str]:
    """Names in ``module``'s namespace bound to ``enum.Enum`` subclasses."""
    return {
        name
        for name, value in vars(module).items()
        if inspect.isclass(value) and issubclass(value, enum.Enum)
    }


def _member_loads(tree: ast.AST, enums: set[str]) -> list[str]:
    """``line function Enum.MEMBER`` for each load inside a function body."""
    found: list[str] = []

    def walk(node: ast.AST, function: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, function or child.name)
                continue
            if (
                function is not None
                and function != "__init__"
                and isinstance(child, ast.Attribute)
                and isinstance(child.ctx, ast.Load)
                and isinstance(child.value, ast.Name)
                and child.value.id in enums
            ):
                found.append(
                    f"{child.lineno} {function} {child.value.id}.{child.attr}"
                )
            walk(child, function)

    walk(tree, None)
    return found


@pytest.mark.parametrize("module_name", MODULES)
def test_no_enum_member_load_in_function_bodies(module_name: str) -> None:
    module = importlib.import_module(module_name)
    source = Path(inspect.getfile(module)).read_text(encoding="utf-8")
    loads = _member_loads(ast.parse(source), _enum_names(module))
    assert not loads, (
        f"{module_name} reads enum members off the class in a function "
        "body; bind them as module constants: " + "; ".join(loads)
    )


def test_scan_flags_a_member_load() -> None:
    tree = ast.parse(
        "class C:\n"
        "    def __init__(self):\n"
        "        self.s = E.A\n"
        "    def f(self):\n"
        "        def g():\n"
        "            return E.B\n"
        "        return g() is E.A or x.A\n"
        "X = E.A\n"
    )
    assert _member_loads(tree, {"E"}) == ["6 f E.B", "7 f E.A"]

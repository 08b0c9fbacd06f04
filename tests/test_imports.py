"""Import hygiene: every name a library module imports is used in that module.

``__init__.py`` re-exports its imports through ``__all__`` and is skipped, as
are ``from __future__`` imports.  Names inside quoted annotations count as used.
"""

import ast
from pathlib import Path

import pytest

import zprs

MODULES = sorted(p for p in Path(zprs.__file__).parent.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def used_names(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            for quoted in ast.walk(ann) if ann else ():     # "LinearCode", list["Poly"]
                if isinstance(quoted, ast.Constant) and isinstance(quoted.value, str):
                    names |= used_names(ast.parse(quoted.value, mode="eval"))
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = sorted(set(imported_names(tree)) - used_names(tree))
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_the_walk_sees_an_unused_import():
    tree = ast.parse("from __future__ import annotations\nimport numpy as np\n"
                     "from .words import BlockProfile, as_unit\n"
                     "def f(x: list['BlockProfile']) -> int:\n    return np.sum(x)\n")
    assert set(imported_names(tree)) - used_names(tree) == {"as_unit"}

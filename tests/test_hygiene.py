"""Source hygiene: no module of the package imports a name it never uses,
so a deletion cannot leave a dead import behind."""

import ast
from pathlib import Path

import pytest

import param_workbench

PACKAGE = Path(param_workbench.__file__).resolve().parent
# __init__ imports only to re-export
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read as a name."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = ("from __future__ import annotations\n"
              "import os, re\n"
              "from x import y as z\n"
              "re.sub('a', 'b', 'c')\n")
    assert unused_imports(source) == ["os", "z"]

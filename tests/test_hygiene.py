"""Source hygiene: no module of the package imports a name it never uses,
so a deletion cannot leave a dead import behind, and no class writes its
own __eq__ or __hash__, so finmodel.hash_cons stays the one identity
mechanism.  Nothing sorts by repr but rgalg._rkey, so ordering goes
through the one key that reads hash_cons's cached repr.  fibration
builds relation morphisms only where NatRep forces a level-1 component
and in epsilon_of, so every transformation's level 1 has one source.
Interned records are built by hash_cons alone, not by dataclass code
generation."""

import ast
import os
import subprocess
import sys
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


def hand_written_identity(source: str) -> list[str]:
    """Class.method for each __eq__ or __hash__ defined in a class body."""
    return [f"{node.name}.{f.name}"
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ClassDef)
            for f in node.body
            if isinstance(f, ast.FunctionDef) and f.name in ("__eq__", "__hash__")]


@pytest.mark.parametrize("module", MODULES)
def test_no_class_writes_its_own_equality(module):
    assert hand_written_identity((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_a_hand_written_equality_is_found():
    source = ("class A:\n"
              "    def __eq__(self, other):\n"
              "        return True\n"
              "    def __hash__(self):\n"
              "        return 0\n"
              "def __eq__(a, b):\n"
              "    return a is b\n"
              "class B:\n"
              "    def __repr__(self):\n"
              "        return 'B'\n")
    assert hand_written_identity(source) == ["A.__eq__", "A.__hash__"]


def repr_sort_keys(source: str, allowed: frozenset = frozenset()) -> list[int]:
    """Lines of sorted/min/max/.sort calls whose key shows a value with
    repr, directly or through a function of the module not in allowed."""
    tree = ast.parse(source)

    def shows(node) -> bool:
        return any(isinstance(n, ast.Name) and n.id == "repr"
                   or isinstance(n, ast.FormattedValue) and n.conversion == ord("r")
                   for n in ast.walk(node))

    # a function shows what it returns; a repr in its error message is no key
    showing = {f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
               and f.name not in allowed
               and any(isinstance(r, ast.Return) and r.value and shows(r.value)
                       for r in ast.walk(f))}
    return [call.lineno for call in ast.walk(tree)
            if isinstance(call, ast.Call)
            and (getattr(call.func, "id", None) in ("sorted", "min", "max")
                 or getattr(call.func, "attr", None) == "sort")
            for kw in call.keywords
            if kw.arg == "key" and (shows(kw.value) or any(
                isinstance(n, ast.Name) and n.id in showing
                for n in ast.walk(kw.value)))]


@pytest.mark.parametrize("module", MODULES)
def test_only_the_rank_key_sorts_by_repr(module):
    allowed = frozenset({"_rkey"} if module == "rgalg.py" else ())
    source = (PACKAGE / module).read_text(encoding="utf-8")
    assert repr_sort_keys(source, allowed) == []


def test_a_repr_sort_key_is_found():
    source = ("def show(x):\n"
              "    return repr(x)\n"
              "def _rkey(x):\n"
              "    return repr(x)\n"
              "def size(x):\n"
              "    if x is None:\n"
              "        raise TypeError(f'{x!r}')\n"
              "    return len(x)\n"
              "a = sorted(xs, key=repr)\n"
              "b = sorted(xs, key=lambda x: (len(x), repr(x)))\n"
              "xs.sort(key=show)\n"
              "c = min(xs, key=lambda x: f'{x!r}')\n"
              "d = sorted(xs, key=_rkey)\n"
              "e = sorted(xs, key=size, reverse=True)\n"
              "print(repr(xs), f'{xs!r}')\n")
    assert repr_sort_keys(source, frozenset({"_rkey"})) == [9, 10, 11, 12]


def relation_morphism_builders(source: str) -> list[str]:
    """The enclosing function, as Class.method or outer.inner (or
    <module>), of each call to PropRelMor or try_rel_mor."""
    out = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                f = child.func
                if getattr(f, "id", getattr(f, "attr", None)) in ("PropRelMor",
                                                                  "try_rel_mor"):
                    out.append(".".join(scope) or "<module>")
            inner = (scope + [child.name] if isinstance(
                child, (ast.ClassDef, ast.FunctionDef)) else scope)
            walk(child, inner)

    walk(ast.parse(source), [])
    return out


def test_fibration_forces_every_level_one_component_in_one_place():
    source = (PACKAGE / "fibration.py").read_text(encoding="utf-8")
    assert sorted(set(relation_morphism_builders(source))) == [
        "NatRep._forced", "epsilon_of"]


def test_a_relation_morphism_builder_is_found():
    source = ("class NatRep:\n"
              "    def _forced(self, env):\n"
              "        return try_rel_mor(a, b, f, g)\n"
              "def epsilon_of(f) -> PropRelMor:\n"
              "    return PropRelMor(a, b, c, d)\n"
              "def pair(m):\n"
              "    def comp(env):\n"
              "        return fm.PropRelMor(a, b, c, d)\n"
              "    return comp\n"
              "x = try_rel_mor(1, 2, 3, 4)\n"
              "y = PropRelMor\n")
    assert relation_morphism_builders(source) == [
        "NatRep._forced", "epsilon_of", "pair.comp", "<module>"]


def test_importing_the_package_generates_only_the_plain_dataclasses():
    # in a fresh interpreter, so every module is imported here
    script = ("import dataclasses\n"
              "made = []\n"
              "real = dataclasses._process_class\n"
              "def count(cls, *args, **kwargs):\n"
              "    made.append(cls)\n"
              "    return real(cls, *args, **kwargs)\n"
              "dataclasses._process_class = count\n"
              "import param_workbench\n"
              "from param_workbench import finmodel\n"
              "interned = [c for c in finmodel._SHOWN if dataclasses.is_dataclass(c)]\n"
              "print(len(made), len(finmodel._SHOWN), len(interned))\n")
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                         os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, timeout=120, check=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.split() == ["17", "35", "0"]

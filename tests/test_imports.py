"""Every name a braidalg module imports is used in that module (the
package's `__init__.py` is left out: its imports are re-exports, and
`__all__` lists exactly those), and every private top-level function or
class is used in its module."""

import ast
from pathlib import Path

import braidalg

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "braidalg"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


def test_unused_imports_are_found():
    source = "import os\nfrom math import gcd, lcm\nprint(gcd(4, 6))\n"
    assert unused_imports(source) == ["os (line 1)", "lcm (line 2)"]


def test_no_unused_imports_in_braidalg():
    modules = sorted(p for p in PACKAGE.glob("*.py")
                     if p.name != "__init__.py")
    assert modules
    found = {p.name: unused_imports(p.read_text(encoding="utf-8"))
             for p in modules}
    assert {name: names for name, names in found.items() if names} == {}


def unreferenced_private_names(source: str) -> list[str]:
    """Top-level functions and classes named with one leading underscore
    that no code of the module refers to outside their own definition."""
    tree = ast.parse(source)
    private = [node for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.ClassDef))
               and node.name.startswith("_") and not node.name.endswith("__")]
    out = []
    for node in private:
        own = {id(n) for n in ast.walk(node)}
        if not any(isinstance(n, ast.Name) and n.id == node.name
                   and id(n) not in own for n in ast.walk(tree)):
            out.append(f"{node.name} (line {node.lineno})")
    return out


def test_unreferenced_private_names_are_found():
    source = ("def _used():\n    return 1\n"
              "def _unused():\n    return _used()\n"
              "def _recursive(n):\n    return _recursive(n - 1)\n"
              "class _Alone:\n    pass\n"
              "def __getattr__(name):\n    raise AttributeError(name)\n")
    assert unreferenced_private_names(source) == [
        "_unused (line 3)", "_recursive (line 5)", "_Alone (line 7)"]


def test_no_unreferenced_private_names_in_braidalg():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = {p.name: unreferenced_private_names(p.read_text(encoding="utf-8"))
             for p in modules}
    assert {name: names for name, names in found.items() if names} == {}


def test_all_lists_exactly_the_reexports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert sorted(braidalg.__all__) == sorted(imported)

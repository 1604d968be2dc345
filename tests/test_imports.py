"""Every name a braidalg module imports is used in that module.  The
package's `__init__.py` is left out: its imports are re-exports."""

import ast
from pathlib import Path

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

"""Every name a program module imports is used in that module, and every
private helper is used somewhere in the package.

``__init__.py`` is exempt from the import check: its imports are the
package's public API.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "robustci"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree) -> dict:
    """Bound name -> line of every import outside ``from __future__``."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree) -> set:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = used_names(tree)
    unused = sorted(
        f"{name} (line {line})" for name, line in imported_names(tree).items() if name not in used
    )
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def private_helpers(trees) -> dict:
    """(module, name) -> definition node of every ``_name`` function or method."""
    return {
        (path.name, node.name): node
        for path, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_") and not node.name.endswith("__")
    }


def references(tree) -> list:
    """Every name and attribute read or imported in a syntax tree."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append(node.id)
        elif isinstance(node, ast.Attribute):
            out.append(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.extend(alias.name for alias in node.names)
    return out


def test_every_private_helper_is_used():
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}
    everywhere = [name for tree in trees.values() for name in references(tree)]
    helpers = private_helpers(trees)
    dead = sorted(
        f"{module}:{node.lineno} {name}"
        for (module, name), node in helpers.items()
        if everywhere.count(name) == references(node).count(name)
    )
    assert not dead, f"private helpers referenced only in their own definition: {dead}"
    assert len(helpers) > 20


def test_modules_found():
    assert {"cli.py", "decomp.py", "polyengine.py"} <= {p.name for p in MODULES}

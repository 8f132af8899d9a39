"""Every module of the package uses each name it imports.

The repository runs no linter, so an import left behind when the code that
used it goes is caught here. A name listed in a module's `__all__` counts as
used: that is how the package re-exports its API.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "streamsad"


def unused_imports(source: str) -> list:
    """Names the source imports (at any depth) and never mentions again."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= {ast.literal_eval(element) for element in node.value.elts}
    return sorted(imported - used)


def test_guard_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os\nimport scipy.linalg\nfrom x import a, b as c\n" \
             "__all__ = ['a']\nscipy.linalg.eigh(c)\n"
    assert unused_imports(source) == ["os"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_uses_every_import(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []

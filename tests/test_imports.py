"""Every module of the package uses each name it imports, none imports scipy,
none calls einsum, only embeddings names float32, and only features calls
FeatureConfig().

The repository runs no linter, so an import left behind when the code that
used it goes is caught here. scipy is a test-only dependency (the tests'
oracles use it); the package runs on numpy alone.
Projections of rows go through `features.row_products`, the one
batch-invariant product; einsum would be a second way to write it. float32
belongs to the MLP's training SGD alone: everything else, detection included,
runs in float64, and a float32 anywhere else would reach it unnoticed.
The front end is made in one place: features builds the one FeatureConfig,
FRONT_END, and every other module reads that instance.
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
    return sorted(imported - used)


def test_guard_finds_an_unused_import():
    # a name in __all__ is a string, not a use
    source = "from __future__ import annotations\nimport os\nimport scipy.linalg\nfrom x import a, b as c\n" \
             "__all__ = ['a']\nscipy.linalg.eigh(c)\n"
    assert unused_imports(source) == ["a", "os"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_uses_every_import(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def imported_modules(source: str) -> set:
    """Top-level names of the modules the source imports, at any depth."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_guard_finds_a_scipy_import():
    source = "import numpy as np\ndef f():\n    from scipy.linalg import eigh\n    import scipy.special\n" \
             "from . import gmm\n"
    assert imported_modules(source) == {"numpy", "scipy"}


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_does_not_import_scipy(module):
    assert "scipy" not in imported_modules((PACKAGE / module).read_text(encoding="utf-8"))


def name_uses(source: str, wanted: str) -> list:
    """Line numbers where the source names wanted: an attribute, a bare name,
    an imported name or a whole string such as getattr's or a dtype's."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.alias):
            name = node.name.split(".")[-1]
        elif isinstance(node, ast.Constant):
            name = node.value
        else:
            continue
        if name == wanted:
            lines.append(node.lineno)
    return sorted(lines)


def test_guard_finds_einsum():
    source = "import numpy as np\nfrom numpy import einsum as e\n\ndef f(a, b):\n" \
             "    return np.einsum('ij,kj->ik', a, b) @ getattr(np, 'einsum')(a, b)\n" \
             "g = einsum\n# einsum in a comment is fine\nh = 'an einsum in a sentence is fine'\n"
    assert name_uses(source, "einsum") == [2, 5, 5, 6]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_does_not_call_einsum(module):
    assert name_uses((PACKAGE / module).read_text(encoding="utf-8"), "einsum") == []


def test_guard_finds_float32():
    source = '"""Docs may say float32."""\nimport numpy as np\nfrom numpy import float32\n\n' \
             'def f(a):\n    return a.astype(np.float32) + np.zeros(2, dtype="float32")\n' \
             'g = float32\nh = "a float32 in a sentence is fine"\n'
    assert name_uses(source, "float32") == [3, 6, 6, 7]
    assert name_uses((PACKAGE / "embeddings.py").read_text(encoding="utf-8"), "float32")


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "embeddings.py"))
def test_only_embeddings_names_float32(module):
    assert name_uses((PACKAGE / module).read_text(encoding="utf-8"), "float32") == []


def calls_of(source: str, wanted: str) -> list:
    """Line numbers where the source calls wanted, by its bare name or as an
    attribute."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == wanted:
                lines.append(node.lineno)
    return sorted(lines)


def test_guard_finds_a_feature_config_call():
    source = "from .features import FRONT_END, FeatureConfig\nfrom . import features\n\n" \
             "def f(cfg: FeatureConfig = FRONT_END):\n    return FeatureConfig() == features.FeatureConfig()\n" \
             "g = FeatureConfig\n# FeatureConfig() in a comment is fine\nh = 'FeatureConfig() in a string is fine'\n"
    assert calls_of(source, "FeatureConfig") == [5, 5]
    assert calls_of((PACKAGE / "features.py").read_text(encoding="utf-8"), "FeatureConfig")


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "features.py"))
def test_only_features_calls_feature_config(module):
    assert calls_of((PACKAGE / module).read_text(encoding="utf-8"), "FeatureConfig") == []

"""Every name a palnet module imports is used in that module, and every
top-level function and class is referred to somewhere in the package.

No linter ships with the toolchain, so this walks each module's syntax tree
with the standard library.  `__init__.py` is left out of the import check: it
imports to re-export.
"""

import ast
from pathlib import Path

import pytest

import palnet

PACKAGE = Path(palnet.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_checker_finds_an_unused_import():
    assert unused_imports("import os\nimport sys\nprint(sys.argv)\n") == ["line 1: os"]
    assert unused_imports("from a import b as c, d\nprint(c)\n") == ["line 1: d"]
    assert unused_imports("import os.path\nos.path.join\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unreferenced_defs(sources: dict[str, str]) -> list[str]:
    """Top-level functions and classes of the given modules (file name -> source)
    that no name or attribute in any of them refers to."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return [f"{name}: {node.name}" for name, tree in sorted(trees.items()) for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in used]


def test_checker_finds_an_unreferenced_def():
    sources = {"a.py": "def f(): pass\ndef g(): pass\nclass C: pass\n",
               "b.py": "from a import f, g\nimport a\nf()\na.C\n"}
    assert unreferenced_defs(sources) == ["a.py: g"]


def test_every_def_is_referenced():
    # mask_landmark_patches has no caller in src/ on purpose: tests use it to
    # guard the dataset
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert unreferenced_defs(sources) == ["data.py: mask_landmark_patches"]

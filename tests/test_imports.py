"""Every name a palnet module imports is used in that module, and every
top-level function and class is reachable from the command line's entry
point, the package's exports or a module's import-time code.

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


def unreachable_defs(sources: dict[str, str], roots: set[str]) -> list[str]:
    """Top-level functions and classes of the given modules (file name ->
    source) that no code reachable from the defs named in `roots` refers to.

    Every other top-level statement runs on import, so the walk starts there
    too, except a call whose first argument is a string, such as
    ``_register("add", ...)``: that registration is reached only once reached
    code mentions its string, as `add` does in ``_apply("add", ...)``.  So
    two ops whose public functions are referred to only from each other's
    registered rules are flagged, not kept alive by their registrations."""
    defs, keyed, todo = {}, {}, []
    for name, source in sources.items():
        for node in ast.parse(source).body:
            first = node.value.args[0] if (isinstance(node, ast.Expr) and
                                           isinstance(node.value, ast.Call) and
                                           node.value.args) else None
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append((name, node))
            elif isinstance(first, ast.Constant) and isinstance(first.value, str):
                keyed.setdefault(first.value, []).append(node)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                todo.append(node)
    todo += [node for root in roots for _, node in defs.get(root, [])]
    reached = set(roots)
    while todo:
        for sub in ast.walk(todo.pop()):
            if isinstance(sub, ast.Constant) and sub.value in keyed:
                todo += keyed.pop(sub.value)
            ref = sub.id if isinstance(sub, ast.Name) else getattr(sub, "attr", None)
            if ref in defs and ref not in reached:
                reached.add(ref)
                todo += [node for _, node in defs[ref]]
    return sorted(f"{file}: {name}" for name, found in defs.items() if name not in reached
                  for file, _ in found)


def test_checker_finds_an_unreferenced_def():
    sources = {"a.py": "def f(): pass\ndef g(): pass\nclass C: pass\ndef h(): g()\n",
               "b.py": "from a import f, g\nimport a\ndef main():\n    f()\n    a.C\n"}
    assert unreachable_defs(sources, {"main"}) == ["a.py: g", "a.py: h"]


def test_checker_sees_through_a_registration_cycle():
    # pad and crop refer to each other only through their registered rules,
    # and nothing reached calls either of them
    source = """
def _register(kind, rule): pass
def _apply(kind): pass
def neg(x): return _apply("neg")
def pad(x): return _apply("pad")
def crop(x): return _apply("crop")
def _vjp_neg(g): return neg(g)
def _vjp_pad(g): return crop(g)
def _vjp_crop(g): return pad(g)
_register("neg", _vjp_neg)
_register("pad", _vjp_pad)
_register("crop", _vjp_crop)
def main(x): return neg(x)
"""
    assert unreachable_defs({"a.py": source}, {"main"}) == [
        "a.py: _vjp_crop", "a.py: _vjp_pad", "a.py: crop", "a.py: pad"]


def test_every_def_is_referenced():
    # from the command line's entry point and the package's exports;
    # mask_landmark_patches has no caller in src/ on purpose: tests use it
    # to guard the dataset
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert unreachable_defs(sources, {"main"} | set(palnet.__all__)) == [
        "data.py: mask_landmark_patches"]

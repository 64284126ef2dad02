"""Static checks: no module of the package imports a name it never uses, and
no private helper of the package survives only for tests."""

import ast
from pathlib import Path

import objreg

PACKAGE = Path(objreg.__file__).resolve().parent

# (module, name) -> why the unused import stays
ALLOWED = {
    ("matching", "kabsch_filter"): (
        "bench/tracing.py counts kabsch_filter calls by patching this module "
        "attribute; it goes once the tracer no longer patches lookup sites"
    ),
}


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports of ``source`` that no expression reads and
    ``__all__`` does not list, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_detects_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os, numpy as np\n"
        "from .a import b, c as d\n"
        "__all__ = ['b']\n"
        "x = np.zeros(3)\n"
    )
    assert unused_imports(source) == ["os", "d"]


def test_no_unused_imports_in_package():
    """``__init__`` is skipped: its imports are the package's public API."""
    unused = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem != "__init__":
            unused.update((path.stem, name) for name in unused_imports(path.read_text()))
    assert sorted(unused - ALLOWED.keys()) == []
    assert sorted(ALLOWED.keys() - unused) == []  # no stale allowance


def unread_private_helpers(sources: dict[str, str]) -> list[tuple[str, str]]:
    """``(module, name)`` of each module-level private function or class in
    ``sources`` (module name -> source) that no other top-level statement
    reads, in its own module or through a relative import of it."""
    helpers, read = set(), set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            own = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
            if own and own.startswith("_") and not own.startswith("__"):
                helpers.add((module, own))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id != own:
                    read.add((module, node.id))
                elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                    read.update((node.module, a.name) for a in node.names)
    return sorted(helpers - read)


def test_detects_unread_private_helpers():
    sources = {
        "a": (
            "def _called(): pass\n"
            "def _recursive(n): return _recursive(n - 1)\n"
            "class _Imported: pass\n"
            "def _tests_only(): pass\n"
            "def __dunder__(): pass\n"
            "def public(): return _called()\n"
        ),
        "b": "from .a import _Imported\nX = _Imported\n",
    }
    assert unread_private_helpers(sources) == [("a", "_recursive"), ("a", "_tests_only")]


def test_no_private_helper_only_for_tests():
    sources = {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}
    assert unread_private_helpers(sources) == []

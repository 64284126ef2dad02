"""Static check: no module of the package imports a name it never uses."""

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

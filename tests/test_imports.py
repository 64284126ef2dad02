"""Static checks: no module of the package imports a name it never uses, no
private helper of the package survives only for tests, no defaulted
parameter of the package is one that no caller sets, and importing the
package loads no heavy scipy submodule."""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import objreg

PACKAGE = Path(objreg.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]

# (module, name) -> why the unused import stays
ALLOWED = {
    ("matching", "kabsch_filter"): (
        "bench/tracing.py counts kabsch_filter calls by patching this module "
        "attribute; it goes once the tracer no longer patches lookup sites"
    ),
    ("joint_solver", "match_pair"): (
        "bench/tracing.py patches this module attribute as a lookup site of "
        "match_pair, which register_pair no longer calls: its pair is matched "
        "by build_problems through match_pairs"
    ),
    ("joint_solver", "kabsch_filter"): (
        "bench/tracing.py patches this module attribute as a lookup site of "
        "kabsch_filter, which build_problem no longer calls: its keypoints are "
        "filtered by build_problems through kabsch_filter_sets"
    ),
    ("joint_solver", "icp_refine"): (
        "bench/tracing.py patches this module attribute as a lookup site of "
        "icp_refine, which icp_polish no longer calls: it refines every pair "
        "through icp_refine_sets"
    ),
    ("posegraph", "register_pair"): (
        "bench/tracing.py patches this module attribute as a lookup site of "
        "register_pair, which register_sequence no longer calls; it goes once "
        "the tracer wraps gauss_newton_solve_batch instead"
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


def test_bench_tracer_sites_resolve():
    """Every function bench/tracing.py wraps is still an attribute of its
    home module, and the same function is still an attribute of each module
    it patches as a lookup site: a refactor that drops one would make
    ``bench/run.py --trace 1`` fail."""
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for name, (home, attr, sites) in tracing.WRAPPED.items():
        fn = getattr(home, attr, None)
        if fn is None:
            missing.append((name, home.__name__))
        missing += [(name, mod.__name__) for mod in sites if getattr(mod, attr, None) is not fn]
    assert missing == []


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


# (module, function, parameter) -> why the parameter stays unset by callers
ALLOWED_DEFAULTS = {
    ("cli", "main", "argv"): (
        "the console script calls main() with no arguments; tests pass argv"
    ),
}


def unset_defaults(definitions: dict[str, str], callers: list[str]) -> list[tuple[str, str, str]]:
    """``(module, function, parameter)`` of each defaulted parameter of a
    module-level function in ``definitions`` (module name -> source) that no
    call in the ``callers`` sources passes, by keyword or by position. Calls
    are matched to functions by name alone."""
    params = {}  # (module, function, parameter) -> position, None if keyword-only
    for module, source in definitions.items():
        for stmt in ast.parse(source).body:
            if not isinstance(stmt, ast.FunctionDef):
                continue
            args = stmt.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            for k, arg in enumerate(positional[first:], first):
                params[(module, stmt.name, arg.arg)] = k
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    params[(module, stmt.name, arg.arg)] = None
    passed = set()  # (function, keyword or position)
    for source in callers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                passed.update((name, kw.arg) for kw in node.keywords)
                passed.update((name, k) for k in range(len(node.args)))
    return sorted(
        (module, func, arg)
        for (module, func, arg), k in params.items()
        if (func, arg) not in passed and (k is None or (func, k) not in passed)
    )


def test_detects_unset_defaults():
    definitions = {
        "a": (
            "def f(x, y=1, z=2, *, k=3, m=4): pass\n"
            "def g(p=0): pass\n"
            "def _h(q=0): pass\n"
            "class C:\n"
            "    def method(self, r=1): pass\n"
        ),
    }
    callers = ["f(0, 1)\nobj.f(0, m=5)\n", "_h(q=1)\n"]
    assert unset_defaults(definitions, callers) == [
        ("a", "f", "k"), ("a", "f", "z"), ("a", "g", "p"),
    ]


def test_no_parameter_that_no_caller_sets():
    """Every defaulted parameter of a package function is passed somewhere in
    the package, the demos or the benchmark; tests do not count as callers."""
    definitions = {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}
    paths = [*PACKAGE.glob("*.py"), *(ROOT / "demos").glob("*.py"), *(ROOT / "bench").glob("*.py")]
    callers = [path.read_text() for path in paths]
    unset = unset_defaults(definitions, callers)
    assert sorted(set(unset) - ALLOWED_DEFAULTS.keys()) == []
    assert sorted(ALLOWED_DEFAULTS.keys() - set(unset)) == []  # no stale allowance


# scipy submodules that ``import objreg`` must not load: each would add to
# the resident memory of every process that imports the package
# (scipy.optimize ~11 MB, imported by ``matching.hungarian`` on first call;
# scipy.spatial ~8 MB and ~50 ms, imported by ICP, ``synth.overlap`` and the
# TUM reader and writer on first call)
HEAVY_SUBMODULES = ("scipy.optimize", "scipy.sparse.csgraph", "scipy.spatial")


def test_import_footprint():
    code = (
        "import sys, objreg\n"
        f"print(*[m for m in {HEAVY_SUBMODULES!r} if m in sys.modules])\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == []

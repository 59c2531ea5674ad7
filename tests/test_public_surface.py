"""The package's public surface.

Three checks, run together in one fresh interpreter (this file run as a
script), so the import walk leaves the test process alone:

* every ``repro`` module imports first: each import starts with every
  ``repro`` module purged from ``sys.modules``, so an import cycle that
  breaks only when one of its modules is loaded first fails here;
* every module that defines a public name declares ``__all__``, and
  every entry is bound at the module's top level;
* every ``__all__`` entry a module defines is imported somewhere in
  ``src/``, ``tests/``, ``benchmarks/`` or ``examples/``.  Entries that
  re-export a name (the ``__init__`` facades) are exempt: the facade's
  own import keeps the definition alive.

The last two only read source.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
#: An import anywhere under these keeps an ``__all__`` entry alive.
USAGE_DIRS = ("src", "tests", "benchmarks", "examples")


def _modules() -> dict[str, Path]:
    """Dotted name -> source file, for every module of the package."""
    modules = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        modules[".".join(parts[:-1] if parts[-1] == "__init__" else parts)] = path
    return modules


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _all_value(tree: ast.Module) -> ast.expr | None:
    """The value assigned to ``__all__`` at module level, if any."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return node.value
    return None


def _literal_all(tree: ast.Module) -> list[str] | None:
    """The names of a literal ``__all__``; None when absent or computed."""
    value = _all_value(tree)
    if isinstance(value, (ast.List, ast.Tuple)) and all(
        isinstance(e, ast.Constant) and isinstance(e.value, str) for e in value.elts
    ):
        return [e.value for e in value.elts]
    return None


def _bindings(body: list[ast.stmt]) -> set[str]:
    """Names a statement list binds at module level, guarded blocks included."""
    bound: set[str] = set()
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names if a.name != "*")
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
        elif isinstance(node, (ast.If, ast.Try)):
            blocks = [node.body, node.orelse, *(h.body for h in getattr(node, "handlers", []))]
            for block in [*blocks, getattr(node, "finalbody", [])]:
                bound |= _bindings(block)
    return bound


def _definitions(tree: ast.Module) -> set[str]:
    """Names the module itself defines: defs, classes and assignments."""
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            defined.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            defined.add(node.target.id)
    return defined


def _usage(tree: ast.Module) -> tuple[set[str], set[str]]:
    """(dotted names a file imports or references, modules it star-imports)."""
    imports: dict[str, str] = {}
    stars: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imports[a.asname or a.name.split(".")[0]] = a.name if a.asname else a.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            for a in node.names:
                if a.name == "*":
                    stars.add(node.module)
                else:
                    imports[a.asname or a.name] = f"{node.module}.{a.name}"
    uses = set(imports.values())
    for node in ast.walk(tree):
        attrs = []
        while isinstance(node, ast.Attribute):
            attrs.append(node.attr)
            node = node.value
        if attrs and isinstance(node, ast.Name) and node.id in imports:
            uses.add(".".join([imports[node.id], *reversed(attrs)]))
    return uses, stars


def import_failures() -> list[str]:
    failures = []
    for name in _modules():
        for loaded in [m for m in sys.modules if m == "repro" or m.startswith("repro.")]:
            del sys.modules[loaded]
        try:
            importlib.import_module(name)
        except Exception as exc:  # each failure is reported by the test below
            failures.append(f"{name}: {type(exc).__name__}: {exc}")
    return failures


def export_drift() -> list[str]:
    problems = []
    for name, path in _modules().items():
        if path.name.startswith("_") and path.name != "__init__.py":
            continue
        tree = _parse(path)
        if _all_value(tree) is None:
            if any(
                isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and not n.name.startswith("_")
                for n in tree.body
            ):
                problems.append(f"{name}: defines public names but no __all__")
            continue
        exports = _literal_all(tree)
        if exports is None:
            continue  # a computed __all__ cannot be read from source
        bound = _bindings(tree.body)
        problems += [f"{name}.{e}: in __all__ but not bound" for e in exports if e not in bound]
    return problems


def dead_exports() -> list[str]:
    used: set[str] = set()
    stars: set[str] = set()
    for directory in USAGE_DIRS:
        for path in sorted((REPO / directory).rglob("*.py")):
            uses, starred = _usage(_parse(path))
            stars |= starred
            for dotted in uses:
                parts = dotted.split(".")
                used.update(".".join(parts[:i]) for i in range(1, len(parts) + 1))
    dead = []
    for name, path in _modules().items():
        tree = _parse(path)
        exports = _literal_all(tree)
        if exports is None or name in stars:
            continue
        defined = _definitions(tree)
        dead += [f"{name}.{e}" for e in exports if e in defined and f"{name}.{e}" not in used]
    return dead


if __name__ == "__main__":
    report = {
        "imports": import_failures(),
        "export-drift": export_drift(),
        "dead-export": dead_exports(),
    }
    print(json.dumps(report))


@pytest.fixture(scope="module")
def report() -> dict[str, list[str]]:
    proc = subprocess.run(
        [sys.executable, __file__],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_every_module_imports_first(report):
    assert report["imports"] == []


def test_every_all_is_declared_and_bound(report):
    assert report["export-drift"] == []


def test_every_export_is_imported_somewhere(report):
    assert report["dead-export"] == [], "delete it, use it, or drop it from __all__"

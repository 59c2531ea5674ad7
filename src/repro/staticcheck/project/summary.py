"""Per-module fact extraction for whole-program analysis.

A :class:`ModuleSummary` is everything the project rules need to know
about one module — resolved imports, import-graph edges, ``__all__``
exports, statically known callable signatures, call sites, taint facts
and suppression directives — extracted from one parsed tree.  Nothing in
this module touches other modules: all cross-module reasoning lives in
:mod:`repro.staticcheck.project.graph` and the project rules.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.staticcheck.suppressions import Directive, parse_directives

__all__ = [
    "ModuleSummary",
    "SignatureInfo",
    "TAINT_SOURCES",
    "build_import_table",
    "build_summary",
    "module_name_for_path",
]

#: Calls whose return value is non-replayable (hidden global RNG state or
#: the wall clock); the tainted-persistence rule tracks values derived
#: from these across module boundaries.
TAINT_SOURCES = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "random.random",
        "random.randint",
        "random.uniform",
        "random.choice",
        "random.choices",
        "random.sample",
        "random.gauss",
        "random.randrange",
        "random.getrandbits",
        "numpy.random.rand",
        "numpy.random.randn",
        "numpy.random.random",
        "numpy.random.randint",
        "numpy.random.choice",
        "numpy.random.normal",
        "numpy.random.uniform",
        "numpy.random.permutation",
    }
)

#: Unseeded ``default_rng()`` is a taint source only when called bare.
_SEEDABLE_FACTORY = "numpy.random.default_rng"

def module_name_for_path(path: Path) -> tuple[str, bool]:
    """Dotted module name for a file, plus whether it is a package init.

    The package root is found by walking up while ``__init__.py`` exists,
    so ``src/repro/core/server.py`` maps to ``repro.core.server`` without
    any configuration.  Files outside any package map to their bare stem.
    """
    path = Path(path).resolve()
    is_package = path.name == "__init__.py"
    parts: list[str] = [] if is_package else [path.stem]
    current = path.parent
    while (current / "__init__.py").is_file():
        parts.insert(0, current.name)
        parent = current.parent
        if parent == current:  # filesystem root
            break
        current = parent
    return ".".join(parts), is_package


def resolve_relative(module_name: str, is_package: bool, level: int, target: str | None) -> str | None:
    """Absolute dotted name for a ``from ...x import`` statement.

    Returns ``None`` when the relative import climbs above the package
    root (a real ImportError at runtime, and nothing we can resolve).
    """
    if not module_name:
        return None
    base = module_name.split(".")
    if not is_package:
        base = base[:-1]
    drop = level - 1
    if drop > len(base):
        return None
    if drop:
        base = base[:-drop]
    if target:
        base = base + target.split(".")
    return ".".join(base) if base else None


def build_import_table(tree: ast.Module, module_name: str = "", is_package: bool = False) -> dict[str, str]:
    """Local name -> fully qualified origin, for every import in the tree.

    ``import numpy as np`` maps ``np -> numpy``; ``from numpy.random
    import default_rng as rng`` maps ``rng -> numpy.random.default_rng``.
    Relative imports (``from .encoder import FeatureEncoder``) resolve to
    absolute names when the module's own dotted name is known.
    """
    table: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                table[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                origin = node.module
            else:
                origin = resolve_relative(module_name, is_package, node.level, node.module)
            if not origin:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                table[alias.asname or alias.name] = f"{origin}.{alias.name}"
    return table


def dotted_name(node: ast.AST, imports: dict[str, str]) -> str | None:
    """Render ``a.b.c`` chains, resolving the root through ``imports``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(imports.get(node.id, node.id))
    return ".".join(reversed(parts))


@dataclass
class SignatureInfo:
    """Statically known call contract of one function, method or class."""

    name: str
    line: int
    args: list[str] = field(default_factory=list)
    n_required: int = 0
    vararg: bool = False
    kwonly: list[str] = field(default_factory=list)
    kwonly_required: list[str] = field(default_factory=list)
    kwarg: bool = False
    kind: str = "function"  # "function" | "class"
    checkable: bool = True  # False when decorators/bases hide the contract


@dataclass
class ModuleSummary:
    """Whole-module facts for project-level rules."""

    module: str
    path: str
    is_package: bool = False
    imports: dict[str, str] = field(default_factory=dict)
    star_imports: list[str] = field(default_factory=list)
    #: (target dotted name, line, runtime) — runtime=False for imports
    #: under ``if TYPE_CHECKING`` or inside function bodies.
    import_edges: list[tuple[str, int, bool]] = field(default_factory=list)
    #: (name, line) pairs from a literal ``__all__``; None when absent.
    exports: list[tuple[str, int]] | None = None
    defined_names: list[str] = field(default_factory=list)
    functions: dict[str, SignatureInfo] = field(default_factory=dict)
    #: call sites: {line, col, callee, nargs, star, keywords, kwstar, targs}
    #: where targs lists (arg position, "source"|"call", detail) for
    #: arguments carrying a possible taint.
    calls: list[dict] = field(default_factory=list)
    symbol_refs: list[str] = field(default_factory=list)
    #: function qualname -> {"direct": source-or-None, "returns_calls": [...]}
    function_taint: dict[str, dict] = field(default_factory=dict)
    #: the module's suppression directives
    directives: list[Directive] = field(default_factory=list)


# ---------------------------------------------------------------------------
# extraction


def _signature_from_arguments(name: str, line: int, arguments: ast.arguments, *, drop_self: bool) -> SignatureInfo:
    positional = [a.arg for a in arguments.posonlyargs + arguments.args]
    if drop_self and positional:
        positional = positional[1:]
    n_required = len(positional) - len(arguments.defaults)
    kwonly = [a.arg for a in arguments.kwonlyargs]
    kwonly_required = [
        a.arg
        for a, default in zip(arguments.kwonlyargs, arguments.kw_defaults)
        if default is None
    ]
    return SignatureInfo(
        name=name,
        line=line,
        args=positional,
        n_required=max(0, n_required),
        vararg=arguments.vararg is not None,
        kwonly=kwonly,
        kwonly_required=kwonly_required,
        kwarg=arguments.kwarg is not None,
    )


def _is_dataclass_decorator(node: ast.AST, imports: dict[str, str]) -> bool:
    if isinstance(node, ast.Call):
        node = node.func
    name = dotted_name(node, imports)
    return name in ("dataclass", "dataclasses.dataclass")


def _dataclass_signature(cls: ast.ClassDef, imports: dict[str, str]) -> SignatureInfo:
    """Constructor contract synthesized from dataclass field annotations."""
    args: list[str] = []
    n_required = 0
    for stmt in cls.body:
        if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
            continue
        annotation = ast.dump(stmt.annotation)
        if "ClassVar" in annotation or "InitVar" in annotation:
            continue
        args.append(stmt.target.id)
        if stmt.value is None:
            n_required += 1
    return SignatureInfo(name=cls.name, line=cls.lineno, args=args, n_required=n_required, kind="class")


def _class_signature(cls: ast.ClassDef, imports: dict[str, str]) -> SignatureInfo:
    """Constructor contract of a class, or an uncheckable placeholder."""
    is_dataclass = any(_is_dataclass_decorator(d, imports) for d in cls.decorator_list)
    opaque_decorators = [d for d in cls.decorator_list if not _is_dataclass_decorator(d, imports)]
    if cls.bases or cls.keywords or opaque_decorators:
        # Inherited or decorator-synthesized __init__: contract unknown.
        return SignatureInfo(name=cls.name, line=cls.lineno, kind="class", checkable=False)
    for stmt in cls.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__":
            if stmt.decorator_list:
                return SignatureInfo(name=cls.name, line=cls.lineno, kind="class", checkable=False)
            sig = _signature_from_arguments(cls.name, cls.lineno, stmt.args, drop_self=True)
            sig.kind = "class"
            return sig
    if is_dataclass:
        return _dataclass_signature(cls, imports)
    return SignatureInfo(name=cls.name, line=cls.lineno, kind="class", checkable=False)


class _ScopeWalker:
    """Single pass over the module collecting calls and taint facts.

    Taint tracking is deliberately approximate and flow-insensitive
    within a scope: a name assigned from a tainted expression stays
    tainted for the rest of the scope.  Each descriptor is a pair —
    ``("source", "time.time")`` for a direct draw from a tainted API,
    ``("call", "repro.x.helper")`` for a value returned by a function
    whose taint is decided later by the cross-module fixpoint.
    """

    def __init__(self, summary: ModuleSummary):
        self.summary = summary
        self.imports = summary.imports

    def walk_module(self, tree: ast.Module) -> None:
        env: dict[str, tuple[str, str]] = {}
        self._walk_body(tree.body, qual="", env=env)

    # -- taint descriptors -------------------------------------------------

    def _expr_taint(self, expr: ast.AST, env: dict[str, tuple[str, str]]) -> tuple[str, str] | None:
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                name = dotted_name(node.func, self.imports)
                if name in TAINT_SOURCES:
                    return ("source", name)
                if name == _SEEDABLE_FACTORY and not node.args and not node.keywords:
                    return ("source", name)
            elif isinstance(node, ast.Name) and node.id in env:
                return env[node.id]
        # No direct source: fall back to the first resolvable call, whose
        # taint the project fixpoint will decide.
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                name = dotted_name(node.func, self.imports)
                if name and "." in name and name not in TAINT_SOURCES:
                    return ("call", name)
        return None

    def _record_call(self, call: ast.Call, env: dict[str, tuple[str, str]]) -> None:
        callee = dotted_name(call.func, self.imports)
        if callee is None:
            return
        nargs = sum(1 for a in call.args if not isinstance(a, ast.Starred))
        star = any(isinstance(a, ast.Starred) for a in call.args)
        keywords = [kw.arg for kw in call.keywords if kw.arg is not None]
        kwstar = any(kw.arg is None for kw in call.keywords)
        targs: list[list] = []
        for position, arg in enumerate(list(call.args) + [kw.value for kw in call.keywords]):
            desc = self._expr_taint(arg, env)
            if desc is not None:
                targs.append([position, desc[0], desc[1]])
        self.summary.calls.append(
            {
                "line": call.lineno,
                "col": call.col_offset,
                "callee": callee,
                "nargs": nargs,
                "star": star,
                "keywords": keywords,
                "kwstar": kwstar,
                "targs": targs,
            }
        )

    # -- statement walk ----------------------------------------------------

    _COMPOUND = (ast.If, ast.For, ast.AsyncFor, ast.While, ast.With, ast.AsyncWith, ast.Try)

    def _record_expr_calls(self, expr: ast.AST, env: dict[str, tuple[str, str]]) -> None:
        for call in (n for n in ast.walk(expr) if isinstance(n, ast.Call)):
            self._record_call(call, env)

    def _walk_body(
        self,
        body: list[ast.stmt],
        qual: str,
        env: dict[str, tuple[str, str]],
        returns: list | None = None,
    ) -> None:
        """Walk statements; ``returns`` collects return-taint descriptors."""
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner_qual = f"{qual}.{stmt.name}" if qual else stmt.name
                self._walk_function(stmt, inner_qual, dict(env))
            elif isinstance(stmt, ast.ClassDef):
                inner_qual = f"{qual}.{stmt.name}" if qual else stmt.name
                for expr in stmt.bases + [kw.value for kw in stmt.keywords] + stmt.decorator_list:
                    self._record_expr_calls(expr, env)
                self._walk_body(stmt.body, inner_qual, dict(env))
            elif isinstance(stmt, self._COMPOUND):
                # Header expressions (test / iter / context items) carry
                # calls; child statement lists are walked recursively so
                # nothing is recorded twice.
                for child in ast.iter_child_nodes(stmt):
                    if isinstance(child, ast.expr):
                        self._record_expr_calls(child, env)
                    elif isinstance(child, ast.withitem):
                        self._record_expr_calls(child.context_expr, env)
                for block in self._child_blocks(stmt):
                    self._walk_body(block, qual, env, returns)
            else:
                self._walk_simple(stmt, env, returns)

    @staticmethod
    def _child_blocks(stmt: ast.stmt) -> list[list[ast.stmt]]:
        blocks: list[list[ast.stmt]] = []
        for attr in ("body", "orelse", "finalbody"):
            block = getattr(stmt, attr, None)
            if block:
                blocks.append(block)
        for handler in getattr(stmt, "handlers", []):
            blocks.append(handler.body)
        return blocks

    def _walk_simple(self, stmt: ast.stmt, env: dict[str, tuple[str, str]], returns: list | None) -> None:
        self._record_expr_calls(stmt, env)
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            if stmt.value is None:
                return
            desc = self._expr_taint(stmt.value, env)
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    if desc is not None:
                        env[target.id] = desc
                    else:
                        env.pop(target.id, None)
        elif isinstance(stmt, ast.Return) and stmt.value is not None and returns is not None:
            desc = self._expr_taint(stmt.value, env)
            if desc is not None:
                returns.append(desc)

    def _walk_function(self, fn: ast.FunctionDef | ast.AsyncFunctionDef, qual: str, env: dict[str, tuple[str, str]]) -> None:
        returns: list[tuple[str, str]] = []
        self._walk_body(fn.body, qual, env, returns)
        returns_direct = next((d for k, d in returns if k == "source"), None)
        returns_calls = sorted({d for k, d in returns if k == "call"})
        if returns_direct is not None or returns_calls:
            self.summary.function_taint[qual] = {
                "direct": returns_direct,
                "returns_calls": returns_calls,
            }


def _collect_import_edges(summary: ModuleSummary, tree: ast.Module) -> None:
    """Import-graph edges, tagged runtime vs. lazy/type-checking only."""

    def edge_targets(node: ast.Import | ast.ImportFrom) -> list[str]:
        targets: list[str] = []
        if isinstance(node, ast.Import):
            targets.extend(alias.name for alias in node.names)
        else:
            if node.level == 0:
                origin = node.module
            else:
                origin = resolve_relative(summary.module, summary.is_package, node.level, node.module)
            if origin:
                targets.append(origin)
                targets.extend(
                    f"{origin}.{alias.name}" for alias in node.names if alias.name != "*"
                )
                if any(alias.name == "*" for alias in node.names):
                    summary.star_imports.append(origin)
        return targets

    def is_type_checking_guard(test: ast.AST) -> bool:
        name = dotted_name(test, summary.imports)
        return name in ("TYPE_CHECKING", "typing.TYPE_CHECKING")

    def walk(stmts: list[ast.stmt], runtime: bool) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                for target in edge_targets(stmt):
                    summary.import_edges.append((target, stmt.lineno, runtime))
            elif isinstance(stmt, ast.If):
                guard_off = is_type_checking_guard(stmt.test)
                walk(stmt.body, runtime and not guard_off)
                walk(stmt.orelse, runtime)
            elif isinstance(stmt, ast.Try):
                walk(stmt.body, runtime)
                for handler in stmt.handlers:
                    walk(handler.body, runtime)
                walk(stmt.orelse, runtime)
                walk(stmt.finalbody, runtime)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(stmt.body, False if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) else runtime)
            elif isinstance(stmt, (ast.With, ast.AsyncWith, ast.For, ast.AsyncFor, ast.While)):
                walk(stmt.body, runtime)

    walk(tree.body, True)


def _collect_definitions(summary: ModuleSummary, tree: ast.Module) -> None:
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            summary.defined_names.append(stmt.name)
            sig = _signature_from_arguments(stmt.name, stmt.lineno, stmt.args, drop_self=False)
            if stmt.decorator_list:
                sig.checkable = False
            summary.functions[stmt.name] = sig
        elif isinstance(stmt, ast.ClassDef):
            summary.defined_names.append(stmt.name)
            summary.functions[stmt.name] = _class_signature(stmt, summary.imports)
            for inner in stmt.body:
                if isinstance(inner, ast.FunctionDef) and inner.name != "__init__":
                    method = _signature_from_arguments(
                        f"{stmt.name}.{inner.name}", inner.lineno, inner.args, drop_self=True
                    )
                    if inner.decorator_list:
                        method.checkable = False
                    summary.functions[f"{stmt.name}.{inner.name}"] = method
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    summary.defined_names.append(target.id)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            summary.defined_names.append(stmt.target.id)


def _collect_exports(summary: ModuleSummary, tree: ast.Module) -> None:
    for stmt in tree.body:
        if not isinstance(stmt, ast.Assign):
            continue
        for target in stmt.targets:
            if isinstance(target, ast.Name) and target.id == "__all__":
                if isinstance(stmt.value, (ast.List, ast.Tuple)) and all(
                    isinstance(e, ast.Constant) and isinstance(e.value, str)
                    for e in stmt.value.elts
                ):
                    summary.exports = [(e.value, e.lineno) for e in stmt.value.elts]


def _collect_symbol_refs(summary: ModuleSummary, tree: ast.Module) -> None:
    refs: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            name = dotted_name(node, summary.imports)
            if name and "." in name:
                refs.add(name)
        elif isinstance(node, ast.Name) and node.id in summary.imports:
            origin = summary.imports[node.id]
            if "." in origin:
                refs.add(origin)
    summary.symbol_refs = sorted(refs)


def build_summary(path: str, source: str, tree: ast.Module, module_name: str | None = None, is_package: bool | None = None) -> ModuleSummary:
    """Extract the whole :class:`ModuleSummary` for one parsed module."""
    if module_name is None or is_package is None:
        module_name, is_package = module_name_for_path(Path(path))
    summary = ModuleSummary(module=module_name, path=path, is_package=is_package)
    summary.imports = build_import_table(tree, module_name, is_package)
    _collect_import_edges(summary, tree)
    _collect_definitions(summary, tree)
    _collect_exports(summary, tree)
    _collect_symbol_refs(summary, tree)
    _ScopeWalker(summary).walk_module(tree)
    summary.directives = parse_directives(source)
    return summary

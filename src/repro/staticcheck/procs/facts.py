"""Per-module process-boundary fact extraction.

One AST pass per module, producing the JSON-serializable ``procs`` table
on :class:`~repro.staticcheck.project.summary.ModuleSummary`:

``start_method``
    The literal argument of a module's ``multiprocessing.set_start_method``
    call, or ``None`` when the module never pins one.
``spawns``
    Every site that hands work to another *process*: a
    ``multiprocessing.Process(target=...)`` construction (including
    ``ctx.Process`` where ``ctx = multiprocessing.get_context("...")``
    pins the start method for that site), a ``submit``/``map`` on a
    ``ProcessPoolExecutor``, or a ``parallel_map``/``parallel_map_sharded``
    call whose config is *literally* ``ExecutorConfig(backend="process")``
    (directly or through a local variable).  A ``parallel_map`` whose
    backend is not statically a string literal is **not** recorded — a
    deliberate soundness caveat, like dynamic ``Process(target=f())``
    targets (see DESIGN §12).
``handles``
    Non-lock OS handles created at module, class-attribute or function
    scope: ``open(...)``, sockets and sqlite connections.  Lock facts
    already live in the ``concurrency`` table.

Everything is name-based and flow-insensitive within a function, exactly
like the concurrency walker: a local name keeps its role for the rest of
the scope.
"""

from __future__ import annotations

import ast

from repro.staticcheck.procs import COUNTERS
from repro.staticcheck.project.summary import ModuleSummary, dotted_name

__all__ = ["HANDLE_FACTORIES", "PROCESS_FANOUT_BASENAMES", "collect_procs_facts"]

#: Dotted callees that return an OS handle the child must not inherit
#: blindly (plus the ``open`` builtin, matched by bare name).
HANDLE_FACTORIES = {
    "open": "open file handle",
    "socket.socket": "socket",
    "socket.create_connection": "socket",
    "sqlite3.connect": "sqlite connection",
}

#: repro.parallel fan-out entry points that cross a process boundary when
#: configured with the process backend.
PROCESS_FANOUT_BASENAMES = frozenset({"parallel_map", "parallel_map_sharded"})

#: Executor method names that ship a callable to the pool's workers.
_POOL_SUBMITS = frozenset({"submit", "map"})

_START_METHODS = frozenset({"fork", "spawn", "forkserver"})


def _basename(name: str) -> str:
    return name.rsplit(".", 1)[-1]


class _Scope:
    """Per-function mutable state (module level is the ``""`` scope)."""

    def __init__(self, qual: str, cls: str):
        self.qual = qual
        self.cls = cls
        #: local name -> start method pinned by ``get_context("...")``
        self.ctx_methods: dict[str, str] = {}
        #: local names bound to a ProcessPoolExecutor
        self.executors: set[str] = set()
        #: local name -> literal backend of an ExecutorConfig(...) value
        self.configs: dict[str, str] = {}
        #: functions defined inside this (function) scope — closure-scoped,
        #: so they can never be pickled across a boundary
        self.nested_defs: set[str] = set()


class _ProcsWalker:
    """Single pass collecting the process-boundary facts of one module."""

    def __init__(self, summary: ModuleSummary):
        self.summary = summary
        self.imports = summary.imports
        self.module = summary.module
        self.facts: dict = {"start_method": None, "spawns": [], "handles": {}}

    def walk(self, tree: ast.Module) -> None:
        self._walk_body(tree.body, _Scope("", ""))
        if self.facts["spawns"] or self.facts["handles"] or self.facts["start_method"]:
            self.summary.procs = self.facts

    # -- identity helpers --------------------------------------------------

    def _handle_id(self, name: str, scope: _Scope) -> str:
        if scope.qual:
            return f"{self.module}.{scope.qual}.{name}"
        return f"{self.module}.{name}"

    # -- expression scan (load context) ------------------------------------

    def _scan_expr(self, expr: ast.AST, scope: _Scope) -> None:
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                self._record_call(node, scope)

    def _record_call(self, call: ast.Call, scope: _Scope) -> None:
        dotted = dotted_name(call.func, self.imports)
        if dotted is not None:
            base = _basename(dotted)
            if base == "set_start_method":
                literal = self._literal_str(call.args[0]) if call.args else None
                if literal in _START_METHODS and self.facts["start_method"] is None:
                    self.facts["start_method"] = literal
            elif dotted == "multiprocessing.Process" or (
                dotted.endswith(".Process") and dotted.split(".", 1)[0] in scope.ctx_methods
            ):
                method = scope.ctx_methods.get(dotted.split(".", 1)[0])
                self._record_spawn(call, scope, kind="process", method=method)
            elif base in PROCESS_FANOUT_BASENAMES and self._process_backend(call, scope):
                self._record_spawn(call, scope, kind="parallel-map", method=None)
        if (
            isinstance(call.func, ast.Attribute)
            and isinstance(call.func.value, ast.Name)
            and call.func.attr in _POOL_SUBMITS
            and call.func.value.id in scope.executors
        ):
            self._record_spawn(call, scope, kind="executor", method=None)

    @staticmethod
    def _literal_str(node: ast.AST) -> str | None:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        return None

    def _process_backend(self, call: ast.Call, scope: _Scope) -> bool:
        """Does this fan-out call statically run on the process backend?"""
        for kw in call.keywords:
            if kw.arg != "config":
                continue
            if isinstance(kw.value, ast.Name):
                return scope.configs.get(kw.value.id) == "process"
            if isinstance(kw.value, ast.Call):
                return self._config_backend(kw.value) == "process"
        return False

    def _config_backend(self, call: ast.Call) -> str | None:
        name = dotted_name(call.func, self.imports)
        if name is None or _basename(name) != "ExecutorConfig":
            return None
        for kw in call.keywords:
            if kw.arg == "backend":
                return self._literal_str(kw.value)
        return None

    # -- spawn sites -------------------------------------------------------

    def _record_spawn(self, call: ast.Call, scope: _Scope, kind: str, method: str | None) -> None:
        target_expr: ast.AST | None = None
        boundary_args: list[ast.AST] = []
        if kind == "process":
            for kw in call.keywords:
                if kw.arg == "target":
                    target_expr = kw.value
                elif kw.arg == "args" and isinstance(kw.value, (ast.Tuple, ast.List)):
                    boundary_args.extend(kw.value.elts)
        elif kind == "executor":
            if call.args:
                target_expr = call.args[0]
            boundary_args.extend(call.args[1:])
        else:  # parallel-map: fn, items
            if call.args:
                target_expr = call.args[0]
            boundary_args.extend(call.args[1:2])

        target, shape = self._classify_target(target_expr, scope)
        spawn = {
            "fn": scope.qual,
            "line": call.lineno,
            "kind": kind,
            "target": target,
            "target_shape": shape,
            "args": [],
            "method": method,
        }
        for arg in boundary_args:
            if isinstance(arg, ast.Name):
                spawn["args"].append(arg.id)
            elif isinstance(arg, ast.Attribute):
                name = dotted_name(arg, self.imports)
                if name is not None:
                    spawn["args"].append(name)
        self.facts["spawns"].append(spawn)
        COUNTERS["boundaries"] += 1

    def _classify_target(self, expr: ast.AST | None, scope: _Scope) -> tuple[str | None, str | None]:
        if expr is None:
            return None, None
        if isinstance(expr, ast.Lambda):
            return None, "lambda"
        if isinstance(expr, (ast.FunctionDef, ast.AsyncFunctionDef)):  # pragma: no cover
            return None, None
        if (
            isinstance(expr, ast.Call)
            and (name := dotted_name(expr.func, self.imports)) is not None
            and _basename(name) == "partial"
            and expr.args
        ):
            return self._classify_target(expr.args[0], scope)
        name = dotted_name(expr, self.imports)
        if name is None:
            return None, None
        if name == "self" or name.startswith("self."):
            return name, "self-method"
        if "." not in name and name in scope.nested_defs:
            return name, "nested"
        return name, "name"

    # -- creations (assignment right-hand sides) ---------------------------

    def _record_creation(self, stmt: ast.stmt, scope: _Scope) -> bool:
        """Handle/context/config bindings; True when consumed."""
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            value = stmt.value
        else:
            return False
        if not isinstance(value, ast.Call):
            return False
        name = dotted_name(value.func, self.imports)
        if name is None:
            return False
        base = _basename(name)
        if name in HANDLE_FACTORIES:
            kind = HANDLE_FACTORIES[name]
            for target in targets:
                if isinstance(target, ast.Name):
                    self.facts["handles"].setdefault(
                        self._handle_id(target.id, scope), [kind, stmt.lineno]
                    )
                elif (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and scope.cls
                ):
                    self.facts["handles"].setdefault(
                        f"{self.module}.{scope.cls}.{target.attr}", [kind, stmt.lineno]
                    )
            return True
        if base == "get_context":
            literal = self._literal_str(value.args[0]) if value.args else None
            if literal in _START_METHODS:
                for target in targets:
                    if isinstance(target, ast.Name):
                        scope.ctx_methods[target.id] = literal
                return True
        if base == "ProcessPoolExecutor":
            for target in targets:
                if isinstance(target, ast.Name):
                    scope.executors.add(target.id)
            return True
        if base == "ExecutorConfig":
            backend = self._config_backend(value)
            if backend is not None:
                for target in targets:
                    if isinstance(target, ast.Name):
                        scope.configs[target.id] = backend
                return True
        return False

    # -- statements --------------------------------------------------------

    def _walk_body(self, body: list[ast.stmt], scope: _Scope) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if scope.qual:
                    scope.nested_defs.add(stmt.name)
                inner_qual = f"{scope.qual}.{stmt.name}" if scope.qual else stmt.name
                inner = _Scope(inner_qual, scope.cls)
                for dec in stmt.decorator_list:
                    self._scan_expr(dec, scope)
                self._walk_body(stmt.body, inner)
            elif isinstance(stmt, ast.ClassDef):
                inner_qual = f"{scope.qual}.{stmt.name}" if scope.qual else stmt.name
                inner = _Scope(inner_qual, stmt.name)
                for expr in stmt.bases + [kw.value for kw in stmt.keywords] + stmt.decorator_list:
                    self._scan_expr(expr, scope)
                self._walk_body(stmt.body, inner)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                self._walk_with(stmt, scope)
            elif isinstance(stmt, (ast.If, ast.While)):
                self._scan_expr(stmt.test, scope)
                self._walk_body(stmt.body, scope)
                self._walk_body(stmt.orelse, scope)
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                self._scan_expr(stmt.iter, scope)
                self._walk_body(stmt.body, scope)
                self._walk_body(stmt.orelse, scope)
            elif isinstance(stmt, ast.Try):
                self._walk_body(stmt.body, scope)
                for handler in stmt.handlers:
                    self._walk_body(handler.body, scope)
                self._walk_body(stmt.orelse, scope)
                self._walk_body(stmt.finalbody, scope)
            else:
                self._walk_simple(stmt, scope)

    def _walk_with(self, stmt: ast.With | ast.AsyncWith, scope: _Scope) -> None:
        for item in stmt.items:
            self._scan_expr(item.context_expr, scope)
            if item.optional_vars is not None and isinstance(item.optional_vars, ast.Name):
                # ``with ProcessPoolExecutor(...) as pool:`` / ``with open(...) as fh:``
                synthetic = ast.Assign(targets=[item.optional_vars], value=item.context_expr)
                ast.copy_location(synthetic, item.context_expr)
                self._record_creation(synthetic, scope)
        self._walk_body(stmt.body, scope)

    def _walk_simple(self, stmt: ast.stmt, scope: _Scope) -> None:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            if stmt.value is not None:
                self._scan_expr(stmt.value, scope)
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                for node in ast.walk(target):
                    if isinstance(node, ast.Subscript):
                        self._scan_expr(node.slice, scope)
            if not isinstance(stmt, ast.AugAssign):
                self._record_creation(stmt, scope)
        else:
            self._scan_expr(stmt, scope)


def collect_procs_facts(summary: ModuleSummary, tree: ast.Module) -> None:
    """Populate ``summary.procs`` (left empty when the module is inert)."""
    _ProcsWalker(summary).walk(tree)

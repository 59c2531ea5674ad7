"""Vectorization invariants, enforced on hot functions only.

These rules are deliberately opinionated — a Python-level loop is fine in
``fit`` or a CLI — so they run only inside functions the file-local
derivation marks hot (see :mod:`repro.staticcheck.perf.hotpath`).  Five
findings, one shared AST walk per file:

* ``scalar-loop`` — ``for i in range(X.shape[0])`` (or ``range(len(X))``)
  with ``X[i]`` in the body: per-row Python iteration over an array that
  one vectorized call would replace.  Stepped/offset ranges are exempt —
  ``range(0, n, chunk)`` is the blocking idiom, not a scalar loop.
* ``per-item-call`` — a :data:`~repro.staticcheck.perf.hotpath.BATCH_CONTRACTS`
  API (``predict``, ``encode``, ``query``, ...) called inside a loop or
  comprehension: these APIs accept whole batches, so the loop multiplies
  per-call overhead by n.
* ``loop-alloc`` — a numpy buffer constructor (``zeros``/``empty``/...)
  inside a loop: the allocation is loop-invariant in size and should be
  hoisted and reused.
* ``quadratic-growth`` — ``x = np.concatenate([x, part])`` (or
  ``np.append``/``vstack``/... self-referencing the target) inside a
  loop: every iteration copies everything accumulated so far, O(n²)
  total.  Append to a list and concatenate once.
* ``hidden-copy`` — copies that do not look like copies: a
  concatenate-family call inside a loop (each call materializes all its
  inputs), fancy indexing with a list literal, and ``reshape`` of a
  transposed view (non-contiguous source forces a full copy).
"""

from __future__ import annotations

import ast

from repro.staticcheck.findings import Finding
from repro.staticcheck.perf.hotpath import BATCH_CONTRACTS, hot_functions
from repro.staticcheck.registry import Rule, register

__all__ = [
    "ScalarLoopRule",
    "PerItemCallRule",
    "LoopAllocRule",
    "QuadraticGrowthRule",
    "HiddenCopyRule",
]

_ALLOC_CALLS = {
    "numpy.zeros",
    "numpy.ones",
    "numpy.empty",
    "numpy.full",
    "numpy.zeros_like",
    "numpy.ones_like",
    "numpy.empty_like",
    "numpy.full_like",
    "numpy.eye",
    "numpy.identity",
    "numpy.arange",
    "numpy.linspace",
}

_CONCAT_CALLS = {
    "numpy.concatenate",
    "numpy.append",
    "numpy.vstack",
    "numpy.hstack",
    "numpy.dstack",
    "numpy.stack",
    "numpy.column_stack",
    "numpy.row_stack",
}

_LOOP_NODES = (ast.For, ast.While)
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _render_chain(node):
    """Render ``a.b.c`` attribute chains; anything else is unrenderable."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _range_over_array(iter_node: ast.expr, module):
    """``("X", "X.shape[0]")`` when ``iter_node`` is a full per-row range.

    Matches ``range(X.shape[0])`` / ``range(len(X))`` with exactly one
    argument — any start/step argument means chunking, not scalar
    iteration.
    """
    if not (
        isinstance(iter_node, ast.Call)
        and isinstance(iter_node.func, ast.Name)
        and iter_node.func.id == "range"
        and len(iter_node.args) == 1
        and not iter_node.keywords
    ):
        return None
    arg = iter_node.args[0]
    if (
        isinstance(arg, ast.Subscript)
        and isinstance(arg.value, ast.Attribute)
        and arg.value.attr == "shape"
        and isinstance(arg.slice, ast.Constant)
        and arg.slice.value == 0
    ):
        base = _render_chain(arg.value.value)
        if base is not None:
            return base, f"{base}.shape[0]"
    if (
        isinstance(arg, ast.Call)
        and isinstance(arg.func, ast.Name)
        and arg.func.id == "len"
        and len(arg.args) == 1
    ):
        base = _render_chain(arg.args[0])
        if base is not None:
            return base, f"len({base})"
    return None


def _indexes_with(body, base: str, loop_var: str) -> bool:
    """Does any ``base[loop_var, ...]`` subscript appear in ``body``?"""
    for stmt in body:
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Subscript):
                continue
            if _render_chain(node.value) != base:
                continue
            index = node.slice
            first = index.elts[0] if isinstance(index, ast.Tuple) and index.elts else index
            if isinstance(first, ast.Name) and first.id == loop_var:
                return True
    return False


def _is_numeric_list(node: ast.List) -> bool:
    return bool(node.elts) and all(
        (isinstance(e, ast.Constant) and isinstance(e.value, int))
        or isinstance(e, (ast.Name, ast.UnaryOp))
        for e in node.elts
    )


def _transposed_receiver(node: ast.expr, module) -> bool:
    if isinstance(node, ast.Attribute) and node.attr == "T":
        return True
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Attribute) and node.func.attr == "transpose":
            return True
        if module.dotted_name(node.func) == "numpy.transpose":
            return True
    return False


class _HotFunctionScan(ast.NodeVisitor):
    """One pass over one hot function body; nested defs are skipped
    (they are separate functions with their own hotness)."""

    def __init__(self, module, qual: str, report) -> None:
        self.module = module
        self.qual = qual
        self.report = report
        self.loop_depth = 0
        #: Call nodes already claimed by quadratic-growth, so hidden-copy
        #: does not double-report the same concatenate.
        self._claimed: set = set()

    # -- scope fences ------------------------------------------------------

    def visit_FunctionDef(self, node) -> None:
        pass

    visit_AsyncFunctionDef = visit_FunctionDef
    visit_ClassDef = visit_FunctionDef

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass

    # -- loop contexts -----------------------------------------------------

    def visit_For(self, node: ast.For) -> None:
        over = _range_over_array(node.iter, self.module)
        if (
            over is not None
            and isinstance(node.target, ast.Name)
            and _indexes_with(node.body, over[0], node.target.id)
        ):
            base, sym = over
            self.report(
                "scalar-loop",
                node,
                f"iterates '{base}' row by row ('for {node.target.id} in "
                f"range({sym})') on a hot path — one vectorized numpy call "
                "over the whole array replaces this Python loop",
            )
        # the iterator expression runs once, at the enclosing depth
        self.visit(node.iter)
        self.loop_depth += 1
        for stmt in node.body + node.orelse:
            self.visit(stmt)
        self.loop_depth -= 1

    def visit_While(self, node: ast.While) -> None:
        self.loop_depth += 1
        self.generic_visit(node)
        self.loop_depth -= 1

    def _visit_comprehension(self, node) -> None:
        # the first generator's source runs once; everything else is
        # evaluated per item
        self.visit(node.generators[0].iter)
        self.loop_depth += 1
        if isinstance(node, ast.DictComp):
            self.visit(node.key)
            self.visit(node.value)
        else:
            self.visit(node.elt)
        for index, gen in enumerate(node.generators):
            if index > 0:
                self.visit(gen.iter)
            for cond in gen.ifs:
                self.visit(cond)
        self.loop_depth -= 1

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    # -- findings ----------------------------------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        if (
            self.loop_depth > 0
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Call)
            and self.module.dotted_name(node.value.func) in _CONCAT_CALLS
        ):
            target = node.targets[0].id
            feeds_self = any(
                isinstance(n, ast.Name) and n.id == target
                for arg in node.value.args
                for n in ast.walk(arg)
            )
            if feeds_self:
                self._claimed.add(id(node.value))
                short = self.module.dotted_name(node.value.func).replace("numpy.", "np.")
                self.report(
                    "quadratic-growth",
                    node,
                    f"grows '{target}' with {short} every iteration — each "
                    "call re-copies everything accumulated so far (O(n²) "
                    "total); append parts to a list and concatenate once "
                    "after the loop",
                )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        dotted = self.module.dotted_name(node.func)
        if self.loop_depth > 0:
            name = None
            if isinstance(node.func, ast.Attribute):
                name = node.func.attr
            elif isinstance(node.func, ast.Name):
                name = node.func.id
            if name in BATCH_CONTRACTS:
                self.report(
                    "per-item-call",
                    node,
                    f"calls batched API '{name}()' once per item inside a "
                    "loop on a hot path — it accepts a whole batch; hoist "
                    "the call out of the loop",
                )
            if dotted in _ALLOC_CALLS:
                short = dotted.replace("numpy.", "np.")
                self.report(
                    "loop-alloc",
                    node,
                    f"allocates with {short} inside a loop on a hot path — "
                    "hoist the buffer out of the loop and reuse it",
                )
            if dotted in _CONCAT_CALLS and id(node) not in self._claimed:
                short = dotted.replace("numpy.", "np.")
                self.report(
                    "hidden-copy",
                    node,
                    f"{short} inside a loop on a hot path copies every "
                    "input on each call — collect parts and concatenate "
                    "once, or preallocate",
                )
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "reshape"
            and _transposed_receiver(node.func.value, self.module)
        ):
            self.report(
                "hidden-copy",
                node,
                "reshape of a transposed view forces a full copy (the "
                "source is non-contiguous) — reorder the axes in the "
                "computation or make the copy explicit",
            )
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if isinstance(node.slice, ast.List) and _is_numeric_list(node.slice):
            self.report(
                "hidden-copy",
                node,
                "fancy indexing with a list literal materializes a copy of "
                "the selected rows on a hot path — precompute an index "
                "array, or slice if the rows are contiguous",
            )
        self.generic_visit(node)


def module_vector_findings(module) -> list:
    """Vectorization findings for one file: ``(rule_id, line, col, message)``.

    One walk over the file's hot functions, shared by the five rules and
    memoized on the :class:`ModuleContext`.
    """
    cached = getattr(module, "_perf_vector_findings", None)
    if cached is not None:
        return cached

    findings: list = []
    reported: set = set()

    def report(rule_id, node, message):
        key = (rule_id, node.lineno, node.col_offset, message)
        if key not in reported:
            reported.add(key)
            findings.append((rule_id, node.lineno, node.col_offset, message))

    for qual, (node, _reason) in sorted(hot_functions(module).items()):
        scan = _HotFunctionScan(module, qual, report)
        for stmt in node.body:
            scan.visit(stmt)

    module._perf_vector_findings = findings
    return findings


class _VectorRuleBase(Rule):
    """One shared hot-function walk; each subclass yields its slice."""

    def check(self, module):
        for rule_id, line, col, message in module_vector_findings(module):
            if rule_id == self.id:
                yield Finding(
                    path=module.path, line=line, col=col, rule_id=self.id, message=message
                )


@register
class ScalarLoopRule(_VectorRuleBase):
    id = "scalar-loop"
    description = (
        "a hot function iterates an ndarray row by row in Python "
        "(for i in range(X.shape[0])) instead of one vectorized call"
    )


@register
class PerItemCallRule(_VectorRuleBase):
    id = "per-item-call"
    description = (
        "a hot loop calls a batched API (predict/encode/query/...) once "
        "per item instead of once per batch"
    )


@register
class LoopAllocRule(_VectorRuleBase):
    id = "loop-alloc"
    description = (
        "a hot loop allocates a fresh numpy buffer every iteration "
        "instead of hoisting and reusing it"
    )


@register
class QuadraticGrowthRule(_VectorRuleBase):
    id = "quadratic-growth"
    description = (
        "a hot loop grows an array by self-concatenation every iteration: "
        "O(n²) copying that a list-append + single concatenate avoids"
    )


@register
class HiddenCopyRule(_VectorRuleBase):
    id = "hidden-copy"
    description = (
        "a hot path makes a copy that does not look like one: concatenate "
        "in a loop, list-literal fancy indexing, or reshape of a "
        "transposed view"
    )

"""Hot-path derivation and the cross-module annotation-gap rule.

A function is *hot* when it can run per request in the serve path.  The
per-file derivation — the only evidence the cached vectorization rules
may use — combines three file-local sources:

1. an explicit ``# hotpath: <reason>`` comment in the ``def`` header
   window (decorator-to-first-statement);
2. the :data:`ENTRY_POINTS` name registry — ``predict``, ``encode``,
   ``query``, ``serve`` and friends are hot by convention, wherever they
   are defined (the scalar reference oracles deliberately use
   ``*_scalar`` names so they stay cold);
3. the intra-module call closure of 1 + 2: a helper called from a hot
   function in the same file is hot too, with no annotation needed.

What the per-file view cannot see is a hot call that crosses a module
boundary.  :class:`HotPathGapRule` closes that hole from the project
tier: it walks the PR 3 call-graph facts from every hot function and
demands a ``# hotpath:`` annotation on any statically resolved callee in
*another* module that the callee's own file would not classify as hot.
Once annotated, the callee's file re-derives locally and the closure
resumes there on the next run — the annotation is the cache-sound way to
propagate hotness across files.

:data:`BATCH_CONTRACTS` is the registry of APIs with a batched calling
convention; calling one per item inside a hot loop is the
``per-item-call`` finding in :mod:`repro.staticcheck.perf.vectorization`.
"""

from __future__ import annotations

import ast
import io
import tokenize
from typing import Iterator

from repro.staticcheck.findings import Finding
from repro.staticcheck.perf import COUNTERS
from repro.staticcheck.registry import ProjectRule, register_project

__all__ = [
    "ENTRY_POINTS",
    "BATCH_CONTRACTS",
    "HotPathGapRule",
    "annotated_quals",
    "hot_functions",
    "hotpath_lines",
]

#: Function/method basenames that are serve-path entry points by name.
ENTRY_POINTS = frozenset(
    {
        "predict",
        "predict_proba",
        "predict_records",
        "encode",
        "query",
        "kneighbors",
        "characterize",
        "serve",
    }
)

#: APIs with a batched calling convention: ``name(batch)`` exists, so
#: ``for item: name(item)`` on a hot path throws away the vectorization.
BATCH_CONTRACTS = frozenset(
    {"predict", "predict_proba", "encode", "query", "kneighbors"}
)

#: Method basenames too generic for the unique-method fallback: a
#: ``vocab.get(...)`` on a dict must not resolve to the one class in the
#: project that happens to define ``get``.
_AMBIENT_METHODS = frozenset(
    {
        "get", "set", "items", "keys", "values", "append", "extend",
        "pop", "update", "copy", "add", "remove", "setdefault", "close",
        "read", "write", "join", "split", "strip", "sort", "clear",
    }
)


def hotpath_lines(source: str) -> dict:
    """Line -> reason text for every ``# hotpath:`` comment.

    Comments only — a ``# hotpath:`` inside a string literal never
    counts.  Unparsable files yield no annotations (the syntax-error rule
    owns that complaint).
    """
    prefix = "# hotpath:"
    out: dict = {}
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT and tok.string.startswith(prefix):
                out[tok.start[0]] = tok.string[len(prefix):].strip()
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return {}
    return out


def _iter_defs(tree: ast.Module):
    """Yield ``(qualname, def node)`` for every function, depth-first."""
    stack = [("", node) for node in reversed(tree.body)]
    while stack:
        prefix, node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qual = f"{prefix}{node.name}"
            yield qual, node
            for child in reversed(node.body):
                stack.append((f"{qual}.", child))
        elif isinstance(node, ast.ClassDef):
            for child in reversed(node.body):
                stack.append((f"{prefix}{node.name}.", child))


def _def_window_annotation(node, lines: dict):
    """Annotation text in the def header window, or ``None``.

    The window spans the first decorator line through the line before the
    first body statement, so the comment may ride the ``def`` line, a
    decorator, or its own line between them.
    """
    start = min([node.lineno] + [d.lineno for d in node.decorator_list])
    for line in range(start, node.body[0].lineno + 1):
        if line in lines and (line < node.body[0].lineno or line == node.lineno):
            return lines[line]
    return None


def annotated_quals(tree: ast.Module, source: str) -> dict:
    """Qualname -> reason for every explicitly ``# hotpath:``-annotated def."""
    lines = hotpath_lines(source)
    if not lines:
        return {}
    out = {}
    for qual, node in _iter_defs(tree):
        reason = _def_window_annotation(node, lines)
        if reason is not None:
            out[qual] = reason
    return out


class _CallCollector(ast.NodeVisitor):
    """Call-target names inside one def body, nested defs excluded."""

    def __init__(self) -> None:
        self.names: set = set()
        self.self_attrs: set = set()
        self.other_attrs: set = set()

    def visit_FunctionDef(self, node) -> None:  # nested: separate function
        pass

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            self.names.add(func.id)
        elif isinstance(func, ast.Attribute):
            if isinstance(func.value, ast.Name) and func.value.id == "self":
                self.self_attrs.add(func.attr)
            else:
                self.other_attrs.add(func.attr)
        self.generic_visit(node)


def hot_functions(module) -> dict:
    """Qualname -> ``(def node, reason)`` for every hot function in a file.

    File-local derivation only (annotations + entry-point names +
    intra-module call closure), memoized on the :class:`ModuleContext` so
    the vectorization rules share one computation.
    """
    cached = getattr(module, "_perf_hot", None)
    if cached is not None:
        return cached

    lines = hotpath_lines(module.source)
    defs = dict(_iter_defs(module.tree))
    hot: dict = {}
    for qual, node in defs.items():
        reason = _def_window_annotation(node, lines) if lines else None
        if reason is not None:
            hot[qual] = (node, f"# hotpath: {reason}")
        elif node.name in ENTRY_POINTS:
            hot[qual] = (node, f"entry point name '{node.name}'")

    # intra-module call closure over three file-local edge kinds: bare
    # names to module-level defs, self.X to a method of the same class,
    # and obj.X to a module-unique method basename (receiver not an
    # import alias, so np.sum-style calls never match).
    toplevel = {q: q for q in defs if "." not in q}
    by_class: dict = {}
    by_basename: dict = {}
    for qual in defs:
        if "." in qual:
            owner, base = qual.rsplit(".", 1)
            by_class.setdefault((owner, base), qual)
            by_basename.setdefault(base, []).append(qual)

    worklist = list(hot)
    while worklist:
        qual = worklist.pop()
        node, _reason = hot[qual]
        calls = _CallCollector()
        for stmt in node.body:
            calls.visit(stmt)
        targets = set()
        for name in calls.names:
            if name in toplevel:
                targets.add(name)
        owner = qual.rsplit(".", 1)[0] if "." in qual else None
        for attr in calls.self_attrs:
            if owner is not None and (owner, attr) in by_class:
                targets.add(by_class[(owner, attr)])
            elif len(by_basename.get(attr, ())) == 1:
                targets.add(by_basename[attr][0])
        for attr in calls.other_attrs:
            if attr not in module.imports and len(by_basename.get(attr, ())) == 1:
                targets.add(by_basename[attr][0])
        for target in targets:
            if target not in hot:
                hot[target] = (defs[target], f"called from hot '{qual}'")
                worklist.append(target)

    COUNTERS["hot_functions"] += len(hot)
    module._perf_hot = hot
    return hot


@register_project
class HotPathGapRule(ProjectRule):
    id = "hot-path-gap"
    description = (
        "a function reachable from a hot path in another module has no "
        "# hotpath: annotation, so the per-file vectorization rules are "
        "blind to it"
    )

    def check(self, project) -> Iterator[Finding]:
        # Deferred: importing project.concurrency at module scope would
        # cycle through repro.staticcheck.project.__init__.
        from repro.staticcheck.project.concurrency import _model_for

        model = _model_for(project)

        annotated: set = set()
        hot: set = set()
        for module in sorted(project.summaries):
            summary = project.summaries[module]
            for qual, tag in getattr(summary, "hotpaths", {}).items():
                annotated.add(f"{module}.{qual}")
            for qual, sig in summary.functions.items():
                if sig.kind != "class" and qual.rsplit(".", 1)[-1] in ENTRY_POINTS:
                    hot.add(f"{module}.{qual}")
        hot |= annotated

        # Close over call facts.  Same-module targets are hot for free
        # (the per-file closure finds them); a cross-module target that
        # is not already hot is the gap this rule exists to report.
        gaps: dict = {}
        worklist = sorted(hot)
        while worklist:
            full = worklist.pop()
            caller_module = model.homes.get(full, ("", ""))[0]
            for callee, line, _held, local_receiver in model.funcs.get(full, {}).get(
                "calls", []
            ):
                if (
                    local_receiver
                    and callee.rsplit(".", 1)[-1] in _AMBIENT_METHODS
                ):
                    continue
                target = model.resolve_callee(callee, full, local_receiver)
                if target is None or target == full:
                    continue
                target_module, _cls = model.homes.get(target, ("", ""))
                qual = target[len(target_module) + 1 :] if target_module else target
                summary = project.summaries.get(target_module)
                if summary is None:
                    continue
                sig = summary.functions.get(qual)
                if sig is not None and sig.kind == "class":
                    continue  # constructing an object is not a hot loop body
                if target_module == caller_module:
                    if target not in hot:
                        hot.add(target)
                        worklist.append(target)
                    continue
                if target in hot:
                    continue
                witness = (model.paths.get(full, ""), line, full)
                if target not in gaps or witness < gaps[target]:
                    gaps[target] = witness

        for target in sorted(gaps):
            caller_path, line, full = gaps[target]
            target_module, _cls = model.homes.get(target, ("", ""))
            qual = target[len(target_module) + 1 :] if target_module else target
            summary = project.summaries[target_module]
            sig = summary.functions.get(qual)
            def_line = sig.line if sig is not None else 1
            yield self.finding(
                summary.path,
                def_line,
                f"'{qual}' is called from hot path '{full}' "
                f"({caller_path}:{line}) but its own file cannot see that: "
                "mark the def with '# hotpath: <reason>' so the "
                "vectorization rules cover it",
            )

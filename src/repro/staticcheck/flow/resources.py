"""``resource-leak`` / ``double-release``: must-release path analysis.

The online deployment acquires long-lived resources — executor pools,
files, sockets, storage connections, bare ``lock.acquire()`` calls — and
a single exception path that skips the release turns the cron-style
retrain/serve loop into a slow leak.  This analysis tracks each acquisition along the
CFG (including the exception edges the builder models) and reports:

* ``resource-leak`` — an acquisition with *some* path to function exit
  on which no release runs, reported at the acquisition site;
* ``double-release`` — a release that can execute when the resource may
  already be released (conditionally-released then released again),
  reported at the second release site.

The state maps local variable names to *fact sets* — ``(status, kind,
release_verb, line)`` tuples with status ``held`` or ``released`` — and
the join is set union, so both families are may-analyses: a fact
survives if it holds on any path.

Deliberate scope limits, tuned to stay quiet on correct code:

* ``with``-managed acquisitions are never tracked — the context manager
  *is* the release, on every path;
* only ``Name``-rooted receivers are tracked (``self._lock.acquire()``
  belongs to the project-level concurrency rules);
* a tracked value escapes — and tracking stops — when it is returned,
  yielded, stored into an attribute/subscript/container, passed to a
  constructor (capitalized callee) or to ``append``-like registration
  methods, or re-aliased; ownership moved elsewhere is someone else's
  obligation.  Plain argument passing does **not** escape: a helper may
  *use* the resource, but the acquiring frame still owns the release.
"""

from __future__ import annotations

import ast

from repro.staticcheck.findings import Finding
from repro.staticcheck.flow import cfgs_for
from repro.staticcheck.flow.cfg import ExceptBind, ForBind, Test, WithEnter, WithExit
from repro.staticcheck.flow.fixpoint import ForwardAnalysis, run_forward
from repro.staticcheck.registry import Rule, register

__all__ = ["DoubleReleaseRule", "ResourceLeakRule"]

#: Factory patterns: matcher -> (kind shown in messages, release verb).
#: Dotted names come from ModuleContext.dotted_name (aliases resolved).
_EXACT_FACTORIES = {
    "open": ("file handle", "close"),
    "io.open": ("file handle", "close"),
    "sqlite3.connect": ("database connection", "close"),
    "socket.socket": ("socket", "close"),
}
_SUFFIX_FACTORIES = {
    "ThreadPoolExecutor": ("executor pool", "shutdown"),
    "ProcessPoolExecutor": ("executor pool", "shutdown"),
}

#: Receiver methods that move ownership into the receiver's structure.
_REGISTERS = {"add", "append", "appendleft", "put", "put_nowait", "register", "setdefault"}

_HELD = "held"
_RELEASED = "released"


def _factory(dotted: str | None):
    if dotted is None:
        return None
    hit = _EXACT_FACTORIES.get(dotted)
    if hit is not None:
        return hit
    for suffix, info in _SUFFIX_FACTORIES.items():
        if dotted == suffix or dotted.endswith("." + suffix):
            return info
    return None


class _ResourceAnalysis(ForwardAnalysis):
    """var name -> frozenset of (status, kind, release_verb, acq_line)."""

    def __init__(self, module):
        self.module = module

    def initial(self):
        return {}

    def join(self, a, b):
        if a == b:
            return a
        out = dict(a)
        for name, facts in b.items():
            out[name] = out.get(name, frozenset()) | facts
        return out

    # -- transfer ----------------------------------------------------------

    def transfer(self, element, state):
        if isinstance(element, (Test, WithExit)):
            return state
        if isinstance(element, ForBind):
            return self._drop_bound(element.node.target, state)
        if isinstance(element, WithEnter):
            # The context manager owns the release; also shadow any
            # previously tracked name the ``as`` target rebinds.
            if element.item.optional_vars is not None:
                return self._drop_bound(element.item.optional_vars, state)
            return state
        if isinstance(element, ExceptBind):
            name = element.handler.name
            return {k: v for k, v in state.items() if k != name} if name in state else state
        if not isinstance(element, ast.stmt):
            return state
        return self._stmt(element, state, None)

    def _stmt(self, stmt, state, report):
        out = state
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            out = self._assign(stmt, stmt.targets[0], stmt.value, out, report)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            out = self._assign(stmt, stmt.target, stmt.value, out, report)
        elif isinstance(stmt, (ast.Return, ast.Expr)) and getattr(stmt, "value", None) is not None:
            out = self._drop_escapes(stmt.value, out, returns=isinstance(stmt, ast.Return))
        out = self._apply_calls(stmt, out, report)
        return out

    def _assign(self, stmt, target, value, state, report):
        factory = _factory(self.module.dotted_name(value.func)) if isinstance(
            value, ast.Call
        ) else None
        if isinstance(target, ast.Name):
            if factory is not None:
                kind, release = factory
                old = state.get(target.id, frozenset())
                if report is not None:
                    for status, old_kind, old_release, line in old:
                        if status == _HELD:
                            report(
                                "resource-leak",
                                line,
                                f"{old_kind} acquired on line {line} is rebound "
                                f"before {old_release}() on some path",
                            )
                out = dict(state)
                out[target.id] = frozenset({(_HELD, kind, release, stmt.lineno)})
                return out
            # Rebinding (aliasing, deriving) a tracked name: the old
            # obligation moved; tracking either name further would guess.
            out = self._drop_escapes(value, state, returns=False)
            if target.id in out:
                out = {k: v for k, v in out.items() if k != target.id}
            return out
        # Attribute / subscript / tuple stores: anything tracked flowing
        # into them escapes.
        return self._drop_escapes(value, state, returns=False)

    def _apply_calls(self, stmt, state, report):
        out = state
        for call in (n for n in ast.walk(stmt) if isinstance(n, ast.Call)):
            out = self._call(call, out, report)
        return out

    def _call(self, call: ast.Call, state, report):
        func = call.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            receiver = func.value.id
            verb = func.attr
            facts = state.get(receiver)
            if facts and any(verb == release for _s, _k, release, _l in facts):
                if report is not None:
                    for status, kind, release, line in facts:
                        if status == _RELEASED and verb == release:
                            report(
                                "double-release",
                                call.lineno,
                                f"{kind} (acquired on line {line}) may already "
                                f"be {release}d when {release}() runs again",
                            )
                out = dict(state)
                out[receiver] = frozenset(
                    (_RELEASED, kind, release, line) for _s, kind, release, line in facts
                )
                return out
            if facts is None and verb == "acquire" and not call.keywords:
                out = dict(state)
                out[receiver] = frozenset({(_HELD, "lock", "release", call.lineno)})
                return out
            if verb in _REGISTERS:
                tracked = [a.id for a in call.args if isinstance(a, ast.Name) and a.id in state]
                if tracked:
                    return {k: v for k, v in state.items() if k not in tracked}
        elif isinstance(func, (ast.Name, ast.Attribute)):
            last = func.id if isinstance(func, ast.Name) else func.attr
            if last[:1].isupper():  # constructor wrap takes ownership
                tracked = [a.id for a in call.args if isinstance(a, ast.Name) and a.id in state]
                if tracked:
                    return {k: v for k, v in state.items() if k not in tracked}
        return state

    def _drop_escapes(self, value: ast.expr, state, *, returns: bool):
        if not state:
            return state
        if returns or isinstance(value, (ast.Tuple, ast.List, ast.Set, ast.Dict, ast.Yield)):
            names = {n.id for n in ast.walk(value) if isinstance(n, ast.Name)}
            tracked = names & state.keys()
            if tracked:
                return {k: v for k, v in state.items() if k not in tracked}
        return state

    @staticmethod
    def _drop_bound(target, state):
        names = {n.id for n in ast.walk(target) if isinstance(n, ast.Name)}
        if not (names & state.keys()):
            return state
        return {k: v for k, v in state.items() if k not in names}


def _analyze_module(module) -> dict[str, list[Finding]]:
    """Run the resource analysis once per module; both rules read it."""
    cached = getattr(module, "_resource_findings", None)
    if cached is not None:
        return cached

    findings: dict[str, list[Finding]] = {"resource-leak": [], "double-release": []}
    reported: set[tuple[str, int, str]] = set()

    def report(rule_id: str, line: int, message: str) -> None:
        key = (rule_id, line, message)
        if key not in reported:
            reported.add(key)
            findings[rule_id].append(
                Finding(path=module.path, line=line, col=0, rule_id=rule_id, message=message)
            )

    analysis = _ResourceAnalysis(module)
    for graph in cfgs_for(module):
        if graph.node is None:
            continue  # module-level resources live as long as the process
        result = run_forward(graph.cfg, analysis)

        for block in graph.cfg.blocks:
            if block.id not in result.in_states:
                continue
            state = result.in_states[block.id]
            for element in block.elements:
                if isinstance(element, ast.stmt):
                    state = analysis._stmt(element, state, report)
                else:
                    state = analysis.transfer(element, state)

        exit_state = result.in_states.get(graph.cfg.exit)
        if exit_state:
            for facts in exit_state.values():
                for status, kind, release, line in sorted(facts, key=lambda f: f[3]):
                    if status == _HELD:
                        report(
                            "resource-leak",
                            line,
                            f"{kind} acquired here has a path to function exit "
                            f"without {release}()",
                        )

    module._resource_findings = findings
    return findings


@register
class ResourceLeakRule(Rule):
    id = "resource-leak"
    description = (
        "resource (pool, file, socket, connection, lock) acquired with a "
        "path to function exit on which it is never released"
    )

    def check(self, module):
        yield from _analyze_module(module)["resource-leak"]


@register
class DoubleReleaseRule(Rule):
    id = "double-release"
    description = "release call that can run when the resource may already be released"

    def check(self, module):
        yield from _analyze_module(module)["double-release"]

"""Concurrency rule family: races between the retrain and serve paths.

MCBound's online deployment is concurrent by construction — a threaded
HTTP server handles inference requests while a cron-scheduled Training
Workflow refreshes the shared model state — so the linter must reason
about thread boundaries, not just sequential correctness.  Two rules
share one :class:`ConcurrencyModel` built from the per-module lock/thread
facts (:class:`~repro.staticcheck.project.summary.ModuleSummary`
``concurrency``):

* ``unguarded-shared-write`` — an attribute or module global is mutated
  from two or more distinct thread-boundary entry points (HTTP handlers
  and ``threading.Thread`` targets) with no lock common to every write
  site.
* ``blocking-under-lock`` — I/O, ``parallel_map`` fan-out,
  or model (re)training invoked while a lock is held, stalling every
  competing thread for the duration.

Lock-order inversions have no rule here: the runtime lock-order
sanitizer (:mod:`repro.sanitizers.lockorder`) records one as soon as
tier-1 runs both orders, and these facts cannot name a lock reached
through an attribute chain such as ``self.encoder.embedder._lock``.

Entry-point reachability walks an approximate function-level call graph:
statically resolvable dotted names, ``self.`` method calls within the
defining class, and — for calls on plain local receivers like
``framework.train(...)`` — a unique-method-name match
against every class in the project (applied only when exactly one class
defines the method, so it cannot mislink).
"""

from __future__ import annotations

from typing import Iterator

from repro.staticcheck.findings import Finding
from repro.staticcheck.registry import ProjectRule, register_project

__all__ = [
    "BlockingUnderLockRule",
    "ConcurrencyModel",
    "UnguardedSharedWriteRule",
]

#: Dotted callees that block the calling thread on external progress.
BLOCKING_CALLS = frozenset(
    {
        "time.sleep",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "subprocess.Popen",
        "urllib.request.urlopen",
        "socket.create_connection",
        "requests.get",
        "requests.post",
        "requests.request",
    }
)

#: Path-object I/O: any receiver, these method names read/write files.
_BLOCKING_SUFFIXES = (".read_text", ".write_text", ".read_bytes", ".write_bytes")

#: Fan-out primitives: holding a lock across them serializes the fan-out.
_FANOUT_BASENAMES = frozenset({"parallel_map"})

#: Project callees that are model (re)training when resolved in-package.
_RETRAIN_BASENAMES = frozenset({"train", "training", "fit", "partial_fit", "partial_fit_idf"})


class ConcurrencyModel:
    """Whole-program lock/thread model assembled from module summaries.

    Built lazily by the first concurrency rule that runs and shared via
    the :class:`ProjectContext` (the rules attach it to the context), so
    the call-graph closure is computed once per run.
    """

    def __init__(self, project) -> None:
        self.project = project
        #: id of every lock created in any module
        self.locks: set[str] = set()
        #: function full name -> facts dict
        self.funcs: dict[str, dict] = {}
        #: function full name -> defining file path
        self.paths: dict[str, str] = {}
        #: function full name -> (module, enclosing class name or "")
        self.homes: dict[str, tuple[str, str]] = {}
        #: every statically known callable (facts or signature): full names
        self.known: set[str] = set()
        #: method basename -> full names of Class.method definitions
        self.method_index: dict[str, set[str]] = {}
        self._build_tables()
        self.edges = self._build_edges()
        self.roots = self._find_roots()
        self.roots_reaching = self._reachability()

    # -- assembly ----------------------------------------------------------

    def _build_tables(self) -> None:
        for module in sorted(self.project.summaries):
            summary = self.project.summaries[module]
            facts = summary.concurrency or {}
            self.locks.update(facts.get("locks", {}))
            classes = {
                qual for qual, sig in summary.functions.items() if sig.kind == "class"
            }
            for qual in sorted(facts.get("functions", {})):
                if not qual:
                    continue  # module-level statements run once, at import
                full = f"{module}.{qual}"
                self.funcs[full] = facts["functions"][qual]
                self.paths[full] = summary.path
                head = qual.split(".", 1)[0]
                self.homes[full] = (module, head if head in classes else "")
                self.known.add(full)
            for qual in summary.functions:
                full = f"{module}.{qual}"
                self.known.add(full)
                self.paths.setdefault(full, summary.path)
                head = qual.split(".", 1)[0]
                self.homes.setdefault(full, (module, head if head in classes else ""))
                if "." in qual:
                    basename = qual.rsplit(".", 1)[-1]
                    self.method_index.setdefault(basename, set()).add(full)

    def resolve_callee(self, callee: str, caller: str, local_receiver: bool = False) -> str | None:
        """Full name of a call target, or None when not statically known."""
        module, cls = self.homes.get(caller, ("", ""))
        if callee.startswith("self."):
            rest = callee[5:]
            if "." not in rest and cls:
                candidate = f"{module}.{cls}.{rest}"
                if candidate in self.known:
                    return candidate
            return None
        if "." not in callee:
            candidate = f"{module}.{callee}"
            return candidate if candidate in self.known else None
        resolved = self.project.resolve(callee)
        if resolved is not None and resolved.qualname:
            candidate = f"{resolved.summary.module}.{resolved.qualname}"
            if candidate in self.known:
                return candidate
        if local_receiver:
            matches = self.method_index.get(callee.rsplit(".", 1)[-1], set())
            if len(matches) == 1:
                return next(iter(matches))
        return None

    def _build_edges(self) -> dict[str, set[str]]:
        edges: dict[str, set[str]] = {}
        for full in sorted(self.funcs):
            out: set[str] = set()
            for callee, _line, _held, local_receiver in self.funcs[full].get("calls", []):
                target = self.resolve_callee(callee, full, local_receiver)
                if target is not None and target != full:
                    out.add(target)
            edges[full] = out
        return edges

    def _find_roots(self) -> dict[str, str]:
        """Entry points that run on their own thread of control.

        Maps the function's full name to a human-readable side label:
        ``handler:`` for request handlers (each runs on a server thread)
        and ``thread:`` for ``threading.Thread``/``Timer`` targets.
        """
        roots: dict[str, str] = {}
        for full in sorted(self.funcs):
            facts = self.funcs[full]
            if "handler" in facts.get("roles", []):
                roots[full] = f"handler:{full.rsplit('.', 1)[-1]}"
            for name, _line in facts.get("thread_targets", []):
                target = self.resolve_callee(name, full, local_receiver=True)
                if target is not None:
                    roots.setdefault(target, f"thread:{target.rsplit('.', 1)[-1]}")
        return roots

    def _reachability(self) -> dict[str, set[str]]:
        """function full name -> labels of every root that can reach it."""
        reaching: dict[str, set[str]] = {}
        for root in sorted(self.roots):
            label = self.roots[root]
            queue = [root]
            seen = {root}
            while queue:
                node = queue.pop()
                reaching.setdefault(node, set()).add(label)
                for succ in sorted(self.edges.get(node, ())):
                    if succ not in seen:
                        seen.add(succ)
                        queue.append(succ)
        return reaching

    def held_locks(self, held: list[str]) -> list[str]:
        """Filter a candidate held set down to real (created) locks."""
        return [lock for lock in held if lock in self.locks]


def _model_for(project) -> ConcurrencyModel:
    model = getattr(project, "_concurrency_model", None)
    if model is None:
        model = ConcurrencyModel(project)
        project._concurrency_model = model
    return model


def _short(lock_id: str) -> str:
    """Human-sized lock name: the last two dotted segments."""
    return ".".join(lock_id.rsplit(".", 2)[-2:])


@register_project
class UnguardedSharedWriteRule(ProjectRule):
    id = "unguarded-shared-write"
    description = (
        "shared state is mutated from two or more thread-boundary entry "
        "points (handlers, thread targets) with no common lock"
    )

    def check(self, project) -> Iterator[Finding]:
        model = _model_for(project)
        #: target id -> list of (path, line, held lock frozenset, root labels)
        sites: dict[str, list[tuple[str, int, frozenset[str], set[str]]]] = {}
        for full in sorted(model.funcs):
            roots = model.roots_reaching.get(full)
            if not roots:
                continue  # not reachable from any concurrent entry point
            path = model.paths[full]
            for target, line, held in model.funcs[full].get("writes", []):
                if target in model.locks:
                    continue  # assigning the lock attribute itself
                sites.setdefault(target, []).append(
                    (path, line, frozenset(model.held_locks(held)), roots)
                )
        for target in sorted(sites):
            writes = sorted(sites[target], key=lambda s: (s[0], s[1]))
            all_roots: set[str] = set()
            for _path, _line, _held, roots in writes:
                all_roots |= roots
            if len(all_roots) < 2:
                continue  # single entry point: no cross-thread write pair
            common = frozenset.intersection(*(held for _p, _l, held, _r in writes))
            if common:
                continue
            path, line, _held, _roots = writes[0]
            yield self.finding(
                path,
                line,
                f"'{_short(target)}' is written from {len(all_roots)} "
                f"concurrent entry points ({', '.join(sorted(all_roots))}) "
                f"across {len(writes)} site(s) with no common lock; guard "
                "every write with one shared lock or confine the state to "
                "a single thread",
            )


@register_project
class BlockingUnderLockRule(ProjectRule):
    id = "blocking-under-lock"
    description = (
        "I/O, parallel fan-out or model (re)training runs while a lock is "
        "held, stalling every competing thread"
    )

    def _blocking_reason(self, model: ConcurrencyModel, callee: str, caller: str, local_receiver: bool) -> str | None:
        basename = callee.rsplit(".", 1)[-1]
        if callee in BLOCKING_CALLS or callee == "open":
            return f"'{callee}' blocks on I/O or the clock"
        if callee.endswith(_BLOCKING_SUFFIXES):
            return f"'{callee}' performs file I/O"
        if basename in _FANOUT_BASENAMES:
            return f"'{basename}' fans work out to a pool"
        target = model.resolve_callee(callee, caller, local_receiver)
        if target is not None and target.rsplit(".", 1)[-1] in _RETRAIN_BASENAMES:
            return f"'{callee}' (re)trains a model"
        return None

    def check(self, project) -> Iterator[Finding]:
        model = _model_for(project)
        for full in sorted(model.funcs):
            facts = model.funcs[full]
            path = model.paths[full]
            for callee, line, held, local_receiver in facts.get("calls", []):
                locks = model.held_locks(held)
                if not locks:
                    continue
                reason = self._blocking_reason(model, callee, full, local_receiver)
                if reason is None:
                    continue
                yield self.finding(
                    path,
                    line,
                    f"{reason} while holding "
                    f"{', '.join(_short(lock) for lock in sorted(locks))}; "
                    "move the slow work outside the critical section and "
                    "publish its result under the lock",
                )

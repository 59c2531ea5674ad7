"""Whole-program process model assembled from per-module procs facts.

The :class:`ProcessModel` answers the questions the four procs rules ask:

* where are the process boundaries, and what start method is in effect
  at each one (site ``get_context`` pin > module ``set_start_method`` >
  project-wide unique pin > unpinned, which on POSIX defaults to fork)?
* which functions run on the *worker side* of each boundary (the call
  graph closure of the spawn target, resolved through the PR 4
  :class:`~repro.staticcheck.project.concurrency.ConcurrencyModel`)?
* which locks and OS handles live at module/class scope — i.e. exist in
  the parent before the boundary and are silently duplicated into
  fork-children?

Soundness caveats are deliberate and documented in DESIGN §12: a
``Process(target=...)`` whose target is not a statically resolvable name
contributes no worker closure, and a ``parallel_map`` whose backend is
not a string literal is not a boundary at all.  The model is memoized on
the :class:`~repro.staticcheck.project.graph.ProjectContext` (like the
concurrency model), so the four rules share one construction per run.
"""

from __future__ import annotations

from repro.staticcheck.project.concurrency import ConcurrencyModel, _model_for

__all__ = ["ProcessModel", "Spawn", "process_model_for"]


class Spawn:
    """One process boundary, with its resolved worker-side closure."""

    def __init__(self, module: str, path: str, doc: dict):
        self.module = module
        self.path = path
        self.fn = doc["fn"]  # enclosing function qual ("" = module level)
        self.line = doc["line"]
        self.kind = doc["kind"]  # "process" | "executor" | "parallel-map"
        self.target = doc["target"]
        self.target_shape = doc["target_shape"]
        self.args = list(doc["args"])
        self.site_method = doc["method"]
        #: filled in by the model
        self.resolved_target: str | None = None
        self.closure: set[str] = set()

    @property
    def caller(self) -> str:
        return f"{self.module}.{self.fn}" if self.fn else self.module

    def describe(self) -> str:
        what = {
            "process": "Process(...)",
            "executor": "executor submit",
            "parallel-map": "parallel_map(backend='process')",
        }[self.kind]
        return f"{what} at {self.path}:{self.line}"


class ProcessModel:
    """Project-wide process-boundary tables shared by the procs rules."""

    def __init__(self, project) -> None:
        self.project = project
        self.cm: ConcurrencyModel = _model_for(project)
        #: module -> pinned start method (set_start_method literal)
        self.start_methods: dict[str, str] = {}
        self.spawns: list[Spawn] = []
        #: handle id -> (kind, path, line) from every module
        self.handles: dict[str, tuple[str, str, int]] = {}
        #: function full name -> spawns whose worker closure contains it
        self.worker_spawns: dict[str, list[Spawn]] = {}
        self._build()

    # -- assembly ----------------------------------------------------------

    def _build(self) -> None:
        for module in sorted(self.project.summaries):
            summary = self.project.summaries[module]
            facts = summary.procs or {}
            if facts.get("start_method"):
                self.start_methods[module] = facts["start_method"]
            for handle_id in sorted(facts.get("handles", {})):
                kind, line = facts["handles"][handle_id]
                self.handles.setdefault(handle_id, (kind, summary.path, line))
            for doc in facts.get("spawns", []):
                self.spawns.append(Spawn(module, summary.path, doc))
        for spawn in self.spawns:
            spawn.resolved_target = self._resolve_target(spawn)
            if spawn.resolved_target is not None:
                spawn.closure = self._closure_of(spawn.resolved_target)
                for full in spawn.closure:
                    self.worker_spawns.setdefault(full, []).append(spawn)

    def _resolve_target(self, spawn: Spawn) -> str | None:
        target = spawn.target
        if target is None:
            return None
        if spawn.fn:
            # A nested function is closure-scoped: known to the fact
            # tables under ``module.outer.inner`` but invisible to the
            # generic resolver (boundary-escape flags it separately).
            nested = f"{spawn.module}.{spawn.fn}.{target}"
            if nested in self.cm.known:
                return nested
            return self.cm.resolve_callee(target, spawn.caller, local_receiver=True)
        # Module-level spawn: replicate resolve_callee with home (module, "").
        if target.startswith("self."):
            return None
        if "." not in target:
            candidate = f"{spawn.module}.{target}"
            return candidate if candidate in self.cm.known else None
        resolved = self.project.resolve(target)
        if resolved is not None and resolved.qualname:
            candidate = f"{resolved.summary.module}.{resolved.qualname}"
            if candidate in self.cm.known:
                return candidate
        return None

    def _closure_of(self, root: str) -> set[str]:
        closure = {root}
        queue = [root]
        while queue:
            node = queue.pop()
            for succ in sorted(self.cm.edges.get(node, ())):
                if succ not in closure:
                    closure.add(succ)
                    queue.append(succ)
        return closure

    # -- start-method reasoning --------------------------------------------

    def effective_method(self, spawn: Spawn) -> str | None:
        """Start method in effect at a spawn site, or None when unpinned."""
        if spawn.site_method is not None:
            return spawn.site_method
        if spawn.module in self.start_methods:
            return self.start_methods[spawn.module]
        pins = set(self.start_methods.values())
        if len(pins) == 1:
            return next(iter(pins))
        return None

    def fork_possible(self, spawn: Spawn) -> bool:
        """Can this boundary inherit parent state by forking?

        Unpinned counts as fork-possible: fork is the POSIX default, and
        the serving fleet runs on Linux.
        """
        return self.effective_method(spawn) in (None, "fork")

    def pickles_across(self, spawn: Spawn) -> bool:
        """Does the target/argument payload cross via pickle?

        Pool-based boundaries always pickle their tasks; a raw ``Process``
        pickles only under spawn/forkserver (fork inherits by memory).
        """
        if spawn.kind in ("executor", "parallel-map"):
            return True
        return self.effective_method(spawn) in ("spawn", "forkserver")

    # -- scope classification ----------------------------------------------

    def _split_scope(self, object_id: str) -> tuple[str, str] | None:
        """(module, rest) for a lock/handle id, by longest module prefix."""
        parts = object_id.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            module = ".".join(parts[:cut])
            if module in self.project.summaries:
                return module, ".".join(parts[cut:])
        return None

    def is_inheritable(self, object_id: str) -> bool:
        """Does this lock/handle exist in the parent before any spawn?

        True for module-level ids (``M.name``) and class-attribute ids
        (``M.Cls.attr``) — both are created at import/construction time
        and silently duplicated into fork children.  Function-local ids
        (``M.f.name``) are scoped to one call and skipped.
        """
        split = self._split_scope(object_id)
        if split is None:
            return False
        module, rest = split
        if "." not in rest:
            return True
        head, tail = rest.split(".", 1)
        if "." in tail:
            return False  # nested function scope
        sig = self.project.summaries[module].functions.get(head)
        return sig is not None and sig.kind == "class"


def process_model_for(project) -> ProcessModel:
    model = getattr(project, "_process_model", None)
    if model is None:
        model = ProcessModel(project)
        project._process_model = model
    return model

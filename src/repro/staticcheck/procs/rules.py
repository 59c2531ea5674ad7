"""Process-boundary rule family: what breaks when the code goes multi-process.

Four project rules over the shared :class:`ProcessModel` (spawn sites,
worker-side call-graph closures, start methods, inheritable locks and
handles):

* ``fork-unsafe-inheritance`` — a lock or OS handle that exists in the
  parent before a fork-possible boundary is *used* by worker-side code;
  the child's copy shares no state with the parent (lock epochs vanish,
  buffered handles double-flush, sockets and sqlite connections are
  undefined to share).
* ``boundary-escape`` — a callable or argument crosses a boundary that
  pickling (or fork semantics) cannot carry safely: lambdas, nested
  closures, bound methods, locks and handles.
* ``child-global-divergence`` — module-level state is written inside a
  worker-executed function; the write lands in the child's copy of the
  module and the parent never sees it.
* ``blocking-in-worker`` — retraining, I/O, nested fan-out or lock
  acquisition inside a function that is both worker-side and *hot* (PR
  7's entry-point/``# hotpath:`` derivation), stalling the serving pool.
"""

from __future__ import annotations

from typing import Iterator

from repro.staticcheck.findings import Finding
from repro.staticcheck.perf.hotpath import ENTRY_POINTS
from repro.staticcheck.procs.model import ProcessModel, Spawn, process_model_for
from repro.staticcheck.project.concurrency import (
    BLOCKING_CALLS,
    _BLOCKING_SUFFIXES,
    _FANOUT_BASENAMES,
    _RETRAIN_BASENAMES,
    _short,
)
from repro.staticcheck.registry import ProjectRule, register_project

__all__ = [
    "BlockingInWorkerRule",
    "BoundaryEscapeRule",
    "ChildGlobalDivergenceRule",
    "ForkUnsafeInheritanceRule",
]


def _method_clause(model: ProcessModel, spawn: Spawn) -> str:
    method = model.effective_method(spawn)
    if method is None:
        return "the start method is unpinned (POSIX defaults to fork)"
    return f"under the '{method}' start method"


def _arg_candidates(model: ProcessModel, spawn: Spawn, arg: str) -> list[str]:
    """Project-wide identities an argument name may refer to at the site."""
    candidates: list[str] = []
    if arg.startswith("self."):
        _module, cls = model.cm.homes.get(spawn.caller, ("", ""))
        if cls:
            candidates.append(f"{spawn.module}.{cls}.{arg[5:]}")
        return candidates
    if spawn.fn:
        candidates.append(f"{spawn.module}.{spawn.fn}.{arg}")
    candidates.append(f"{spawn.module}.{arg}")
    return candidates


@register_project
class ForkUnsafeInheritanceRule(ProjectRule):
    id = "fork-unsafe-inheritance"
    description = (
        "a lock or OS handle created before a fork-possible process "
        "boundary is used by worker-side code; the forked copy shares no "
        "state with the parent"
    )

    def check(self, project) -> Iterator[Finding]:
        model = process_model_for(project)
        for spawn in model.spawns:
            if not model.fork_possible(spawn) or not spawn.closure:
                continue
            reported: set[str] = set()
            for full in sorted(spawn.closure):
                facts = model.cm.funcs.get(full, {})
                for lock, _line, _held in facts.get("acquires", []):
                    if (
                        lock in model.cm.locks
                        and model.is_inheritable(lock)
                        and lock not in reported
                    ):
                        reported.add(lock)
                        kind, lock_path, lock_line = model.cm.locks[lock]
                        yield self.finding(
                            spawn.path,
                            spawn.line,
                            f"worker-side '{full}' acquires {kind} "
                            f"'{_short(lock)}' (created at {lock_path}:"
                            f"{lock_line}) inherited across this process "
                            f"boundary; {_method_clause(model, spawn)}, so "
                            "the child gets a fork-copy whose state (holder, "
                            "sanitizer order graph) is divorced from the "
                            "parent's — create the lock inside the worker or "
                            "pin the 'spawn' start method",
                        )
                for handle in self._handles_used(model, full, facts):
                    if handle in reported:
                        continue
                    reported.add(handle)
                    kind, handle_path, handle_line = model.handles[handle]
                    yield self.finding(
                        spawn.path,
                        spawn.line,
                        f"worker-side '{full}' uses the {kind} "
                        f"'{_short(handle)}' (created at {handle_path}:"
                        f"{handle_line}) inherited across this process "
                        f"boundary; {_method_clause(model, spawn)}, so the "
                        "child inherits the parent's file descriptor — "
                        "buffered writes interleave and seek positions are "
                        "shared; open the handle inside the worker instead",
                    )

    @staticmethod
    def _handles_used(model: ProcessModel, full: str, facts: dict) -> list[str]:
        module, cls = model.cm.homes.get(full, ("", ""))
        used: list[str] = []
        for handle in sorted(model.handles):
            if not model.is_inheritable(handle):
                continue
            split = model._split_scope(handle)
            if split is None or split[0] != module:
                continue
            rest = split[1]
            if "." in rest:
                owner_cls, attr = rest.split(".", 1)
                if owner_cls != cls:
                    continue
                needle = f"self.{attr}"
            else:
                needle = rest
            for callee, _line, _held, _local in facts.get("calls", []):
                if callee == needle or callee.startswith(needle + "."):
                    used.append(handle)
                    break
        return used


@register_project
class BoundaryEscapeRule(ProjectRule):
    id = "boundary-escape"
    description = (
        "a callable or argument crosses a process boundary that pickling "
        "or fork semantics cannot carry safely (closures, bound methods, "
        "locks, handles)"
    )

    def check(self, project) -> Iterator[Finding]:
        model = process_model_for(project)
        for spawn in model.spawns:
            yield from self._check_target(model, spawn)
            yield from self._check_args(model, spawn)

    def _check_target(self, model: ProcessModel, spawn: Spawn) -> Iterator[Finding]:
        if not model.pickles_across(spawn):
            return
        if spawn.target_shape == "lambda":
            yield self.finding(
                spawn.path,
                spawn.line,
                "the task handed across this process boundary is a lambda; "
                "lambdas cannot be pickled, so the pool fails mid-run — "
                "define the task at module top level "
                "(ensure_picklable would reject object path '<lambda>')",
            )
        elif spawn.target_shape == "self-method":
            yield self.finding(
                spawn.path,
                spawn.line,
                f"the task '{spawn.target}' is a bound method; pickling it "
                "drags its whole instance (locks, caches, open handles) "
                "across the process boundary — pass a module-level function "
                f"plus plain data (object path '{spawn.target}.__self__')",
            )
        elif spawn.target_shape == "nested":
            yield self.finding(
                spawn.path,
                spawn.line,
                f"the task '{spawn.target}' is defined inside "
                f"'{spawn.fn}', so it closes over the enclosing frame and "
                "cannot be pickled across the process boundary — move it to "
                "module top level (ensure_picklable would reject object "
                f"path '{spawn.fn}.<locals>.{spawn.target}')",
            )

    def _check_args(self, model: ProcessModel, spawn: Spawn) -> Iterator[Finding]:
        for arg in spawn.args:
            for candidate in _arg_candidates(model, spawn, arg):
                if candidate in model.cm.locks:
                    kind, _path, _line = model.cm.locks[candidate]
                    yield self.finding(
                        spawn.path,
                        spawn.line,
                        f"{kind} '{_short(candidate)}' is passed as a "
                        "boundary argument (object path "
                        f"'{arg}'); a lock cannot synchronize across "
                        "processes — each side would lock a private copy; "
                        "use a multiprocessing primitive or redesign the "
                        "hand-off",
                    )
                    break
                if candidate in model.handles:
                    kind, _path, _line = model.handles[candidate]
                    yield self.finding(
                        spawn.path,
                        spawn.line,
                        f"{kind} '{_short(candidate)}' is passed as a "
                        f"boundary argument (object path '{arg}'); OS "
                        "handles cannot cross a process boundary by "
                        "value — open the resource inside the worker",
                    )
                    break


@register_project
class ChildGlobalDivergenceRule(ProjectRule):
    id = "child-global-divergence"
    description = (
        "module-level state is written inside a worker-executed function; "
        "the write lands in the child process and is invisible to the "
        "parent"
    )

    def check(self, project) -> Iterator[Finding]:
        model = process_model_for(project)
        for full in sorted(model.worker_spawns):
            facts = model.cm.funcs.get(full, {})
            spawn = model.worker_spawns[full][0]
            reported: set[str] = set()
            for target, line, _held in facts.get("writes", []):
                if target in reported or target in model.cm.locks:
                    continue
                split = model._split_scope(target)
                if split is None or "." in split[1]:
                    continue  # instance attribute or nested scope, not a module global
                reported.add(target)
                yield self.finding(
                    model.cm.paths[full],
                    line,
                    f"module-level '{split[1]}' is written inside "
                    f"'{full}', which runs in a worker process "
                    f"({spawn.describe()}); the write mutates the child's "
                    "copy of the module and the parent never observes it — "
                    "return the value to the parent instead",
                )


@register_project
class BlockingInWorkerRule(ProjectRule):
    id = "blocking-in-worker"
    description = (
        "retraining, I/O, nested fan-out or lock acquisition inside a hot "
        "worker-side function; one slow task stalls the whole serving pool"
    )

    def check(self, project) -> Iterator[Finding]:
        model = process_model_for(project)
        for full in sorted(model.worker_spawns):
            if not self._is_hot(model, full):
                continue
            facts = model.cm.funcs.get(full, {})
            path = model.cm.paths.get(full)
            if path is None:
                continue
            spawn = model.worker_spawns[full][0]
            for callee, line, _held, local_receiver in facts.get("calls", []):
                reason = self._blocking_reason(model, callee, full, local_receiver)
                if reason is None:
                    continue
                yield self.finding(
                    path,
                    line,
                    f"{reason} inside hot worker-side '{full}' "
                    f"({spawn.describe()} proves it runs on the worker "
                    "path); every task behind it in the pool queue stalls — "
                    "hoist the slow work to the parent or off the hot path",
                )
            for lock, line, _held in facts.get("acquires", []):
                if lock not in model.cm.locks:
                    continue
                kind, _lock_path, _lock_line = model.cm.locks[lock]
                yield self.finding(
                    path,
                    line,
                    f"hot worker-side '{full}' acquires {kind} "
                    f"'{_short(lock)}' ({spawn.describe()} proves it runs "
                    "on the worker path); contention serializes the pool — "
                    "keep the hot worker path lock-free and confine "
                    "synchronization to the parent",
                )

    @staticmethod
    def _is_hot(model: ProcessModel, full: str) -> bool:
        basename = full.rsplit(".", 1)[-1]
        if basename in ENTRY_POINTS:
            return True
        module, _cls = model.cm.homes.get(full, ("", ""))
        summary = model.project.summaries.get(module)
        if summary is None:
            return False
        qual = full[len(module) + 1 :] if module else full
        return qual in summary.hotpaths

    @staticmethod
    def _blocking_reason(model: ProcessModel, callee: str, caller: str, local_receiver: bool) -> str | None:
        basename = callee.rsplit(".", 1)[-1]
        if callee in BLOCKING_CALLS or callee == "open":
            return f"'{callee}' blocks on I/O or the clock"
        if callee.endswith(_BLOCKING_SUFFIXES):
            return f"'{callee}' performs file I/O"
        if basename in _FANOUT_BASENAMES:
            return f"'{basename}' fans out a nested pool"
        target = model.cm.resolve_callee(callee, caller, local_receiver)
        if target is not None and target.rsplit(".", 1)[-1] in _RETRAIN_BASENAMES:
            return f"'{callee}' (re)trains a model"
        return None

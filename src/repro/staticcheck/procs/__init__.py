"""Process-boundary tier: fork-safety, escapes, worker-side effects.

Every other tier reasons within one process; this package reasons about
what happens *across* the fork/spawn boundary — today the
``parallel_map(backend="process")`` fan-out behind
``repro.staticcheck --jobs``.  Three layers:

* :mod:`repro.staticcheck.procs.facts` — a per-module AST pass that
  records process *spawn sites* (``multiprocessing.Process``,
  ``ProcessPoolExecutor`` submit/map, ``parallel_map`` on the literal
  ``backend="process"``), start-method pins (``set_start_method`` /
  ``get_context``) and non-lock handle creations (files, sockets, sqlite
  connections).  The facts are JSON-serializable and live on
  :class:`~repro.staticcheck.project.summary.ModuleSummary` so the
  incremental cache serves them without re-parsing.
* :mod:`repro.staticcheck.procs.model` — the whole-program
  :class:`~repro.staticcheck.procs.model.ProcessModel`: spawn targets
  resolved through the PR 4 :class:`ConcurrencyModel` call graph, the
  worker-side closure of every boundary, effective start methods, and
  project-wide tables of inheritable locks and handles.
* :mod:`repro.staticcheck.procs.rules` — the four project rules:
  ``fork-unsafe-inheritance``, ``boundary-escape``,
  ``child-global-divergence`` and ``blocking-in-worker``.

Work counters: :data:`COUNTERS` accumulates fact-extraction effort for
the CLI's ``--statistics`` (snapshot-and-diff around each file analysis,
mirroring :data:`repro.staticcheck.flow.COUNTERS` and
:data:`repro.staticcheck.perf.COUNTERS`).
"""

from __future__ import annotations

__all__ = ["COUNTERS", "snapshot_counters"]

#: Process-wide effort counters, surfaced by ``--statistics``:
#: ``boundaries`` counts recorded process spawn sites.
COUNTERS = {"boundaries": 0}


def snapshot_counters() -> dict:
    """Copy of the current counter values (diff against a later snapshot)."""
    return dict(COUNTERS)

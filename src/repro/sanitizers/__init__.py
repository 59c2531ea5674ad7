"""Opt-in runtime sanitizers: dynamic oracles for the static concurrency rules.

A static report of :mod:`repro.staticcheck.project.concurrency` can be
confirmed (or a fix validated) by running the real code instrumented,
and lock-order inversions, which no lint rule checks, are caught here:

=======================  ==========================================
hazard                   runtime check
=======================  ==========================================
lock-order inversion     :func:`new_lock` / :class:`TrackedLock`
                         feed a process-wide lock-order graph
``unguarded-shared-write``  :class:`StateGuard` seqlock checkpoints
                         detect torn reads across the boundary
(numeric hygiene)        :func:`numeric_trap` / :func:`check_finite`
                         trap NaN/Inf/overflow in model hot paths
=======================  ==========================================

Everything is off by default and costs one flag check per probe; set
``REPRO_SANITIZE=1`` (or enter :func:`sanitize`) to arm it, and point
``REPRO_SANITIZE_LOG`` at a file to persist the event log as JSONL at
exit.  Detections are *recorded*, never raised — a sanitized tier-1 run
must pass, with hazards read back via :func:`events`.
"""

from repro.sanitizers.events import SanitizerEvent, clear_events, events, flush_log, record
from repro.sanitizers.lockorder import TrackedLock, clear_lock_graph, lock_graph, new_lock
from repro.sanitizers.numerics import check_finite, numeric_trap
from repro.sanitizers.runtime import enabled, sanitize
from repro.sanitizers.torncheck import StateGuard

__all__ = [
    "SanitizerEvent",
    "StateGuard",
    "TrackedLock",
    "check_finite",
    "clear_events",
    "clear_lock_graph",
    "enabled",
    "events",
    "flush_log",
    "lock_graph",
    "new_lock",
    "numeric_trap",
    "record",
    "sanitize",
]

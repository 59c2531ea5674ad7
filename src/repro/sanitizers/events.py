"""Thread-safe sanitizer event log with optional JSONL persistence.

Every sanitizer (lock order, torn reads, numerics) reports through
:func:`record`; tests and the CI artifact job read the log back through
:func:`events`.  When ``REPRO_SANITIZE_LOG`` names a file, the
accumulated events are flushed there as JSON Lines at interpreter exit,
so a sanitized tier-1 run leaves a machine-readable trail even when no
assertion fired.
"""

from __future__ import annotations

import atexit
import json
import multiprocessing
import os
import threading
from dataclasses import dataclass, field

__all__ = ["SanitizerEvent", "clear_events", "events", "flush_log", "record"]

LOG_ENV = "REPRO_SANITIZE_LOG"


@dataclass(frozen=True)
class SanitizerEvent:
    """One detected hazard: what kind, on which thread/process, with what context."""

    seq: int
    kind: str
    thread: str
    pid: int = 0
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "kind": self.kind,
            "thread": self.thread,
            "pid": self.pid,
            **self.details,
        }


_events: list[SanitizerEvent] = []
_events_lock = threading.Lock()
_seq = 0


def record(kind: str, **details) -> SanitizerEvent:
    """Append one event to the in-process log and return it."""
    global _seq
    with _events_lock:
        _seq += 1
        event = SanitizerEvent(
            seq=_seq,
            kind=kind,
            thread=threading.current_thread().name,
            pid=os.getpid(),
            details=details,
        )
        _events.append(event)
    return event


def events(kind: str | None = None) -> list[SanitizerEvent]:
    """Snapshot of the log, optionally filtered to one event kind."""
    with _events_lock:
        snapshot = list(_events)
    if kind is None:
        return snapshot
    return [event for event in snapshot if event.kind == kind]


def clear_events() -> None:
    """Reset the log (tests call this between fixtures)."""
    with _events_lock:
        _events.clear()


def _in_child_process() -> bool:
    """Are we a spawned worker process rather than the main one?"""
    return multiprocessing.parent_process() is not None


def flush_log() -> None:
    """Write the event log to ``REPRO_SANITIZE_LOG`` as JSON Lines.

    Runs automatically at interpreter exit.  A child process writes to
    ``<path>.<pid>`` instead — and only when it has events — so a pool of
    clean workers neither clobbers the parent's log nor sprays empty
    files.  Parent-side readers glob for ``<path>.*`` to collect the
    children's hazards.
    """
    path = os.environ.get(LOG_ENV)
    if not path:
        return
    snapshot = events()
    if _in_child_process():
        if not snapshot:
            return
        path = f"{path}.{os.getpid()}"
    with open(path, "w", encoding="utf-8") as handle:
        for event in snapshot:
            handle.write(json.dumps(event.to_dict(), sort_keys=True) + "\n")


atexit.register(flush_log)

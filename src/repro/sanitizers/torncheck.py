"""Shared-state sanitizer: torn reads, and writes made without their lock.

:class:`StateGuard` is a seqlock-style version counter attached to a
piece of shared state (the MCBound model and predict memo handed
between the retraining workflow and the serving path).  Writers bump the counter
to odd on entry and back to even on exit; readers snapshot it around
their critical section.  A reader that observes an odd counter, or a
counter that moved, overlapped a write: a ``torn-read`` event.

A guard pairs with the :func:`~repro.sanitizers.new_lock` of its own
name: ``StateGuard("repro.core.MCBound.state")`` with
``new_lock("repro.core.MCBound.state")``.  A write entered while the
writer does not hold that lock is an ``unguarded-write`` event, even
when no reader happens to overlap it.  The pairing is by name alone; a
guard whose name no lock carries records every write it sees.

The guard *observes*; it does not serialize.  Pair it with a real lock
in production code (the guard then proves the lock is held and
sufficient) or use it alone in tests to demonstrate a race.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

from repro.sanitizers.events import record
from repro.sanitizers.lockorder import held_locks
from repro.sanitizers.runtime import enabled

__all__ = ["StateGuard"]


class StateGuard:
    """Versioned checkpoint for state shared across a thread boundary."""

    def __init__(self, name: str):
        self.name = name
        self._version = 0
        self._version_lock = threading.Lock()

    def _bump(self) -> int:
        with self._version_lock:
            self._version += 1
            return self._version

    @contextmanager
    def writing(self):
        """Mark a write in progress; always bumps back to stable on exit.

        Records an ``unguarded-write`` event when the writing thread does
        not hold the lock named like this guard.
        """
        if not enabled():
            yield
            return
        if self.name not in held_locks():
            record(
                "unguarded-write",
                guard=self.name,
                reason=f"write entered without holding the lock {self.name!r}",
            )
        self._bump()
        try:
            yield
        finally:
            self._bump()

    @contextmanager
    def reading(self):
        """Check that no write overlapped the wrapped read."""
        if not enabled():
            yield
            return
        start = self._version
        try:
            yield
        finally:
            end = self._version
            if start % 2 == 1 or end != start:
                record(
                    "torn-read",
                    guard=self.name,
                    start_version=start,
                    end_version=end,
                    reason=(
                        "read overlapped an in-progress write"
                        if start % 2 == 1
                        else "state changed underneath the reader"
                    ),
                )

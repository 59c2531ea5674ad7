"""Sanitizer on/off switch: ``REPRO_SANITIZE=1`` or :func:`sanitize`.

Split into its own module so :mod:`repro.sanitizers.events` and the
individual sanitizers can share the switch without import cycles.  The
switch is evaluated at *use* time, not lock-creation time, so a process
can be instrumented (or not) purely through the environment — the code
under test never changes.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager

__all__ = ["enabled", "sanitize"]

ENABLE_ENV = "REPRO_SANITIZE"

_forced = threading.local()


def enabled() -> bool:
    """Is sanitizing active on this thread right now?"""
    if getattr(_forced, "depth", 0) > 0:
        return True
    return os.environ.get(ENABLE_ENV, "") == "1"


@contextmanager
def sanitize():
    """Force-enable sanitizing for the current thread within a block.

    Thread-local by design: a test can instrument the thread bodies it
    spawns (each body enters its own :func:`sanitize` block) without
    turning sanitizing on for the whole process.
    """
    _forced.depth = getattr(_forced, "depth", 0) + 1
    try:
        yield
    finally:
        _forced.depth -= 1

"""Deliberately inconsistent lock ordering.

This module is the race fixture: the runtime lock-order sanitizer must
flag it when :func:`run_both` executes instrumented.  The
two thread bodies are run back to back (started and joined one at a
time) so the inversion is always *observed* without ever scheduling the
interleaving that would actually deadlock the test process.
"""

import threading

from repro.sanitizers import new_lock

__all__ = ["first", "run_both", "second"]

LOCK_A = new_lock("racy_order.LOCK_A")
LOCK_B = new_lock("racy_order.LOCK_B")


def first():
    with LOCK_A:
        with LOCK_B:
            pass


def second():
    with LOCK_B:
        with LOCK_A:
            pass


def run_both():
    for body in (first, second):
        worker = threading.Thread(target=body)
        worker.start()
        worker.join()

"""Consistent lock ordering: the clean twin of ``racy_order``.

Both thread bodies acquire the locks in the same nested order, so the
runtime lock-order sanitizer may report nothing here.
"""

import threading

from repro.sanitizers import new_lock

__all__ = ["first", "run_both", "second"]

LOCK_A = new_lock("clean_order.LOCK_A")
LOCK_B = new_lock("clean_order.LOCK_B")


def first():
    with LOCK_A:
        with LOCK_B:
            pass


def second():
    with LOCK_A:
        with LOCK_B:
            pass


def run_both():
    for body in (first, second):
        worker = threading.Thread(target=body)
        worker.start()
        worker.join()

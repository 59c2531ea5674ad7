"""Runtime lock-order sanitizer: the check for lock-order inversions.

:func:`new_lock` returns a :class:`TrackedLock` wrapping a real
``threading`` primitive.  While sanitizing is enabled every acquisition
feeds a process-wide *lock-order graph* (edge ``A -> B`` whenever ``B``
is acquired with ``A`` held); an acquisition that closes a cycle in that
graph is an ordering inversion — some interleaving of the participating
threads deadlocks — and is reported as a ``lock-order-cycle`` event.

The graph accumulates across threads, so the detector is deterministic:
it fires once both orders have *run*, whether or not the schedule that
actually deadlocks was hit.  It also flags re-acquiring a non-reentrant
lock on the holding thread (guaranteed self-deadlock) without blocking,
since the wrapper sees the hazard before touching the inner lock.
"""

from __future__ import annotations

import threading

from repro.sanitizers.events import record
from repro.sanitizers.runtime import enabled

__all__ = ["TrackedLock", "clear_lock_graph", "held_locks", "lock_graph", "new_lock"]

#: lock name -> names acquired while it was held (process-wide)
_edges: dict[str, set[str]] = {}
_graph_lock = threading.Lock()
_held = threading.local()


def _held_stack() -> list[str]:
    stack = getattr(_held, "stack", None)
    if stack is None:
        stack = []
        _held.stack = stack
    return stack


def held_locks() -> tuple[str, ...]:
    """Names of the tracked locks the current thread holds, outermost first.

    Only acquisitions made while sanitizing was on are tracked.
    """
    return tuple(_held_stack())


def lock_graph() -> dict[str, list[str]]:
    """Snapshot of the observed lock-order edges, deterministically sorted."""
    with _graph_lock:
        return {name: sorted(_edges[name]) for name in sorted(_edges)}


def clear_lock_graph() -> None:
    """Reset the order graph (tests call this between fixtures)."""
    with _graph_lock:
        _edges.clear()


def _path(start: str, goal: str) -> list[str] | None:
    """Shortest observed edge path ``start -> ... -> goal``, if any."""
    with _graph_lock:
        frontier = [[start]]
        seen = {start}
        while frontier:
            path = frontier.pop(0)
            for succ in sorted(_edges.get(path[-1], ())):
                if succ == goal:
                    return path + [succ]
                if succ not in seen:
                    seen.add(succ)
                    frontier.append(path + [succ])
    return None


class TrackedLock:
    """A named lock whose acquisitions feed the runtime order graph.

    The wrapper is always safe to use with sanitizing disabled: it
    forwards straight to the inner primitive after one flag check, which
    is the overhead the ``benchmarks`` suite keeps visible.
    """

    def __init__(self, name: str, factory=threading.RLock):
        self.name = name
        self.reentrant = factory in (threading.RLock,)
        self._inner = factory()

    def _before_acquire(self) -> None:
        stack = _held_stack()
        if self.name in stack:
            if not self.reentrant:
                record(
                    "lock-order-cycle",
                    lock=self.name,
                    chain=[self.name, self.name],
                    reason="non-reentrant lock re-acquired by its holding thread",
                )
            return
        cycle = None
        for held_name in stack:
            if held_name != self.name:
                cycle = _path(self.name, held_name)
                if cycle is not None:
                    break
        with _graph_lock:
            for held_name in stack:
                if held_name != self.name:
                    _edges.setdefault(held_name, set()).add(self.name)
        if cycle is not None:
            record(
                "lock-order-cycle",
                lock=self.name,
                chain=cycle + [cycle[0]],
                reason="locks acquired in inconsistent nested order",
            )

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        tracking = enabled()
        if tracking:
            self._before_acquire()
        acquired = self._inner.acquire(blocking, timeout)
        if acquired and tracking:
            _held_stack().append(self.name)
        return acquired

    def release(self) -> None:
        self._inner.release()
        stack = _held_stack()
        for i in range(len(stack) - 1, -1, -1):
            if stack[i] == self.name:
                del stack[i]
                break

    def __enter__(self) -> "TrackedLock":
        self.acquire()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()


def new_lock(name: str, factory=threading.RLock) -> TrackedLock:
    """Create a named, sanitizer-aware lock.

    This is the factory the code base uses for every lock that guards
    cross-thread state.  A :class:`~repro.sanitizers.StateGuard` of the
    same name checks that its writers hold this lock.
    """
    return TrackedLock(name, factory=factory)

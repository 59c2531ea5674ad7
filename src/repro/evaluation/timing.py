"""Wall-clock and peak-memory measurement helpers."""

from __future__ import annotations

import time
import tracemalloc
from typing import Callable

__all__ = ["Timer", "time_call", "peak_memory_bytes"]


class Timer:
    """Context manager recording elapsed wall-clock seconds.

    >>> with Timer() as t:
    ...     _ = sum(range(10))
    >>> t.elapsed >= 0
    True
    """

    def __init__(self) -> None:
        self.elapsed: float = 0.0
        self._t0: float | None = None

    def __enter__(self) -> "Timer":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed = time.perf_counter() - self._t0


def time_call(fn: Callable, *args, **kwargs):
    """Call ``fn`` and return ``(result, elapsed_seconds)``."""
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


def peak_memory_bytes(fn: Callable, *args, **kwargs):
    """Call ``fn`` and return ``(result, peak_additional_bytes)``.

    Peak is tracemalloc's high-water mark of python allocations made
    during the call.  For a streaming pipeline it must be bounded by the
    batch size, independent of how many rows flow through — the property
    ``tests/core/test_memory_bounds.py`` asserts.  Tracing slows the call
    down, so use this for assertions about memory, never for throughput
    numbers.
    """
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak

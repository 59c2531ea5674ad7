"""Balanced chunking of index ranges."""

from __future__ import annotations

__all__ = ["chunk_bounds"]


def chunk_bounds(n: int, n_chunks: int) -> list[tuple[int, int]]:
    """Split ``range(n)`` into ``n_chunks`` contiguous, balanced ``[lo, hi)``.

    The first ``n % n_chunks`` chunks get one extra element; empty chunks
    are dropped (so fewer than ``n_chunks`` pairs may be returned).

    >>> chunk_bounds(10, 3)
    [(0, 4), (4, 7), (7, 10)]
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n_chunks < 1:
        raise ValueError("n_chunks must be >= 1")
    base, extra = divmod(n, n_chunks)
    bounds = []
    lo = 0
    for i in range(n_chunks):
        size = base + (1 if i < extra else 0)
        if size == 0:
            break
        bounds.append((lo, lo + size))
        lo += size
    return bounds

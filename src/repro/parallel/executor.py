"""Ordered, sharded parallel map over threads.

``parallel_map_sharded(fn, items)`` preserves input order in its output
and runs serially when only one worker is available (or requested), so
callers can put it on data-parallel loops without branching on the
machine size.  Exceptions raised by any task propagate to the caller
after the pool is drained.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable

__all__ = [
    "ExecutorConfig",
    "parallel_map_sharded",
    "effective_workers",
]


@dataclass(frozen=True)
class ExecutorConfig:
    """How a parallel region should run.

    backend:
        "serial" or "thread".  Threads suit BLAS-heavy and IO-bound work,
        where the GIL is released.
    n_workers:
        Worker count; ``None`` means ``os.cpu_count()``.
    """

    backend: str = "serial"
    n_workers: int | None = None

    def __post_init__(self) -> None:
        if self.backend not in ("serial", "thread"):
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.n_workers is not None and self.n_workers < 1:
            raise ValueError("n_workers must be >= 1")


def effective_workers(config: ExecutorConfig) -> int:
    """Worker count the config resolves to on this machine."""
    if config.backend == "serial":
        return 1
    return config.n_workers or os.cpu_count() or 1


def parallel_map_sharded(
    fn: Callable,
    items: Iterable,
    *,
    config: ExecutorConfig | None = None,
    shards_per_worker: int = 4,
) -> list:
    """Apply ``fn`` to every item, preserving order, in contiguous shards.

    Falls back to a plain loop when the config resolves to one worker,
    so the serial path has no pool overhead.  Otherwise it submits
    ``workers * shards_per_worker`` contiguous blocks of items to a
    thread pool, each running a plain loop: for fine-grained tasks (e.g.
    one forest tree per item) the per-task submission overhead of a pool
    can rival the task itself.
    """
    if shards_per_worker < 1:
        raise ValueError("shards_per_worker must be >= 1")
    config = config or ExecutorConfig()
    items = list(items)
    workers = min(effective_workers(config), max(1, len(items)))
    if workers <= 1:
        return [fn(x) for x in items]
    from repro.parallel.chunking import chunk_bounds

    def run_shard(bounds: tuple[int, int]) -> list:
        lo, hi = bounds
        return [fn(items[i]) for i in range(lo, hi)]

    shards = chunk_bounds(len(items), workers * shards_per_worker)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return [out for shard in pool.map(run_shard, shards) for out in shard]

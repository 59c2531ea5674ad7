"""Ordered parallel map with pluggable backends.

``parallel_map(fn, items)`` preserves input order in its output and runs
serially when only one worker is available (or requested), so callers can
sprinkle it on data-parallel loops without branching on the machine size.
Exceptions raised by any task propagate to the caller after the pool is
drained.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import pickle
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

__all__ = [
    "ExecutorConfig",
    "parallel_map",
    "parallel_map_sharded",
    "effective_workers",
    "ensure_picklable",
]


@dataclass(frozen=True)
class ExecutorConfig:
    """How a parallel region should run.

    backend:
        "serial", "thread" or "process".  Threads suit BLAS-heavy and
        IO-bound work (the GIL is released there); processes suit pure-
        Python CPU-bound work at the cost of pickling.
    n_workers:
        Worker count; ``None`` means ``os.cpu_count()``.

    Process workers are always spawned, never forked: each re-imports the
    task's module and inherits no parent locks, handles or globals.
    """

    backend: str = "serial"
    n_workers: int | None = None

    def __post_init__(self) -> None:
        if self.backend not in ("serial", "thread", "process"):
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.n_workers is not None and self.n_workers < 1:
            raise ValueError("n_workers must be >= 1")


def effective_workers(config: ExecutorConfig) -> int:
    """Worker count the config resolves to on this machine."""
    if config.backend == "serial":
        return 1
    return config.n_workers or os.cpu_count() or 1


def _unpicklable_path(obj: object, path: str, depth: int = 0) -> str | None:
    """Object path of the innermost unpicklable constituent, or None.

    Descends the same graph pickle would serialize — closure cells (named
    by ``co_freevars``), the instance behind a bound method, ``partial``
    components and instance ``__dict__`` attributes — so the error names
    the actual culprit (``fn.__closure__['lock']``) instead of the opaque
    top-level failure pickle reports.  Depth-bounded: past a few levels
    the path stops being more useful than pickle's own message.
    """
    try:
        pickle.dumps(obj)
        return None
    except Exception:  # staticcheck: ignore[silent-except] - any raise means "unpicklable"; the walk below names the culprit
        pass
    if depth >= 4:
        return path
    code = getattr(obj, "__code__", None)
    cells = getattr(obj, "__closure__", None)
    if code is not None and cells:
        for name, cell in zip(code.co_freevars, cells):
            try:
                value = cell.cell_contents
            except ValueError:  # empty cell
                continue
            deeper = _unpicklable_path(value, f"{path}.__closure__[{name!r}]", depth + 1)
            if deeper is not None:
                return deeper
    bound_self = getattr(obj, "__self__", None)
    if bound_self is not None:
        deeper = _unpicklable_path(bound_self, f"{path}.__self__", depth + 1)
        if deeper is not None:
            return deeper
    if isinstance(obj, functools.partial):
        for i, arg in enumerate(obj.args):
            deeper = _unpicklable_path(arg, f"{path}.args[{i}]", depth + 1)
            if deeper is not None:
                return deeper
        for key, value in obj.keywords.items():
            deeper = _unpicklable_path(value, f"{path}.keywords[{key!r}]", depth + 1)
            if deeper is not None:
                return deeper
        return _unpicklable_path(obj.func, f"{path}.func", depth + 1)
    attrs = getattr(obj, "__dict__", None)
    if isinstance(attrs, dict):
        for name in sorted(attrs):
            deeper = _unpicklable_path(attrs[name], f"{path}.{name}", depth + 1)
            if deeper is not None:
                return deeper
    return path


def ensure_picklable(fn: Callable) -> None:
    """Pre-flight for the process backend: fail fast on unpicklable tasks.

    Lambdas, closures and locally-defined functions cannot cross a process
    boundary; without this check the pool spawns first and the pickling
    error surfaces mid-run from inside ``concurrent.futures`` with no hint
    of which callable was at fault.

    Raises
    ------
    ValueError
        Naming the offending callable, the *object path* of the innermost
        unpicklable constituent (which closure cell, which attribute of
        the bound instance, which ``partial`` argument), and how to fix it.
    """
    try:
        pickle.dumps(fn)
    except (pickle.PicklingError, TypeError, AttributeError) as exc:
        name = getattr(fn, "__qualname__", None) or repr(fn)
        culprit = _unpicklable_path(fn, name) or name
        raise ValueError(
            f"parallel_map: task {name!r} is not picklable, so it cannot run "
            f"on the 'process' backend; the unpicklable part is {culprit!r} "
            f"({exc}). Define the task at module top level with picklable "
            "state, or use the 'thread' or 'serial' backend."
        ) from exc


def parallel_map(
    fn: Callable,
    items: Iterable,
    *,
    config: ExecutorConfig | None = None,
) -> list:
    """Apply ``fn`` to every item, preserving order.

    Falls back to a plain loop when the config resolves to one worker —
    the common case on the single-core evaluation machine — so there is no
    pool overhead on the serial path.  The process backend spawns its
    workers, so ``fn`` and each item must pickle (``ensure_picklable``
    checks ``fn`` before the pool starts), a worker's writes to module
    globals never reach the parent (return results instead), and a script
    that calls it must guard its entry point with
    ``if __name__ == "__main__":``, since each worker re-imports it.
    """
    config = config or ExecutorConfig()
    items = list(items)
    workers = min(effective_workers(config), max(1, len(items)))
    if workers <= 1 or config.backend == "serial":
        return [fn(x) for x in items]
    if config.backend == "thread":
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    ensure_picklable(fn)
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
        return list(pool.map(fn, items))


def parallel_map_sharded(
    fn: Callable,
    items: Iterable,
    *,
    config: ExecutorConfig | None = None,
    shards_per_worker: int = 4,
) -> list:
    """``parallel_map`` with contiguous item shards instead of one task per item.

    For fine-grained tasks (e.g. one forest tree per item) the per-task
    submission overhead of a pool can rival the task itself; sharding
    submits ``workers * shards_per_worker`` contiguous blocks, each running
    a plain loop.  Output order and results are identical to
    ``parallel_map`` for a pure ``fn``.  The process backend falls back to
    per-item ``parallel_map`` (a shard closure cannot cross a process
    boundary); sharding targets the thread backend, where BLAS-heavy tasks
    release the GIL.
    """
    if shards_per_worker < 1:
        raise ValueError("shards_per_worker must be >= 1")
    config = config or ExecutorConfig()
    items = list(items)
    workers = min(effective_workers(config), max(1, len(items)))
    if workers <= 1 or config.backend == "serial":
        return [fn(x) for x in items]
    if config.backend == "process":
        return parallel_map(fn, items, config=config)
    from repro.parallel.chunking import chunk_bounds

    def run_shard(bounds: tuple[int, int]) -> list:
        lo, hi = bounds
        return [fn(items[i]) for i in range(lo, hi)]

    shards = chunk_bounds(len(items), workers * shards_per_worker)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return [out for shard in pool.map(run_shard, shards) for out in shard]

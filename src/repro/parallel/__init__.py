"""HPC-parallel substrate.

The guides this reproduction follows (mpi4py tutorial, Numba performance
tips, Scientific-Python optimization notes) shape this package: vectorize
first, then parallelize with explicit chunking rather than ad-hoc thread
soup.

- :mod:`repro.parallel.chunking` — balanced partitioning of index ranges
  (the building block of every data-parallel loop here).
- :mod:`repro.parallel.executor` — ordered parallel map over chunks with
  thread/process/serial backends and automatic fallback on a single core;
  process workers are always spawned.
"""

from repro.parallel.chunking import chunk_bounds
from repro.parallel.executor import (
    ensure_picklable,
    parallel_map,
    parallel_map_sharded,
    ExecutorConfig,
)

__all__ = [
    "chunk_bounds",
    "ensure_picklable",
    "parallel_map",
    "parallel_map_sharded",
    "ExecutorConfig",
]

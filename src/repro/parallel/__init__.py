"""HPC-parallel substrate.

The guides this reproduction follows (mpi4py tutorial, Numba performance
tips, Scientific-Python optimization notes) shape this package: vectorize
first, then parallelize with explicit chunking rather than ad-hoc thread
soup.

- :mod:`repro.parallel.chunking` — balanced partitioning of index ranges
  (the building block of every data-parallel loop here).
- :mod:`repro.parallel.executor` — ordered map over contiguous shards,
  on a thread pool or serially; the forest's ``n_jobs`` is its one user.
"""

from repro.parallel.chunking import chunk_bounds
from repro.parallel.executor import (
    parallel_map_sharded,
    ExecutorConfig,
)

__all__ = [
    "chunk_bounds",
    "parallel_map_sharded",
    "ExecutorConfig",
]

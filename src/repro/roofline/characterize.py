"""Vectorized job characterization (paper §III-C, Equations 1-3).

Given per-job ``#flops``, ``#moved_memory_bytes``, ``duration`` and
``#nodes_alloc``, computes the per-node average performance, memory
bandwidth and operational intensity, and derives the binary
memory/compute-bound label by comparing against the machine's ridge point.

These free functions are the computational core wrapped by
:class:`repro.core.job_characterizer.JobCharacterizer`.
"""

from __future__ import annotations

import numpy as np

from repro.roofline.model import Roofline

__all__ = [
    "MEMORY_BOUND",
    "COMPUTE_BOUND",
    "LABEL_NAMES",
    "job_performance",
    "job_memory_bandwidth",
    "job_operational_intensity",
    "characterize_jobs",
]

#: Integer codes for the two classes (stable across the code base).
MEMORY_BOUND: int = 0
COMPUTE_BOUND: int = 1
LABEL_NAMES: tuple[str, str] = ("memory-bound", "compute-bound")


def _validate(flops, duration, nodes_alloc) -> tuple[np.ndarray, np.ndarray, np.ndarray]:  # unit: duration=s, nodes_alloc=1
    flops = np.asarray(flops, dtype=np.float64)
    duration = np.asarray(duration, dtype=np.float64)
    nodes = np.asarray(nodes_alloc, dtype=np.float64)
    if np.any(duration <= 0):
        raise ValueError("job duration must be positive")
    if np.any(nodes <= 0):
        raise ValueError("#nodes_alloc must be positive")
    if np.any(flops < 0):
        raise ValueError("#flops must be non-negative")
    return flops, duration, nodes


def job_performance(flops, duration, nodes_alloc):  # unit: flops=flops, duration=s, nodes_alloc=1 -> gflops/s
    """Equation 1: per-node average performance in GFlops/s.

    ``p_j = #flops_j / (duration_j * #nodes_alloc_j)``, expressed in
    GFlops/s to match the machine ceilings.
    """
    flops, duration, nodes = _validate(flops, duration, nodes_alloc)  # unit: flops, s, 1
    out = flops / (duration * nodes) / 1e9
    return out if out.ndim else float(out)


def job_memory_bandwidth(moved_bytes, duration, nodes_alloc):  # unit: moved_bytes=bytes, duration=s, nodes_alloc=1 -> gb/s
    """Equation 2: per-node average memory bandwidth in GBytes/s."""
    moved, duration, nodes = _validate(moved_bytes, duration, nodes_alloc)  # unit: bytes, s, 1
    out = moved / (duration * nodes) / 1e9
    return out if out.ndim else float(out)


def job_operational_intensity(flops, moved_bytes, *, floor_bytes: float = 1.0):  # unit: flops=flops, moved_bytes=bytes, floor_bytes=bytes -> flops/byte
    """Equation 3: operational intensity ``op_j = p_j / mb_j`` in Flops/Byte.

    Duration and node normalizations cancel, so this is simply
    ``#flops / #moved_memory_bytes``.  ``floor_bytes`` guards against jobs
    that report zero memory traffic (treated as moving at least one byte,
    which classifies pure-compute degenerate jobs as compute-bound).
    """
    flops = np.asarray(flops, dtype=np.float64)
    moved = np.asarray(moved_bytes, dtype=np.float64)
    if np.any(flops < 0) or np.any(moved < 0):
        raise ValueError("flops and moved_bytes must be non-negative")
    out = flops / np.maximum(moved, floor_bytes)
    return out if out.ndim else float(out)


def characterize_jobs(
    flops,  # unit: flops=flops, moved_bytes=bytes, duration=s, nodes_alloc=1
    moved_bytes,
    duration,
    nodes_alloc,
    roofline: Roofline,
):
    """Full Equations 1-3 pipeline plus ridge-point labelling.

    Returns
    -------
    (p, mb, op, labels):
        Per-node GFlops/s, per-node GB/s, Flops/Byte, and int labels
        (:data:`MEMORY_BOUND` / :data:`COMPUTE_BOUND`).  All arrays share
        the input's shape.
    """
    p = np.asarray(job_performance(flops, duration, nodes_alloc))
    mb = np.asarray(job_memory_bandwidth(moved_bytes, duration, nodes_alloc))
    op = np.asarray(job_operational_intensity(flops, moved_bytes))
    labels = np.where(op > roofline.ridge_point, COMPUTE_BOUND, MEMORY_BOUND).astype(np.int64)
    return p, mb, op, labels

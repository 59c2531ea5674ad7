"""Job Characterizer (paper §III-C).

Initialized with the peak performance and peak memory bandwidth of a
single node, it computes the ridge-point operational intensity ``op_r``
and labels each completed job *compute-bound* if its operational intensity
exceeds ``op_r``, *memory-bound* otherwise (Equations 1-3).

The mapping from system-specific performance counters to ``#flops`` /
``#moved_memory_bytes`` is a pluggable transform;
:class:`FugakuCounterTransform` implements the A64FX one (Equations 4-5).
Another system is configured by its two peaks and its own transform.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from repro.fugaku.counters import flops_from_counters, moved_bytes_from_counters
from repro.fugaku.system import FUGAKU
from repro.fugaku.trace import JobTrace
from repro.roofline.characterize import (
    COMPUTE_BOUND,
    LABEL_NAMES,
    MEMORY_BOUND,
    characterize_jobs,
)
from repro.roofline.model import Roofline

__all__ = ["FugakuCounterTransform", "JobCharacterizer", "RECORD_COUNTERS"]

#: The per-record fields :meth:`JobCharacterizer.labels_from_records` reads.
RECORD_COUNTERS = ("perf2", "perf3", "perf4", "perf5", "duration", "nodes_alloc")


class FugakuCounterTransform:
    """perf2..perf5 -> (#flops, #moved_memory_bytes) for the A64FX (§IV-B)."""

    def __call__(self, perf2, perf3, perf4, perf5):
        flops = flops_from_counters(perf2, perf3)
        moved = moved_bytes_from_counters(perf4, perf5)
        return flops, moved


class JobCharacterizer:
    """Roofline-based memory/compute-bound labelling.

    Parameters
    ----------
    peak_performance:
        Node peak in GFlops/s (Fugaku: 3380, FX1000 boost mode).
    peak_memory_bandwidth:
        Node peak in GBytes/s (Fugaku: 1024).
    counter_transform:
        Optional callable mapping raw counters to (#flops, #moved_bytes);
        needed only by the record-level helpers.
    """

    #: integer codes re-exported for convenience
    MEMORY_BOUND = MEMORY_BOUND
    COMPUTE_BOUND = COMPUTE_BOUND
    LABEL_NAMES = LABEL_NAMES

    def __init__(
        self,
        peak_performance: float = FUGAKU.peak_gflops_node,
        peak_memory_bandwidth: float = FUGAKU.peak_membw_gbs,
        *,
        counter_transform=None,
    ) -> None:
        self.roofline = Roofline(peak_performance, peak_memory_bandwidth)
        self.counter_transform = counter_transform or FugakuCounterTransform()

    @property
    def ridge_point(self) -> float:
        """op_r: minimum operational intensity attaining peak performance."""
        return self.roofline.ridge_point

    # -- array-level API (Equations 1-3) --------------------------------------------

    def generate_labels(self, flops, duration, nodes_alloc, moved_memory_bytes) -> np.ndarray:
        """Labels from the four execution metrics the paper lists (§III-C)."""
        _, _, _, labels = characterize_jobs(
            flops, moved_memory_bytes, duration, nodes_alloc, self.roofline
        )
        return labels

    def characterize(self, flops, duration, nodes_alloc, moved_memory_bytes):
        """Full (p, mb, op, labels) tuple — used by the §IV analysis."""
        return characterize_jobs(
            flops, moved_memory_bytes, duration, nodes_alloc, self.roofline
        )

    # -- record / trace conveniences ----------------------------------------------------

    def labels_from_records(self, records: Iterable[Mapping]) -> np.ndarray:
        """Labels straight from raw job records carrying perf counters."""
        records = list(records)
        if not records:
            return np.empty(0, dtype=np.int64)
        cols = {
            k: np.array([r[k] for r in records], dtype=np.float64) for k in RECORD_COUNTERS
        }
        flops, moved = self.counter_transform(
            cols["perf2"], cols["perf3"], cols["perf4"], cols["perf5"]
        )
        return self.generate_labels(flops, cols["duration"], cols["nodes_alloc"], moved)

    def labels_from_result(self, result) -> np.ndarray:
        """Vectorized labels straight off a columnar fetch batch.

        ``result`` is anything exposing ``column(name) -> ndarray`` (a
        storage :class:`~repro.storage.engine.ResultSet`); labels are
        computed from the column arrays directly, so — unlike
        :meth:`labels_from_records` — no per-row dicts ever exist.
        """
        flops, moved = self.counter_transform(
            result.column("perf2"),
            result.column("perf3"),
            result.column("perf4"),
            result.column("perf5"),
        )
        return self.generate_labels(
            flops, result.column("duration"), result.column("nodes_alloc"), moved
        )

    def labels_from_trace(self, trace: JobTrace) -> np.ndarray:
        """Vectorized labels for a whole trace."""
        flops, moved = self.counter_transform(
            trace["perf2"], trace["perf3"], trace["perf4"], trace["perf5"]
        )
        return self.generate_labels(flops, trace["duration"], trace["nodes_alloc"], moved)

    def roofline_coordinates(self, trace: JobTrace):
        """(performance GFlops/s, bandwidth GB/s, op Flops/Byte, labels)."""
        flops, moved = self.counter_transform(
            trace["perf2"], trace["perf3"], trace["perf4"], trace["perf5"]
        )
        return self.characterize(flops, trace["duration"], trace["nodes_alloc"], moved)

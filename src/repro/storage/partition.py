"""Time-partitioned table segments.

A month of F-DATA-scale trace is millions of rows; keeping them in one
monolithic :class:`~repro.storage.engine.Table` makes every index
rebuild and sortedness check proportional to the whole table.  A
:class:`SegmentedTable` splits the rows into fixed-width partitions of
one key column (day-sized ``submit_time`` buckets for the jobs table),
so per-segment work is bounded by segment size and a range scan touches
only the segments whose key interval overlaps the query window.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.storage.engine import SCAN_BATCH_ROWS, ResultSet, Table
from repro.storage.schema import TableSchema

__all__ = ["SegmentedTable"]


class SegmentedTable:
    """An append-only table split into fixed-width partitions of one key.

    Rows live in the segment numbered ``floor(row[key] / width)``; each
    segment is an ordinary :class:`Table` created on first use.  The
    partition key must be numeric (it is bucketed arithmetically).
    """

    def __init__(self, schema: TableSchema, key: str, width: float) -> None:
        if key not in schema:
            raise KeyError(f"partition key {key!r} not in schema {schema.name!r}")
        if width <= 0:
            raise ValueError("partition width must be positive")
        self.schema = schema
        self.key = key
        self.width = float(width)
        self._segments: dict[int, Table] = {}

    def __len__(self) -> int:
        return sum(len(t) for t in self._segments.values())

    @property
    def segment_ids(self) -> tuple[int, ...]:
        """Bucket numbers of the populated segments, ascending."""
        return tuple(sorted(self._segments))

    def segment(self, bucket: int) -> Table:
        """The backing :class:`Table` of one populated segment."""
        return self._segments[bucket]

    # -- writes --------------------------------------------------------------

    def insert_columns(self, columns: Mapping[str, np.ndarray]) -> int:
        """Bulk columnar insert, routing each row to its partition."""
        keys = np.asarray(columns[self.key], dtype=float)
        buckets = np.floor_divide(keys, self.width).astype(np.int64)
        total = 0
        for bucket in np.unique(buckets):
            mask = buckets == bucket
            seg = self._segments.get(int(bucket))
            if seg is None:
                seg = Table(self.schema)
                self._segments[int(bucket)] = seg
            total += seg.insert_columns(
                {name: np.asarray(values)[mask] for name, values in columns.items()}
            )
        return total

    # -- chunked scans -------------------------------------------------------

    def scan_batches(
        self,
        low=None,
        high=None,
        *,
        batch_rows: int = SCAN_BATCH_ROWS,
        columns: Sequence[str] | None = None,
    ) -> Iterator[ResultSet]:
        """Yield rows with ``low <= key < high`` as bounded columnar batches.

        Segments whose key interval falls outside ``[low, high)`` are
        skipped without being read.  Batches arrive in partition order;
        within a segment, in that segment's scan order (submit-sorted
        loads stay submit-sorted end to end).
        """
        for bucket in sorted(self._segments):
            seg_low = bucket * self.width
            if high is not None and seg_low >= high:
                break
            if low is not None and seg_low + self.width <= low:
                continue
            yield from self._segments[bucket].scan_batches(
                self.key, low, high, batch_rows=batch_rows, columns=columns
            )

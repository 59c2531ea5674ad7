"""Streaming discipline of the storage layer.

Generator ingest and chunked scans peak at O(batch), never O(table) —
including a tracemalloc bound at 10^5 rows that is independent of table
size.  ``tests/core/test_memory_bounds.py`` holds the same bound for the
framework paths above the store.
"""

import numpy as np
import pytest

from repro.evaluation.timing import peak_memory_bytes
from repro.storage.engine import SCAN_BATCH_ROWS, Database, Table, _INSERT_CHUNK
from repro.storage.schema import ColumnDef, ColumnType, TableSchema


def jobs_schema(name="t"):
    return TableSchema(
        name,
        [
            ColumnDef("key", ColumnType.REAL, True),
            ColumnDef("val", ColumnType.INTEGER, False),
        ],
    )


def filled_table(n, *, sorted_key=True):
    t = Table(jobs_schema())
    key = np.arange(n, dtype=float)
    if not sorted_key:
        key = key[::-1].copy()
    t.insert_columns({"key": key, "val": np.arange(n, dtype=np.int64)})
    return t


class TestGeneratorInsert:
    def test_generator_input_is_consumed_in_chunks(self):
        t = Table(jobs_schema())
        n = _INSERT_CHUNK * 2 + 7  # straddle chunk boundaries
        count = t.insert_rows(("key", "val"), ((float(i), i) for i in range(n)))
        assert count == n and len(t) == n
        assert np.array_equal(t.column("val"), np.arange(n))

    def test_peak_memory_is_bounded_by_chunk_not_input(self):
        n = 100_000
        t = Table(jobs_schema())
        t.insert_rows(("key", "val"), ((float(i), i) for i in range(2 * _INSERT_CHUNK)))
        # warm path measured; a fresh table ingests n rows lazily
        t2 = Table(jobs_schema())
        _, peak = peak_memory_bytes(
            t2.insert_rows, ("key", "val"), ((float(i), i) for i in range(n))
        )
        # the table's own arrays grow with n; the *row tuples* must not.
        # 16 bytes/row of column data is expected; 10x chunk covers the
        # transient python tuples without scaling with n.
        assert len(t2) == n
        assert peak < n * 16 * 4 + _INSERT_CHUNK * 400

    def test_empty_iterable_inserts_nothing(self):
        t = Table(jobs_schema())
        assert t.insert_rows(("key", "val"), iter(())) == 0
        assert len(t) == 0

    def test_bad_row_width_raises(self):
        t = Table(jobs_schema())
        with pytest.raises(ValueError, match="row width"):
            t.insert_rows(("key", "val"), [(1.0, 1), (2.0,)])


class TestIterRows:
    def test_matches_rows_and_is_lazy(self):
        db = Database()
        db.execute("CREATE TABLE x (a INTEGER, b TEXT)")
        db.execute("INSERT INTO x (a, b) VALUES (1, 'u'), (2, 'v')")
        rs = db.execute("SELECT a, b FROM x")
        it = rs.iter_rows()
        assert next(it) == {"a": 1, "b": "u"}  # nothing materialized yet
        assert list(it) == [{"a": 2, "b": "v"}]
        assert rs.rows() == [{"a": 1, "b": "u"}, {"a": 2, "b": "v"}]

    def test_values_are_python_scalars(self):
        db = Database()
        db.execute("CREATE TABLE x (a INTEGER, r REAL)")
        db.execute("INSERT INTO x (a, r) VALUES (1, 2.5)")
        row = next(db.execute("SELECT a, r FROM x").iter_rows())
        assert type(row["a"]) is int and type(row["r"]) is float


class TestScanBatches:
    def test_sorted_fast_path_matches_sql_range_query(self):
        t = filled_table(10_000)
        got = np.concatenate(
            [rs.column("val") for rs in t.scan_batches("key", 100.0, 9_000.0, batch_rows=777)]
        )
        assert np.array_equal(got, np.arange(100, 9000))

    def test_unsorted_fallback_preserves_row_order(self):
        t = filled_table(1_000, sorted_key=False)
        got = np.concatenate(
            [rs.column("val") for rs in t.scan_batches("key", 10.0, 500.0, batch_rows=64)]
        )
        # row i holds key 999-i, so the matches are rows 500..989 in row order
        assert np.array_equal(got, np.arange(500, 990))

    def test_open_ended_bounds(self):
        t = filled_table(100)
        assert sum(len(rs) for rs in t.scan_batches("key")) == 100
        assert sum(len(rs) for rs in t.scan_batches("key", low=90.0)) == 10
        assert sum(len(rs) for rs in t.scan_batches("key", high=10.0)) == 10

    def test_batches_are_bounded_and_are_copies(self):
        t = filled_table(1_000)
        batches = list(t.scan_batches("key", batch_rows=128))
        assert max(len(b) for b in batches) <= 128
        batches[0].column("val")[:] = -1
        assert t.column("val")[0] == 0  # the table is untouched

    def test_column_projection(self):
        t = filled_table(100)
        rs = next(t.scan_batches("key", columns=["val"]))
        assert rs.column_names == ("val",)

    def test_sortedness_cache_invalidated_by_insert(self):
        t = filled_table(1_000)
        assert sum(len(rs) for rs in t.scan_batches("key", 0.0, 1_000.0)) == 1_000
        t.insert_rows(("key", "val"), [(0.5, 7)])  # breaks sorted order
        got = sum(len(rs) for rs in t.scan_batches("key", 0.0, 1_000.0))
        assert got == 1_001  # fallback path still finds everything

    def test_peak_memory_tracks_batch_size_not_table_size(self):
        # satellite acceptance: at 1e5 rows, the scan's transient peak is
        # bounded by the batch, independent of how big the table is
        small, large = filled_table(20_000), filled_table(100_000)
        batch = 1_000

        def drain(table):
            total = 0
            for rs in table.scan_batches("key", batch_rows=batch):
                total += len(rs)
            return total

        n_small, peak_small = peak_memory_bytes(drain, small)
        n_large, peak_large = peak_memory_bytes(drain, large)
        assert (n_small, n_large) == (20_000, 100_000)
        per_batch = batch * 16 * 20  # generous transient allowance
        assert peak_small < per_batch and peak_large < per_batch
        # 5x the rows must not mean anywhere near 5x the peak
        assert peak_large < peak_small * 2

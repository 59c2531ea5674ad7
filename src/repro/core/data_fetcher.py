"""Data Fetcher (paper §III-A).

An interface to the jobs data storage: ``fetch(job_id=...)`` retrieves one
job, ``fetch(start_time=..., end_time=...)`` all jobs submitted in the
window.  Both paths generate a real SQL query against the relational
engine of :mod:`repro.storage`, exactly as the paper's implementation does
against Fugaku's database.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.fugaku.trace import JobTrace, NUMERIC_COLUMNS, STRING_COLUMNS
from repro.storage.engine import SCAN_BATCH_ROWS, Database, ResultSet

__all__ = ["JOBS_TABLE_SQL", "load_trace_into_db", "DataFetcher"]

#: Schema of the jobs table, indexed on the two fetch access paths.
JOBS_TABLE_SQL = """CREATE TABLE jobs (
    job_id INTEGER INDEXED,
    user_name TEXT,
    job_name TEXT,
    environment TEXT,
    nodes_req INTEGER,
    cores_req INTEGER,
    freq_req_ghz REAL,
    submit_time REAL INDEXED,
    start_time REAL,
    end_time REAL,
    duration REAL,
    nodes_alloc INTEGER,
    perf2 REAL,
    perf3 REAL,
    perf4 REAL,
    perf5 REAL,
    power_avg_w REAL
)"""

_ALL_COLUMNS = tuple(NUMERIC_COLUMNS) + STRING_COLUMNS


def load_trace_into_db(trace: JobTrace, db: Database | None = None) -> Database:
    """Create the ``jobs`` table (if absent) and bulk-load a trace into it."""
    if db is None:
        db = Database()
    if "jobs" not in db.table_names:
        db.execute(JOBS_TABLE_SQL)
    table = db.table("jobs")
    table.insert_columns({name: trace[name] for name in _ALL_COLUMNS})
    return db


class DataFetcher:
    """Fetches job data from the storage (configured at initialization).

    Parameters
    ----------
    db:
        The jobs data storage.  The paper's class is configurable for
        "the specific data storage technology deployed in the target
        system"; swapping this object (anything with an ``execute``
        returning row dicts) is that configuration point.
    table:
        Jobs table name.
    """

    def __init__(self, db: Database, table: str = "jobs") -> None:
        if not table.isidentifier():
            raise ValueError(f"invalid table name {table!r}")
        self.db = db
        self.table = table

    def fetch(
        self,
        *,
        job_id: int | None = None,
        start_time: float | None = None,
        end_time: float | None = None,
    ) -> list[dict]:
        """Fetch raw job data as a list of feature dicts.

        Exactly one of (``job_id``) or (``start_time`` and ``end_time``)
        must be given, matching the paper's method contract.
        """
        by_id = job_id is not None
        by_window = start_time is not None or end_time is not None
        if by_id == by_window:
            raise ValueError("pass either job_id or (start_time, end_time)")
        if by_id:
            sql = f"SELECT * FROM {self.table} WHERE job_id = ? ORDER BY job_id"
            return self.db.execute(sql, [int(job_id)]).rows()
        if start_time is None or end_time is None:
            raise ValueError("both start_time and end_time are required")
        if end_time < start_time:
            raise ValueError("end_time must be >= start_time")
        sql = (
            f"SELECT * FROM {self.table} "
            "WHERE submit_time >= ? AND submit_time < ? ORDER BY submit_time"
        )
        return self.db.execute(sql, [float(start_time), float(end_time)]).rows()

    def fetch_batches(
        self,
        start_time: float,
        end_time: float,
        *,
        batch_rows: int = SCAN_BATCH_ROWS,
    ) -> Iterator[ResultSet]:
        """Fetch a submit-time window as bounded columnar batches.

        The streaming counterpart of windowed :meth:`fetch`: the same
        rows (``start_time <= submit_time < end_time``), yielded as
        ``batch_rows``-sized :class:`ResultSet` objects straight off the
        column store, so a month-scale window is never materialized as
        row dicts.  Requires the in-process column-store
        :class:`Database`; when the table was loaded submit-sorted (the
        :func:`load_trace_into_db` path), batches arrive in submit-time
        order via the binary-search window fast path.
        """
        if end_time < start_time:
            raise ValueError("end_time must be >= start_time")
        table = self.db.table(self.table)
        yield from table.scan_batches(
            "submit_time",
            float(start_time),
            float(end_time),
            batch_rows=batch_rows,
        )

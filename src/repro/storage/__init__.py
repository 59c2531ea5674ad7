"""Jobs data storage substrate.

Fugaku's operations software stores job data in a relational database; the
paper's Data Fetcher "generates an SQL query to the job's data storage"
(§III-A).  To exercise that contract end-to-end without an external DBMS,
this subpackage implements a small in-process relational engine:

- :mod:`repro.storage.schema` — typed table schemas (INTEGER/REAL/TEXT).
- :mod:`repro.storage.sqlparser` — tokenizer + recursive-descent parser for
  the SQL subset the framework needs (CREATE TABLE / INSERT / SELECT with
  WHERE, ORDER BY, LIMIT, parameter placeholders).
- :mod:`repro.storage.engine` — column-store tables with vectorized filter
  evaluation and a tiny planner that uses sorted indexes for equality and
  range predicates.
- :mod:`repro.storage.index` — sorted secondary indexes.
"""

from repro.storage.schema import ColumnType, ColumnDef, TableSchema
from repro.storage.engine import Database, Table, ResultSet, SCAN_BATCH_ROWS
from repro.storage.sqlparser import parse_sql, SQLSyntaxError
from repro.storage.index import SortedIndex

__all__ = [
    "ColumnType",
    "ColumnDef",
    "TableSchema",
    "Database",
    "Table",
    "ResultSet",
    "SCAN_BATCH_ROWS",
    "parse_sql",
    "SQLSyntaxError",
    "SortedIndex",
]

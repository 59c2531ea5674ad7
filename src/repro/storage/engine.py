"""Column-store tables, vectorized predicate evaluation, and the Database.

Execution model: every table column is a growable numpy array.  A SELECT
evaluates its WHERE clause either through a sorted index (when the planner
finds a single indexable predicate at the top level of an AND chain) or as
a vectorized boolean mask over whole columns — never a Python-level loop
over rows.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.storage.index import SortedIndex
from repro.storage.schema import ColumnDef, ColumnType, TableSchema
from repro.storage.sqlparser import (
    And,
    Between,
    Comparison,
    CreateTable,
    Expr,
    InList,
    Insert,
    Not,
    Or,
    Param,
    Select,
    parse_sql,
)

__all__ = ["Table", "ResultSet", "Database", "SCAN_BATCH_ROWS"]


class ResultSet:
    """Result of a SELECT: named columns plus row-dict iteration."""

    def __init__(self, columns: dict[str, np.ndarray]) -> None:
        self._cols = columns
        lengths = {len(v) for v in columns.values()}
        if len(lengths) > 1:
            raise ValueError("ragged result set")
        self._n = lengths.pop() if lengths else 0

    def __len__(self) -> int:
        return self._n

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(self._cols)

    def column(self, name: str) -> np.ndarray:
        return self._cols[name]

    def iter_rows(self) -> Iterator[dict]:
        """Yield per-row dicts one at a time.

        This is the internal row-iteration API: peak memory is one row,
        whatever the result size.  Callers that need a list (the storage
        boundary: CLI output, JSON serialization) use :meth:`rows`.
        """
        names = list(self._cols)
        cols = [self._cols[n] for n in names]
        for i in range(self._n):
            yield {n: _to_python(c[i]) for n, c in zip(names, cols)}

    def rows(self) -> list[dict]:
        """Materialize every row as a dict — storage-boundary API only.

        The list is as large as the result set; internal callers iterate
        :meth:`iter_rows` instead so jobs-scale results never exist as
        python objects all at once.
        """
        return list(self.iter_rows())


def _to_python(v):
    if isinstance(v, np.integer):
        return int(v)
    if isinstance(v, np.floating):
        return float(v)
    return v


_GROWTH = 1.5
_MIN_CAPACITY = 64
#: Rows coerced per chunk when ingesting an arbitrary iterable.
_INSERT_CHUNK = 4096
#: Default rows per yielded batch in :meth:`Table.scan_batches`.
SCAN_BATCH_ROWS = 65536


class Table:
    """One table: schema + growable column arrays + optional sorted indexes."""

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self._n = 0
        self._capacity = _MIN_CAPACITY
        self._data: dict[str, np.ndarray] = {
            c.name: np.empty(self._capacity, dtype=c.ctype.dtype) for c in schema.columns
        }
        self._indexes: dict[str, SortedIndex] = {
            name: SortedIndex(name) for name in schema.indexed_columns
        }
        # Lazily computed per-column monotonicity, invalidated on insert;
        # lets scan_batches take the searchsorted window fast path.
        self._sorted_cache: dict[str, bool] = {}

    def __len__(self) -> int:
        return self._n

    def column(self, name: str) -> np.ndarray:
        """Live view of a column's first ``n`` entries."""
        if name not in self.schema:
            raise KeyError(f"table {self.schema.name!r} has no column {name!r}")
        return self._data[name][: self._n]

    # -- writes -------------------------------------------------------------

    def _ensure_capacity(self, extra: int) -> None:
        need = self._n + extra
        if need <= self._capacity:
            return
        cap = max(int(self._capacity * _GROWTH), need, _MIN_CAPACITY)
        for name, arr in self._data.items():
            grown = np.empty(cap, dtype=arr.dtype)
            grown[: self._n] = arr[: self._n]
            self._data[name] = grown
        self._capacity = cap

    def insert_rows(self, columns: Sequence[str], rows: Iterable[Sequence]) -> int:
        """Insert rows given as tuples ordered like ``columns``; returns count.

        ``rows`` may be any iterable — including a generator — and is
        consumed in fixed-size chunks, so peak memory is bounded by the
        chunk size, never the input length.  A malformed row raises
        mid-ingest; rows from earlier chunks stay inserted.
        """
        if set(columns) != set(self.schema.column_names):
            missing = set(self.schema.column_names) - set(columns)
            extra = set(columns) - set(self.schema.column_names)
            raise ValueError(f"column mismatch: missing={sorted(missing)} extra={sorted(extra)}")
        width = len(columns)
        ctypes = [self.schema[name].ctype for name in columns]
        it = iter(rows)
        total = 0
        while True:
            chunk = list(islice(it, _INSERT_CHUNK))
            if not chunk:
                break
            for r in chunk:
                if len(r) != width:
                    raise ValueError("row width does not match column list")
            self._ensure_capacity(len(chunk))
            start = self._n
            for j, name in enumerate(columns):
                ctype = ctypes[j]
                self._data[name][start : start + len(chunk)] = [
                    ctype.coerce(r[j]) for r in chunk
                ]
            self._n += len(chunk)
            total += len(chunk)
        if total:
            for idx in self._indexes.values():
                idx.invalidate()
            self._sorted_cache.clear()
        return total

    def insert_columns(self, columns: Mapping[str, np.ndarray]) -> int:
        """Bulk columnar insert (fast path used by trace loading)."""
        if set(columns) != set(self.schema.column_names):
            raise ValueError("column mismatch in bulk insert")
        lengths = {len(v) for v in columns.values()}
        if len(lengths) != 1:
            raise ValueError("ragged bulk insert")
        count = lengths.pop()
        self._ensure_capacity(count)
        start = self._n
        for name, values in columns.items():
            dtype = self.schema[name].ctype.dtype
            arr = np.asarray(values)
            if dtype == object:
                arr = arr.astype(object)
            else:
                arr = arr.astype(dtype, copy=False)
            self._data[name][start : start + count] = arr
        self._n += count
        for idx in self._indexes.values():
            idx.invalidate()
        self._sorted_cache.clear()
        return count

    # -- chunked scans -------------------------------------------------------

    def _is_sorted(self, name: str) -> bool:
        """Cached non-decreasing check of a column, in bounded windows."""
        cached = self._sorted_cache.get(name)
        if cached is not None:
            return cached
        col = self.column(name)
        ok = True
        for start in range(0, max(len(col) - 1, 0), SCAN_BATCH_ROWS):
            window = col[start : start + SCAN_BATCH_ROWS + 1]
            if np.any(window[1:] < window[:-1]):
                ok = False
                break
        self._sorted_cache[name] = ok
        return ok

    def scan_batches(
        self,
        column: str,
        low=None,
        high=None,
        *,
        batch_rows: int = SCAN_BATCH_ROWS,
        columns: Sequence[str] | None = None,
    ) -> Iterator[ResultSet]:
        """Yield rows with ``low <= column < high`` as bounded columnar batches.

        Peak memory is O(``batch_rows``), never O(table).  When ``column``
        is stored in non-decreasing order (checked once and cached until
        the next insert) the matching rows are a contiguous window found
        by binary search and sliced out directly; otherwise each window
        of the table is mask-filtered in turn, preserving row order.
        ``low``/``high`` of ``None`` leave that side unbounded.
        """
        if column not in self.schema:
            raise KeyError(f"table {self.schema.name!r} has no column {column!r}")
        out_cols = tuple(columns) if columns is not None else self.schema.column_names
        for c in out_cols:
            if c not in self.schema:
                raise KeyError(f"unknown column {c!r} in scan column list")
        if batch_rows <= 0:
            raise ValueError("batch_rows must be positive")
        n = self._n
        key = self._data[column][:n]
        if self._is_sorted(column):
            lo = 0 if low is None else int(np.searchsorted(key, low, side="left"))
            hi = n if high is None else int(np.searchsorted(key, high, side="left"))
            for start in range(lo, hi, batch_rows):
                stop = min(start + batch_rows, hi)
                yield ResultSet(
                    {c: self._data[c][start:stop].copy() for c in out_cols}
                )
            return
        for start in range(0, n, batch_rows):
            stop = min(start + batch_rows, n)
            window = key[start:stop]
            mask = np.ones(stop - start, dtype=bool)
            if low is not None:
                mask &= window >= low
            if high is not None:
                mask &= window < high
            if not mask.any():
                continue
            yield ResultSet({c: self._data[c][start:stop][mask] for c in out_cols})

    # -- index management ------------------------------------------------------

    def _fresh_index(self, name: str) -> SortedIndex | None:
        idx = self._indexes.get(name)
        if idx is None:
            return None
        if idx.is_stale:
            idx.rebuild(self.column(name))
        return idx


def _resolve(value, params: Sequence):
    if isinstance(value, Param):
        if value.index >= len(params):
            raise ValueError(f"statement expects parameter {value.index}, got {len(params)}")
        return params[value.index]
    return value


class Database:
    """A named collection of tables executing the SQL subset.

    Example
    -------
    >>> db = Database()
    >>> jobs = db.execute("CREATE TABLE jobs (job_id INTEGER INDEXED, user_name TEXT)")
    >>> db.execute("INSERT INTO jobs (job_id, user_name) VALUES (1, 'alice')")
    1
    >>> len(jobs)
    1
    >>> db.execute("SELECT user_name FROM jobs WHERE job_id = ?", [1]).rows()
    [{'user_name': 'alice'}]
    """

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}

    # -- catalog ------------------------------------------------------------

    @property
    def table_names(self) -> tuple[str, ...]:
        return tuple(self._tables)

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise KeyError(f"no such table {name!r}") from None

    def create_table(self, schema: TableSchema) -> Table:
        if schema.name in self._tables:
            raise ValueError(f"table {schema.name!r} already exists")
        t = Table(schema)
        self._tables[schema.name] = t
        return t

    # -- entry point -----------------------------------------------------------

    def execute(self, sql: str, params: Sequence = ()):
        """Parse and run one statement.

        Returns a :class:`ResultSet` for SELECT, the inserted row count for
        INSERT, and the new :class:`Table` for CREATE TABLE.
        """
        stmt = parse_sql(sql)
        if isinstance(stmt, Select):
            return self._run_select(stmt, params)
        if isinstance(stmt, Insert):
            return self._run_insert(stmt, params)
        if isinstance(stmt, CreateTable):
            cols = [ColumnDef(n, t, indexed) for n, t, indexed in stmt.columns]
            return self.create_table(TableSchema(stmt.table, cols))
        raise TypeError(f"unhandled statement {stmt!r}")  # pragma: no cover

    # -- INSERT -------------------------------------------------------------------

    def _run_insert(self, stmt: Insert, params: Sequence) -> int:
        table = self.table(stmt.table)
        columns = stmt.columns or table.schema.column_names
        rows = [tuple(_resolve(v, params) for v in row) for row in stmt.rows]
        return table.insert_rows(columns, rows)

    # -- SELECT --------------------------------------------------------------------

    def _run_select(self, stmt: Select, params: Sequence) -> ResultSet:
        table = self.table(stmt.table)
        out_cols = stmt.columns or table.schema.column_names
        for c in out_cols:
            if c not in table.schema:
                raise KeyError(f"unknown column {c!r} in SELECT list")

        rows = self._plan_where(table, stmt.where, params)

        if stmt.order_by is not None:
            if stmt.order_by not in table.schema:
                raise KeyError(f"unknown ORDER BY column {stmt.order_by!r}")
            keys = table.column(stmt.order_by)[rows]
            order = np.argsort(keys, kind="stable")
            if stmt.descending:
                order = order[::-1]
            rows = rows[order]
        if stmt.limit is not None:
            rows = rows[: stmt.limit]

        return ResultSet({c: table.column(c)[rows].copy() for c in out_cols})

    # -- planner / filter ---------------------------------------------------------

    def _plan_where(self, table: Table, where: Expr | None, params: Sequence) -> np.ndarray:
        n = len(table)
        if where is None:
            return np.arange(n, dtype=np.int64)

        # Try index route: a single indexable predicate, or the first
        # indexable conjunct of a top-level AND (remaining conjuncts are
        # mask-filtered over the narrowed candidate set).
        conjuncts = list(where.operands) if isinstance(where, And) else [where]
        for i, pred in enumerate(conjuncts):
            rows = self._index_lookup(table, pred, params)
            if rows is not None:
                rest = conjuncts[:i] + conjuncts[i + 1 :]
                if not rest:
                    return np.sort(rows)
                remaining: Expr = rest[0] if len(rest) == 1 else And(tuple(rest))
                mask = self._eval_expr(table, remaining, params, rows)
                return np.sort(rows[mask])

        mask = self._eval_expr(table, where, params, None)
        return np.flatnonzero(mask)

    def _index_lookup(self, table: Table, pred: Expr, params: Sequence) -> np.ndarray | None:
        """Row ids from a sorted index, or None if not indexable."""
        if isinstance(pred, Comparison) and pred.op in ("=", "<", "<=", ">", ">="):
            idx = table._fresh_index(pred.column)
            if idx is None:
                return None
            v = _resolve(pred.value, params)
            if pred.op == "=":
                return idx.lookup_eq(v)
            if pred.op == "<":
                return idx.lookup_range(high=v, high_inclusive=False)
            if pred.op == "<=":
                return idx.lookup_range(high=v)
            if pred.op == ">":
                return idx.lookup_range(low=v, low_inclusive=False)
            return idx.lookup_range(low=v)
        if isinstance(pred, Between):
            idx = table._fresh_index(pred.column)
            if idx is None:
                return None
            return idx.lookup_range(
                low=_resolve(pred.low, params), high=_resolve(pred.high, params)
            )
        if isinstance(pred, InList) and not pred.negated:
            idx = table._fresh_index(pred.column)
            if idx is None:
                return None
            return idx.lookup_in([_resolve(v, params) for v in pred.values])
        return None

    def _eval_expr(
        self, table: Table, expr: Expr, params: Sequence, rows: np.ndarray | None
    ) -> np.ndarray:
        """Vectorized boolean mask of ``expr`` over all rows or a candidate set."""

        def col(name: str) -> np.ndarray:
            if name not in table.schema:
                raise KeyError(f"unknown column {name!r} in WHERE clause")
            c = table.column(name)
            return c if rows is None else c[rows]

        if isinstance(expr, Comparison):
            c = col(expr.column)
            v = _resolve(expr.value, params)
            if expr.op == "=":
                return c == v
            if expr.op == "!=":
                return c != v
            if expr.op == "<":
                return c < v
            if expr.op == "<=":
                return c <= v
            if expr.op == ">":
                return c > v
            return c >= v
        if isinstance(expr, Between):
            c = col(expr.column)
            return (c >= _resolve(expr.low, params)) & (c <= _resolve(expr.high, params))
        if isinstance(expr, InList):
            c = col(expr.column)
            mask = np.zeros(c.shape, dtype=bool)
            for v in expr.values:
                mask |= c == _resolve(v, params)
            return ~mask if expr.negated else mask
        if isinstance(expr, Not):
            return ~self._eval_expr(table, expr.operand, params, rows)
        if isinstance(expr, And):
            mask = self._eval_expr(table, expr.operands[0], params, rows)
            for op in expr.operands[1:]:
                mask = mask & self._eval_expr(table, op, params, rows)
            return mask
        if isinstance(expr, Or):
            mask = self._eval_expr(table, expr.operands[0], params, rows)
            for op in expr.operands[1:]:
                mask = mask | self._eval_expr(table, op, params, rows)
            return mask
        raise TypeError(f"unhandled expression {expr!r}")  # pragma: no cover

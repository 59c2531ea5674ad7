"""Tokenizer and recursive-descent parser for the engine's SQL subset.

Supported grammar (case-insensitive keywords)::

    stmt        := select | insert | create
    create      := CREATE TABLE name '(' coldef (',' coldef)* ')'
    coldef      := name type [INDEXED]
    insert      := INSERT INTO name ['(' names ')'] VALUES tuple (',' tuple)*
    select      := SELECT ('*' | names) FROM name [WHERE expr]
                   [ORDER BY name [ASC|DESC]] [LIMIT int]
    names       := name (',' name)*
    expr        := or_expr
    or_expr     := and_expr (OR and_expr)*
    and_expr    := not_expr (AND not_expr)*
    not_expr    := NOT not_expr | predicate
    predicate   := '(' expr ')'
                 | name cmp value
                 | name BETWEEN value AND value
                 | name [NOT] IN '(' value (',' value)* ')'
    cmp         := '=' | '==' | '!=' | '<>' | '<' | '<=' | '>' | '>='
    value       := number | 'string' | '?'   (positional parameter)

The parser builds a small AST of dataclasses consumed by the engine's
planner/executor.  It is intentionally strict: anything outside the subset
raises :class:`SQLSyntaxError` with the offending position.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Union

from repro.storage.schema import ColumnType

__all__ = [
    "SQLSyntaxError",
    "parse_sql",
    "Param",
    "Comparison",
    "Between",
    "InList",
    "Not",
    "And",
    "Or",
    "Select",
    "Insert",
    "CreateTable",
]


class SQLSyntaxError(ValueError):
    """Raised when a statement does not conform to the supported subset."""


# -- AST ---------------------------------------------------------------------


@dataclass(frozen=True)
class Param:
    """A positional ``?`` placeholder, numbered left to right from 0."""

    index: int


Value = Union[int, float, str, Param]


@dataclass(frozen=True)
class Comparison:
    column: str
    op: str  # one of = != < <= > >=
    value: Value


@dataclass(frozen=True)
class Between:
    column: str
    low: Value
    high: Value


@dataclass(frozen=True)
class InList:
    column: str
    values: tuple[Value, ...]
    negated: bool = False


@dataclass(frozen=True)
class Not:
    operand: "Expr"


@dataclass(frozen=True)
class And:
    operands: tuple["Expr", ...]


@dataclass(frozen=True)
class Or:
    operands: tuple["Expr", ...]


Expr = Union[Comparison, Between, InList, Not, And, Or]


@dataclass(frozen=True)
class Select:
    table: str
    columns: tuple[str, ...] | None  # None means '*'
    where: Expr | None = None
    order_by: str | None = None
    descending: bool = False
    limit: int | None = None


@dataclass(frozen=True)
class Insert:
    table: str
    columns: tuple[str, ...] | None
    rows: tuple[tuple[Value, ...], ...]


@dataclass(frozen=True)
class CreateTable:
    table: str
    columns: tuple[tuple[str, ColumnType, bool], ...]  # (name, type, indexed)


# -- tokenizer -----------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>[-+]?(\d+\.\d*|\.\d+|\d+)([eE][-+]?\d+)?)
  | (?P<string>'(?:[^']|'')*')
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op><=|>=|<>|==|!=|=|<|>)
  | (?P<punct>[(),*?])
    """,
    re.VERBOSE,
)

_KEYWORDS = {
    "SELECT", "FROM", "WHERE", "ORDER", "BY", "ASC", "DESC", "LIMIT",
    "INSERT", "INTO", "VALUES", "CREATE", "TABLE", "AND", "OR", "NOT",
    "BETWEEN", "IN", "INDEXED", "INTEGER", "REAL", "TEXT",
}


@dataclass(frozen=True)
class _Token:
    kind: str  # keyword | name | number | string | op | punct | end
    text: str
    pos: int


def _tokenize(sql: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(sql):
        m = _TOKEN_RE.match(sql, pos)
        if m is None:
            raise SQLSyntaxError(f"unexpected character {sql[pos]!r} at {pos}")
        pos = m.end()
        if m.lastgroup == "ws":
            continue
        text = m.group()
        kind = m.lastgroup
        if kind == "name" and text.upper() in _KEYWORDS:
            kind, text = "keyword", text.upper()
        tokens.append(_Token(kind, text, m.start()))
    tokens.append(_Token("end", "", len(sql)))
    return tokens


# -- parser ---------------------------------------------------------------------


class _Parser:
    def __init__(self, sql: str) -> None:
        self.sql = sql
        self.tokens = _tokenize(sql)
        self.i = 0
        self.n_params = 0

    # token helpers
    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text or kind
            raise SQLSyntaxError(f"expected {want} at position {tok.pos}, got {tok.text!r}")
        return self.advance()

    def accept(self, kind: str, text: str | None = None) -> _Token | None:
        tok = self.peek()
        if tok.kind == kind and (text is None or tok.text == text):
            return self.advance()
        return None

    # entry point
    def parse(self):
        tok = self.peek()
        if tok.kind != "keyword":
            raise SQLSyntaxError(f"statement must start with a keyword, got {tok.text!r}")
        if tok.text == "SELECT":
            stmt = self.parse_select()
        elif tok.text == "INSERT":
            stmt = self.parse_insert()
        elif tok.text == "CREATE":
            stmt = self.parse_create()
        else:
            raise SQLSyntaxError(f"unsupported statement {tok.text}")
        self.expect("end")
        return stmt

    # values
    def parse_value(self) -> Value:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            text = tok.text
            if any(c in text for c in ".eE"):
                return float(text)
            return int(text)
        if tok.kind == "string":
            self.advance()
            return tok.text[1:-1].replace("''", "'")
        if tok.kind == "punct" and tok.text == "?":
            self.advance()
            p = Param(self.n_params)
            self.n_params += 1
            return p
        raise SQLSyntaxError(f"expected a value at position {tok.pos}, got {tok.text!r}")

    # expressions
    def parse_expr(self) -> Expr:
        return self.parse_or()

    def parse_or(self) -> Expr:
        operands = [self.parse_and()]
        while self.accept("keyword", "OR"):
            operands.append(self.parse_and())
        return operands[0] if len(operands) == 1 else Or(tuple(operands))

    def parse_and(self) -> Expr:
        operands = [self.parse_not()]
        while self.accept("keyword", "AND"):
            operands.append(self.parse_not())
        return operands[0] if len(operands) == 1 else And(tuple(operands))

    def parse_not(self) -> Expr:
        if self.accept("keyword", "NOT"):
            return Not(self.parse_not())
        return self.parse_predicate()

    def parse_predicate(self) -> Expr:
        if self.accept("punct", "("):
            inner = self.parse_expr()
            self.expect("punct", ")")
            return inner
        col = self.expect("name").text
        tok = self.peek()
        if tok.kind == "op":
            self.advance()
            op = {"==": "=", "<>": "!="}.get(tok.text, tok.text)
            return Comparison(col, op, self.parse_value())
        if self.accept("keyword", "BETWEEN"):
            low = self.parse_value()
            self.expect("keyword", "AND")
            high = self.parse_value()
            return Between(col, low, high)
        negated = bool(self.accept("keyword", "NOT"))
        if self.accept("keyword", "IN"):
            self.expect("punct", "(")
            values = [self.parse_value()]
            while self.accept("punct", ","):
                values.append(self.parse_value())
            self.expect("punct", ")")
            return InList(col, tuple(values), negated=negated)
        raise SQLSyntaxError(f"expected a predicate after column {col!r} at {tok.pos}")

    # statements
    def parse_select(self) -> Select:
        self.expect("keyword", "SELECT")
        columns: tuple[str, ...] | None = None
        if not self.accept("punct", "*"):
            names = [self.expect("name").text]
            while self.accept("punct", ","):
                names.append(self.expect("name").text)
            columns = tuple(names)
        self.expect("keyword", "FROM")
        table = self.expect("name").text
        where = None
        if self.accept("keyword", "WHERE"):
            where = self.parse_expr()
        order_by, descending = None, False
        if self.accept("keyword", "ORDER"):
            self.expect("keyword", "BY")
            order_by = self.expect("name").text
            if self.accept("keyword", "DESC"):
                descending = True
            else:
                self.accept("keyword", "ASC")
        limit = None
        if self.accept("keyword", "LIMIT"):
            tok = self.expect("number")
            if any(c in tok.text for c in ".eE"):
                raise SQLSyntaxError("LIMIT must be an integer")
            limit = int(tok.text)
            if limit < 0:
                raise SQLSyntaxError("LIMIT must be non-negative")
        return Select(table, columns, where, order_by, descending, limit)

    def parse_insert(self) -> Insert:
        self.expect("keyword", "INSERT")
        self.expect("keyword", "INTO")
        table = self.expect("name").text
        columns: tuple[str, ...] | None = None
        if self.accept("punct", "("):
            names = [self.expect("name").text]
            while self.accept("punct", ","):
                names.append(self.expect("name").text)
            self.expect("punct", ")")
            columns = tuple(names)
        self.expect("keyword", "VALUES")
        rows = [self.parse_tuple()]
        while self.accept("punct", ","):
            rows.append(self.parse_tuple())
        return Insert(table, columns, tuple(rows))

    def parse_tuple(self) -> tuple[Value, ...]:
        self.expect("punct", "(")
        values = [self.parse_value()]
        while self.accept("punct", ","):
            values.append(self.parse_value())
        self.expect("punct", ")")
        return tuple(values)

    def parse_create(self) -> CreateTable:
        self.expect("keyword", "CREATE")
        self.expect("keyword", "TABLE")
        table = self.expect("name").text
        self.expect("punct", "(")
        cols: list[tuple[str, ColumnType, bool]] = []
        while True:
            name = self.expect("name").text
            tok = self.peek()
            if tok.kind != "keyword" or tok.text not in ("INTEGER", "REAL", "TEXT"):
                raise SQLSyntaxError(f"expected a column type at {tok.pos}")
            self.advance()
            ctype = ColumnType[tok.text]
            indexed = bool(self.accept("keyword", "INDEXED"))
            cols.append((name, ctype, indexed))
            if not self.accept("punct", ","):
                break
        self.expect("punct", ")")
        return CreateTable(table, tuple(cols))


def parse_sql(sql: str):
    """Parse one SQL statement, returning its AST node.

    Raises :class:`SQLSyntaxError` on anything outside the supported subset.
    """
    return _Parser(sql).parse()

"""Relational schemas for quantum states and gates.

Sec. 2.1 of the paper defines two schemas:

* a state table ``T(s, r, i)`` — one row per nonzero basis state, where ``s``
  is the basis index as an integer and ``r``/``i`` are the real and imaginary
  parts of its amplitude;
* a gate table ``T(in_s, out_s, r, i)`` — one row per nonzero transition
  amplitude of the gate's (local) unitary matrix.

This module holds the column definitions, table-name conventions (``T0``,
``T1``, ... for state snapshots; upper-cased gate names for gate tables),
the tables as data (:class:`TableData`) and the DDL / INSERT statement
generation from that data shared by every RDBMS backend.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import TranslationError

#: Column names of a state table, in order.
STATE_COLUMNS = ("s", "r", "i")
#: Column names of a gate table, in order.
GATE_COLUMNS = ("in_s", "out_s", "r", "i")

#: SQL identifiers that must not be used as bare table names.
_RESERVED_WORDS = {
    "select", "from", "where", "group", "order", "by", "join", "on", "as", "with",
    "table", "create", "insert", "into", "values", "drop", "index", "union", "all",
    "and", "or", "not", "in", "is", "null", "to", "sum", "case", "when", "then", "end",
}

_IDENTIFIER_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def state_table_name(step: int) -> str:
    """Name of the state snapshot after ``step`` gates: ``T0``, ``T1``, ..."""
    if step < 0:
        raise TranslationError("state step must be non-negative")
    return f"T{step}"


def is_valid_identifier(name: str) -> bool:
    """True if ``name`` can be used as a bare SQL identifier."""
    return bool(_IDENTIFIER_RE.match(name)) and name.lower() not in _RESERVED_WORDS


def sanitize_identifier(name: str, fallback: str = "tbl") -> str:
    """Turn an arbitrary string into a safe SQL identifier."""
    cleaned = re.sub(r"[^A-Za-z0-9_]", "_", name)
    if not cleaned or not cleaned[0].isalpha():
        cleaned = f"{fallback}_{cleaned}" if cleaned else fallback
    if cleaned.lower() in _RESERVED_WORDS:
        cleaned = f"{cleaned}_t"
    return cleaned


@dataclass(frozen=True)
class TableData:
    """One table of a relational program as data: its name and column arrays.

    ``int64`` columns are the dialect's integer type, ``float64`` columns
    its real type; every column is ``NOT NULL``.  The SQL script is rendered
    from this (:func:`create_table_sql`, :func:`insert_sql`), and an engine
    with a columnar way in is handed the arrays themselves — one source, so
    the printed script and the loaded tables cannot drift.
    """

    name: str
    columns: dict[str, np.ndarray]


def _table_data(kind: str, name: str, names: Sequence[str], dtypes: Sequence[type], rows) -> TableData:
    if not is_valid_identifier(name):
        raise TranslationError(f"invalid {kind} table name {name!r}")
    if not rows:
        raise TranslationError(f"{kind} table {name!r} needs at least one row")
    # Column by column: a 2-D array would route the indices through float64.
    return TableData(
        name,
        {
            column: np.array(values, dtype=dtype)
            for column, dtype, values in zip(names, dtypes, zip(*rows))
        },
    )


def state_table_data(name: str, rows: Sequence[tuple[int, float, float]]) -> TableData:
    """A state table ``T(s, r, i)`` holding ``rows``."""
    return _table_data("state", name, STATE_COLUMNS, (np.int64, np.float64, np.float64), rows)


def gate_table_data(name: str, rows: Sequence[tuple[int, int, float, float]]) -> TableData:
    """A gate table ``T(in_s, out_s, r, i)`` holding ``rows``."""
    return _table_data(
        "gate", name, GATE_COLUMNS, (np.int64, np.int64, np.float64, np.float64), rows
    )


def create_table_sql(table: TableData, integer_type: str = "BIGINT", real_type: str = "DOUBLE") -> str:
    """``CREATE TABLE`` statement for ``table``."""
    columns = ", ".join(
        f"{column} {integer_type if values.dtype.kind == 'i' else real_type} NOT NULL"
        for column, values in table.columns.items()
    )
    return f"CREATE TABLE {table.name} ({columns})"


def insert_sql(table: TableData) -> str:
    """Multi-row ``INSERT`` statement for ``table`` (``repr`` keeps full double precision)."""
    rows = zip(*(values.tolist() for values in table.columns.values()))
    values = ", ".join(f"({', '.join(map(repr, row))})" for row in rows)
    return f"INSERT INTO {table.name} ({', '.join(table.columns)}) VALUES {values}"

"""Columnar table storage for the embedded engine (v2: encoded columns).

A :class:`Table` stores each column as an :class:`EncodedColumn` — int64 /
float64 chunks for numerics, dictionary-encoded ``int32`` codes plus a
sorted value dictionary for text — with a packed validity bitmap per
chunk.  The compute layer sees a contiguous materialization per column:
a plain numpy array for numerics, a
:class:`~repro.backends.memdb.column.DictArray` for encoded text.  That is
what makes the engine "columnar and vectorized" in the DuckDB sense: every
operator works on whole column vectors (codes where possible) instead of
Python rows.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ...errors import SQLExecutionError
from .column import DictArray, EncodedColumn

#: SQL type names mapped to numpy dtypes.
_TYPE_MAP = {
    "INTEGER": np.int64,
    "INT": np.int64,
    "BIGINT": np.int64,
    "SMALLINT": np.int64,
    "REAL": np.float64,
    "DOUBLE": np.float64,
    "FLOAT": np.float64,
    "NUMERIC": np.float64,
    "TEXT": object,
    "VARCHAR": object,
    "STRING": object,
}


def dtype_for_sql_type(type_name: str) -> type:
    """numpy dtype for a declared SQL column type (defaults to float64)."""
    return _TYPE_MAP.get(type_name.upper(), np.float64)


#: dtype -> its schema-signature name.  ``str(np.dtype)`` runs numpy's
#: Python-level name builder; a table signs every column at construction,
#: and the engine only ever sees a handful of distinct dtypes.
_DTYPE_NAMES: dict[np.dtype, str] = {}


def _dtype_name(dtype: np.dtype) -> str:
    name = _DTYPE_NAMES.get(dtype)
    if name is None:
        name = _DTYPE_NAMES[dtype] = str(dtype)
    return name


def _bound_frame(
    binding: str, columns: Iterable[tuple[str, np.ndarray | DictArray]]
) -> dict[str, np.ndarray | DictArray]:
    """The scan surface of a relation: vectors keyed ``binding.column`` and ``column``."""
    frame: dict[str, np.ndarray | DictArray] = {}
    for column, values in columns:
        # setdefault twice: of two result columns with one name (a CTE
        # projecting ``x.s, y.s``) a scan sees the first, as SQLite does.
        frame.setdefault(f"{binding}.{column}", values)
        frame.setdefault(column, values)
    return frame


class Table:
    """A named collection of equally-long encoded columns."""

    __slots__ = ("name", "_columns", "_dtypes", "_schema_signature")

    def __init__(
        self,
        name: str,
        columns: dict[str, np.ndarray | DictArray | EncodedColumn],
    ) -> None:
        self.name = name
        self._columns: dict[str, EncodedColumn] = {
            column: (
                values if isinstance(values, EncodedColumn) else EncodedColumn.from_array(values)
            )
            for column, values in columns.items()
        }
        lengths = {encoded.num_rows for encoded in self._columns.values()}
        if len(lengths) > 1:
            raise SQLExecutionError(f"table {name!r}: column lengths differ ({lengths})")
        self._dtypes = {column: encoded.dtype for column, encoded in self._columns.items()}
        # Column set and *logical* dtypes are fixed for the table's lifetime
        # (append_rows coerces to the declared dtypes; dictionary growth
        # never changes the logical type), so the signature the plan cache
        # checks on every hit is computed exactly once.  Text columns sign
        # as "object".
        self._schema_signature = tuple(
            (column, _dtype_name(dtype)) for column, dtype in self._dtypes.items()
        )

    # ------------------------------------------------------------- factories

    @classmethod
    def empty(cls, name: str, column_types: Sequence[tuple[str, str]]) -> "Table":
        """An empty table with declared column types."""
        return cls(
            name,
            {
                column: EncodedColumn.empty(dtype_for_sql_type(type_name))
                for column, type_name in column_types
            },
        )

    # ------------------------------------------------------------ properties

    @property
    def column_names(self) -> list[str]:
        """Column names in declaration order."""
        return list(self._columns.keys())

    @property
    def num_rows(self) -> int:
        """Number of rows."""
        if not self._columns:
            return 0
        first = next(iter(self._columns.values()))
        return int(first.num_rows)

    @property
    def num_columns(self) -> int:
        """Number of columns."""
        return len(self._columns)

    def column(self, name: str) -> np.ndarray | DictArray:
        """The contiguous vector backing one column (cached materialization)."""
        if name not in self._columns:
            raise SQLExecutionError(f"table {self.name!r} has no column {name!r}")
        return self._columns[name].materialize()

    def encoded_column(self, name: str) -> EncodedColumn:
        """The storage-layer column (chunks, bitmaps, dictionary)."""
        if name not in self._columns:
            raise SQLExecutionError(f"table {self.name!r} has no column {name!r}")
        return self._columns[name]

    def has_column(self, name: str) -> bool:
        """True if the column exists."""
        return name in self._columns

    def estimated_bytes(self) -> int:
        """Approximate in-memory size of the encoded column data."""
        return int(sum(encoded.nbytes() for encoded in self._columns.values()))

    def storage_stats(self) -> dict:
        """Storage accounting per column plus table totals."""
        columns = {name: encoded.storage_stats() for name, encoded in self._columns.items()}
        return {
            "rows": self.num_rows,
            "total_bytes": self.estimated_bytes(),
            "columns": columns,
        }

    def schema_signature(self) -> tuple[tuple[str, str], ...]:
        """Column names and logical dtypes in declaration order.

        The plan cache fingerprints compiled scripts on this signature so a
        dropped-and-recreated table with a different shape can never re-bind
        a stale plan.  Dictionary growth does not change the signature.
        """
        return self._schema_signature

    # --------------------------------------------------------------- mutation

    def append_rows(self, column_order: Sequence[str], rows: Iterable[Sequence[object]]) -> int:
        """Append literal rows (INSERT ... VALUES); returns the number of rows added."""
        rows = list(rows)
        if not rows:
            return 0
        order = list(column_order) if column_order else self.column_names
        missing = [column for column in order if column not in self._columns]
        if missing:
            raise SQLExecutionError(f"table {self.name!r} has no column(s) {missing}")
        if set(order) != set(self.column_names):
            raise SQLExecutionError(
                f"INSERT must provide all columns of {self.name!r} ({self.column_names}); got {order}"
            )
        for row in rows:
            if len(row) != len(order):
                raise SQLExecutionError(
                    f"INSERT row has {len(row)} values for {len(order)} columns in {self.name!r}"
                )
        by_column: dict[str, list[object]] = {column: [] for column in order}
        for row in rows:
            for column, value in zip(order, row):
                by_column[column].append(value)
        # Validate every column before mutating any, so a bad row leaves the
        # table unchanged.
        converted = {
            column: self._coerce_values(column, by_column[column]) for column in self.column_names
        }
        for column, new_values in converted.items():
            self._columns[column].append(new_values)
        return len(rows)

    def _coerce_values(self, column: str, values: list[object]) -> np.ndarray:
        """Build a column chunk with the *declared* dtype, rejecting misfits.

        Inferring a dtype from the literals and re-casting would silently
        truncate floats inserted into integer columns and mangle object
        columns; incompatible values raise a clear error instead.
        """
        dtype = self._dtypes[column]
        kind = np.dtype(dtype).kind if dtype != object else "O"
        if kind == "O":
            for value in values:
                if value is not None and not isinstance(value, str):
                    raise SQLExecutionError(
                        f"cannot insert {value!r} into text column {column!r} of table {self.name!r}"
                    )
            chunk = np.empty(len(values), dtype=object)
            chunk[:] = values
            return chunk
        if kind in "iu":
            coerced_ints: list[int] = []
            for value in values:
                # Integral-valued floats (2.0) and numeric strings ('2') store
                # losslessly, matching SQLite's INTEGER affinity and DuckDB's
                # implicit cast; anything lossy raises.
                if isinstance(value, str):
                    try:
                        # int() first: a float round-trip would corrupt
                        # integer strings above 2^53.
                        value = int(value)
                    except ValueError:
                        value = self._parse_numeric_string(value, column, "integer")
                if isinstance(value, (bool, np.bool_, int, np.integer)):
                    coerced_ints.append(int(value))
                elif isinstance(value, (float, np.floating)) and float(value).is_integer():
                    coerced_ints.append(int(value))
                else:
                    raise SQLExecutionError(
                        f"cannot insert {value!r} into integer column {column!r} of table {self.name!r}"
                    )
            try:
                return np.asarray(coerced_ints, dtype=dtype)
            except OverflowError:
                raise SQLExecutionError(
                    f"integer out of 64-bit range for column {column!r} of table {self.name!r}"
                ) from None
        # Float column: numbers only; NULL becomes NaN.  Strings — numeric
        # or not — are rejected: '1.5' silently coercing into a DOUBLE
        # column violated declared-dtype strictness (integer columns keep
        # their string affinity because that path is lossless).
        coerced: list[float] = []
        for value in values:
            if value is None:
                coerced.append(float("nan"))
            elif isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
                coerced.append(float(value))
            else:
                raise SQLExecutionError(
                    f"cannot insert {value!r} into real column {column!r} of table {self.name!r}"
                )
        return np.asarray(coerced, dtype=dtype)

    def _parse_numeric_string(self, value: str, column: str, kind: str) -> float:
        try:
            return float(value)
        except ValueError:
            raise SQLExecutionError(
                f"cannot insert {value!r} into {kind} column {column!r} of table {self.name!r}"
            ) from None

    def delete_where(self, mask: np.ndarray) -> int:
        """Delete the rows where ``mask`` is true; returns the number deleted."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape[0] != self.num_rows:
            raise SQLExecutionError("DELETE mask length does not match the table")
        keep = ~mask
        deleted = int(mask.sum())
        for column in self.column_names:
            self._columns[column].delete_where(keep)
        return deleted

    # ----------------------------------------------------------------- views

    def frame(self, binding: str | None = None) -> dict[str, np.ndarray | DictArray]:
        """Column dictionary keyed by both qualified and bare names."""
        return _bound_frame(
            binding or self.name,
            ((column, encoded.materialize()) for column, encoded in self._columns.items()),
        )

    def rows(self) -> list[tuple]:
        """Materialize all rows as Python tuples (column order preserved)."""
        columns = [self.column(name) for name in self.column_names]
        return [
            tuple(
                column[index].item() if hasattr(column[index], "item") else column[index]
                for column in columns
            )
            for index in range(self.num_rows)
        ]

    def __repr__(self) -> str:
        return f"Table({self.name!r}, columns={self.column_names}, rows={self.num_rows})"


class TransientTable:
    """A query block's result handed to the next block as its column vectors.

    CTE results live for one statement and are only ever scanned, so they
    skip everything a stored :class:`Table` pays for — chunking, validity
    bitmaps, a schema signature — and expose just the scan surface: :meth:`frame` and :attr:`num_rows`.  The vectors
    are shared, not copied; ``CREATE TABLE AS`` builds a real
    :class:`Table` from copies instead.
    """

    __slots__ = ("name", "num_rows", "_names", "_vectors")

    def __init__(
        self, name: str, names: Sequence[str], vectors: Sequence[np.ndarray | DictArray]
    ) -> None:
        self.name = name
        self.num_rows = len(vectors[0]) if vectors else 0
        self._names = names
        # Text a block computed (literals, ``||``) is fixed-width ``<U``;
        # stored text is object/dictionary.  Scans see the stored forms.
        self._vectors = [
            values.astype(object) if values.dtype.kind == "U" else values for values in vectors
        ]

    def frame(self, binding: str | None = None) -> dict[str, np.ndarray | DictArray]:
        """Column dictionary keyed by both qualified and bare names."""
        return _bound_frame(binding or self.name, zip(self._names, self._vectors))

"""Statistics catalog for the memdb cost-based optimizer.

One :class:`TableStats` per analyzed table, holding the row count plus
per-column :class:`ColumnStats`.  Beyond the min / max / NDV / null-fraction
summary, ``ANALYZE`` now collects a *distribution* per column:

* a **most-common-value (MCV) list** — the values whose frequency clearly
  exceeds the uniform expectation, each with its fraction of the table.
  Equality predicates on skewed columns stop assuming uniformity;
* an **equi-depth histogram** over the remaining (non-MCV, non-null) values
  of numeric columns — bucket boundaries chosen so every bucket holds the
  same number of rows, which keeps resolution where the data actually is.
  Range predicates interpolate inside the matching bucket instead of
  interpolating over the whole [min, max] span.

Statistics are refreshed explicitly by the ``ANALYZE`` statement and
invalidated automatically whenever the engine mutates a table (INSERT /
DELETE / DROP / CREATE ... AS), so the cost model can trust that a *present*
entry describes the current data.  When no entry exists the cost model falls
back to the live catalog row count and conservative defaults — an
un-analyzed database still optimizes, just with looser bounds.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np

from ..column import DictArray
from ..table import Table

#: Maximum number of most-common values kept per column.
MCV_LIST_SIZE = 8
#: A value becomes an MCV only when its frequency exceeds the uniform
#: expectation by this factor (PostgreSQL uses a similar over-average rule);
#: uniform columns therefore keep an empty MCV list and a pure histogram.
MCV_OVER_UNIFORM = 1.25
#: Number of equi-depth histogram buckets.
HISTOGRAM_BUCKETS = 16


@dataclass(frozen=True)
class ColumnStats:
    """Summary statistics plus distribution sketch of one column."""

    name: str
    #: numpy dtype kind: "i" (int), "f" (float), "O" (object/text).
    kind: str
    ndv: int
    null_fraction: float
    minimum: Optional[float] = None
    maximum: Optional[float] = None
    #: (value, fraction of *all* rows) for the most common values.
    mcv: tuple[tuple[object, float], ...] = ()
    #: Equi-depth bucket boundaries (len = buckets + 1) over the non-MCV,
    #: non-null values of a numeric column; empty when not collected.
    histogram: tuple[float, ...] = ()
    #: Fraction of all rows covered by the histogram population.
    histogram_fraction: float = 0.0

    # ----------------------------------------------------- distribution math

    @property
    def non_null_fraction(self) -> float:
        return max(0.0, 1.0 - self.null_fraction)

    @property
    def mcv_fraction(self) -> float:
        """Total fraction of rows held by the MCV list."""
        return float(sum(fraction for _value, fraction in self.mcv))

    def has_distribution(self) -> bool:
        """True when ANALYZE collected an MCV list or histogram."""
        return bool(self.mcv) or bool(self.histogram)

    def eq_fraction(self, value: object) -> Optional[float]:
        """Estimated fraction of rows equal to ``value`` (None = no info).

        MCV hits return the measured frequency; misses spread the non-MCV
        mass uniformly over the remaining distinct values.  When the MCV
        list is exhaustive (``ndv`` values all listed) an unseen literal
        matches nothing.
        """
        if not self.has_distribution():
            if self.ndv > 0:
                return self.non_null_fraction / self.ndv
            return None
        for candidate, fraction in self.mcv:
            if candidate == value:
                return fraction
        remaining_ndv = self.ndv - len(self.mcv)
        if remaining_ndv <= 0:
            return 0.0
        remaining_mass = max(0.0, self.non_null_fraction - self.mcv_fraction)
        return remaining_mass / remaining_ndv

    def _fraction_at_most(self, value: float, inclusive: bool) -> float:
        """Estimated fraction of *all* rows with column {<, <=} value."""
        total = 0.0
        for candidate, fraction in self.mcv:
            if not isinstance(candidate, (int, float)):
                continue
            if candidate < value or (inclusive and candidate == value):
                total += fraction
        bounds = self.histogram
        if bounds and self.histogram_fraction > 0.0:
            if value < bounds[0]:
                covered = 0.0
            elif value >= bounds[-1]:
                covered = 1.0
            else:
                bucket = max(0, bisect_right(bounds, value) - 1)
                bucket = min(bucket, len(bounds) - 2)
                low, high = bounds[bucket], bounds[bucket + 1]
                within = 1.0 if high <= low else (value - low) / (high - low)
                covered = (bucket + within) / (len(bounds) - 1)
            total += covered * self.histogram_fraction
        return total

    def range_fraction(self, operator: str, value: object) -> Optional[float]:
        """Estimated selectivity of ``column <op> value`` from the sketch.

        Returns ``None`` when no distribution was collected or the literal
        is not numeric, signalling the caller to use its fallback model.
        """
        if self.kind == "O" or not self.has_distribution():
            return None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return None
        literal = float(value)
        if operator == "<":
            fraction = self._fraction_at_most(literal, inclusive=False)
        elif operator == "<=":
            fraction = self._fraction_at_most(literal, inclusive=True)
        elif operator == ">":
            fraction = self.non_null_fraction - self._fraction_at_most(literal, inclusive=True)
        elif operator == ">=":
            fraction = self.non_null_fraction - self._fraction_at_most(literal, inclusive=False)
        else:
            return None
        return min(1.0, max(0.0, fraction))


@dataclass(frozen=True)
class TableStats:
    """Row count plus per-column statistics of one analyzed table."""

    table: str
    row_count: int
    columns: Mapping[str, ColumnStats] = field(default_factory=dict)

    def column(self, name: str) -> Optional[ColumnStats]:
        """Statistics of one column, or ``None`` when unknown."""
        return self.columns.get(name)

    def frequency(self, name: str) -> float:
        """Estimated max frequency of a column's values (>= 1).

        With an MCV list the top value's measured frequency is the exact
        maximum; otherwise rows / NDV is the uniform approximation.
        """
        stats = self.columns.get(name)
        if stats is None or stats.ndv <= 0:
            return float(max(self.row_count, 1))
        if stats.mcv:
            top = max(fraction for _value, fraction in stats.mcv)
            return max(1.0, top * self.row_count)
        return max(1.0, self.row_count / stats.ndv)


def _distribution(
    values: np.ndarray, size: int
) -> tuple[tuple[tuple[object, float], ...], tuple[float, ...], float]:
    """MCV list + equi-depth histogram of one numeric column's non-null values."""
    total = len(values)
    if total == 0 or size == 0:
        return (), (), 0.0
    unique, counts = np.unique(values, return_counts=True)
    mcv: list[tuple[object, float]] = []
    mcv_values: set[float] = set()
    if len(unique) > 1:
        uniform = total / len(unique)
        order = np.argsort(counts)[::-1]
        for index in order[:MCV_LIST_SIZE]:
            count = int(counts[index])
            if count < 2 or count < uniform * MCV_OVER_UNIFORM:
                break
            value = unique[index].item()
            mcv.append((value, count / size))
            mcv_values.add(value)
    if mcv:
        keep = ~np.isin(values, np.asarray(sorted(mcv_values)))
        remaining = values[keep]
    else:
        remaining = values
    histogram: tuple[float, ...] = ()
    histogram_fraction = 0.0
    if len(remaining) >= 2 and len(np.unique(remaining)) >= 2:
        buckets = min(HISTOGRAM_BUCKETS, max(1, len(remaining) // 2))
        quantiles = np.linspace(0.0, 1.0, buckets + 1)
        histogram = tuple(float(b) for b in np.quantile(remaining, quantiles))
        histogram_fraction = len(remaining) / size
    return tuple(mcv), histogram, histogram_fraction


def _object_mcv(non_null: list[object], size: int) -> tuple[tuple[object, float], ...]:
    """MCV list of an object (text) column."""
    if not non_null or size == 0:
        return ()
    counter = Counter(non_null)
    if len(counter) <= 1:
        return ()
    uniform = len(non_null) / len(counter)
    mcv = []
    for value, count in counter.most_common(MCV_LIST_SIZE):
        if count < 2 or count < uniform * MCV_OVER_UNIFORM:
            break
        mcv.append((value, count / size))
    return tuple(mcv)


def _dict_mcv(
    counts: np.ndarray, dictionary: np.ndarray, non_null_count: int, size: int
) -> tuple[tuple[object, float], ...]:
    """MCV list straight from dictionary code counts (no decode pass)."""
    ndv = int((counts > 0).sum())
    if ndv <= 1 or size == 0:
        return ()
    uniform = non_null_count / ndv
    order = np.argsort(-counts, kind="stable")
    mcv: list[tuple[object, float]] = []
    for index in order[:MCV_LIST_SIZE]:
        count = int(counts[index])
        if count < 2 or count < uniform * MCV_OVER_UNIFORM:
            break
        mcv.append((str(dictionary[index]), count / size))
    return tuple(mcv)


def _column_stats(name: str, values: np.ndarray) -> ColumnStats:
    """Compute min/max/NDV/null-fraction plus the distribution sketch."""
    size = int(len(values))
    if isinstance(values, DictArray):
        # Dictionary-encoded text: NDV and the MCV list fall out of one
        # bincount over the codes — *exact*, and no object materialization.
        codes = values.codes
        valid = codes >= 0
        non_null_count = int(valid.sum())
        null_fraction = 0.0 if size == 0 else (size - non_null_count) / size
        if non_null_count:
            counts = np.bincount(codes[valid], minlength=len(values.dictionary))
        else:
            counts = np.zeros(len(values.dictionary), dtype=np.int64)
        return ColumnStats(
            name,
            "O",
            ndv=int((counts > 0).sum()),
            null_fraction=null_fraction,
            mcv=_dict_mcv(counts, values.dictionary, non_null_count, size),
        )
    if values.dtype == object:
        non_null = [value for value in values.tolist() if value is not None]
        ndv = len(set(non_null))
        null_fraction = 0.0 if size == 0 else (size - len(non_null)) / size
        return ColumnStats(
            name, "O", ndv, null_fraction, mcv=_object_mcv(non_null, size)
        )
    if values.dtype.kind == "f":
        nan_mask = np.isnan(values)
        non_null = values[~nan_mask]
        null_fraction = 0.0 if size == 0 else float(nan_mask.sum()) / size
    else:
        non_null = values
        null_fraction = 0.0
    if len(non_null) == 0:
        return ColumnStats(name, values.dtype.kind, 0, null_fraction)
    mcv, histogram, histogram_fraction = _distribution(non_null, size)
    return ColumnStats(
        name,
        values.dtype.kind,
        ndv=int(len(np.unique(non_null))),
        null_fraction=null_fraction,
        minimum=float(non_null.min()),
        maximum=float(non_null.max()),
        mcv=mcv,
        histogram=histogram,
        histogram_fraction=histogram_fraction,
    )


class StatisticsCatalog:
    """Per-database store of table statistics (the ANALYZE target).

    The catalog also keeps counters (analyze runs, invalidations) that the
    benchmarking report surfaces next to the plan-cache statistics.
    """

    __slots__ = ("_tables", "analyze_count", "invalidation_count")

    def __init__(self) -> None:
        self._tables: dict[str, TableStats] = {}
        self.analyze_count = 0
        self.invalidation_count = 0

    def analyze(self, table: Table) -> TableStats:
        """Compute and store fresh statistics for one table."""
        stats = TableStats(
            table=table.name,
            row_count=table.num_rows,
            columns={
                name: _column_stats(name, table.column(name)) for name in table.column_names
            },
        )
        self._tables[table.name] = stats
        self.analyze_count += 1
        return stats

    def get(self, name: str) -> Optional[TableStats]:
        """Stored statistics of one table (``None`` when never analyzed / stale)."""
        return self._tables.get(name)

    def invalidate(self, name: str) -> None:
        """Drop a table's statistics (engine calls on DML/DDL)."""
        if self._tables.pop(name, None) is not None:
            self.invalidation_count += 1

    def clear(self) -> None:
        """Drop every entry (database teardown)."""
        if self._tables:
            self.invalidation_count += len(self._tables)
        self._tables.clear()

    def table_names(self) -> list[str]:
        """Names of all analyzed tables."""
        return sorted(self._tables)

    # --------------------------------------------------------------- summary

    def summary(self) -> dict:
        """Counters plus a compact per-table digest (for reports / sessions)."""
        return {
            "analyzed_tables": len(self._tables),
            "analyze_count": self.analyze_count,
            "invalidation_count": self.invalidation_count,
            "tables": {
                name: {
                    "rows": stats.row_count,
                    "columns": {
                        column: {
                            "ndv": cs.ndv,
                            "null_fraction": cs.null_fraction,
                            "min": cs.minimum,
                            "max": cs.maximum,
                            "mcv": len(cs.mcv),
                            "histogram_buckets": max(0, len(cs.histogram) - 1),
                        }
                        for column, cs in stats.columns.items()
                    },
                }
                for name, stats in sorted(self._tables.items())
            },
        }

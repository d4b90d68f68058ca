"""Cost model: cardinality estimation, join ordering, operator choice.

Cardinalities follow the UES ("upper-bound estimation") discipline from the
pessimistic-optimization literature: a join's size is bounded by

    |L JOIN R|  <=  min(|L| * f_R,  |R| * f_L)

where ``f_X`` is the maximum frequency of the join key on side ``X``
(approximated as ``rows / NDV`` from the statistics catalog, or the side's
row count when the key is opaque).  Upper bounds never *under*-estimate, so
the greedy join-order search — repeatedly appending the eligible join with
the smallest bound — cannot be lured into a blow-up by an optimistic guess,
which is the property that makes UES robust without histograms.

Histograms refine the bounds without breaking them: equality and range
selectivities consult the per-column MCV list and equi-depth histogram
collected by ``ANALYZE`` (see :mod:`.stats`) and only fall back to the
uniform min/max/NDV model when no distribution was collected.

The same estimates drive the physical choices: the fused join-aggregate
versus the generic scan-join-group pipeline (both costs computed from the
bounded join cardinality and the column widths each strategy touches, see
:class:`FusionDecision`), and the top-k operator versus full
sort-then-slice for ``ORDER BY ... LIMIT`` queries (see
:class:`TopKDecision`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, Optional

import math

from ..ast_nodes import (
    BinaryOp,
    ColumnRef,
    Expression,
    InList,
    IsNull,
    Literal,
    Select,
    Star,
    TableSource,
    UnaryOp,
)
from ..executor import limit_bounds
from ..table import Table
from .rewrite import split_conjuncts
from .stats import StatisticsCatalog, TableStats

#: Row count assumed for tables the catalog knows nothing about.
DEFAULT_ROWS = 1000.0
#: Fallback selectivities (PostgreSQL-style defaults).
EQ_SELECTIVITY = 0.1
RANGE_SELECTIVITY = 1.0 / 3.0
GENERIC_SELECTIVITY = 0.25
#: Estimated comparisons per row of a bounded-heap top-k pass.
TOPK_ROW_COST = 1.0


@dataclass(frozen=True)
class JoinOrderDecision:
    """Outcome of the greedy join-order search for one Select."""

    original: tuple[str, ...]
    chosen: tuple[str, ...]
    #: Estimated cardinality after each join, aligned with ``chosen``.
    step_estimates: tuple[float, ...] = ()
    reordered: bool = False

    def describe(self) -> str:
        arrow = " -> ".join(self.chosen)
        suffix = "" if not self.reordered else f" (reordered from {' -> '.join(self.original)})"
        return f"{arrow}{suffix}"


@dataclass(frozen=True)
class FusionDecision:
    """Costed choice between the fused join-aggregate and the generic pipeline."""

    eligible: bool
    use_fused: bool
    fused_cost: float = math.inf
    generic_cost: float = math.inf
    estimated_join_rows: float = 0.0
    estimated_groups: float = 0.0

    def describe(self) -> str:
        if not self.eligible:
            return "generic pipeline (shape not fusable)"
        if self.use_fused:
            return (
                f"fused join-aggregate [cost {self.fused_cost:.1f}"
                f" < generic {self.generic_cost:.1f}]"
            )
        return (
            f"generic pipeline [cost {self.generic_cost:.1f}"
            f" <= fused {self.fused_cost:.1f}]"
        )


@dataclass(frozen=True)
class TopKDecision:
    """Costed choice between bounded-heap top-k and full sort-then-slice.

    ``k`` is the number of ordered rows the query actually needs
    (``LIMIT + OFFSET``); the top-k operator partitions the input around the
    k-th ranked primary key and only fully sorts the surviving candidates,
    so its cost scales with the input size plus ``k log k`` instead of
    ``n log n``.
    """

    k: int
    use_topk: bool
    estimated_input_rows: float = 0.0
    sort_cost: float = math.inf
    topk_cost: float = math.inf

    def describe(self) -> str:
        if self.use_topk:
            return (
                f"top-k (k={self.k}) [cost {self.topk_cost:.1f}"
                f" < sort {self.sort_cost:.1f}, est input ~{self.estimated_input_rows:.0f}]"
            )
        return (
            f"sort+limit [cost {self.sort_cost:.1f}"
            f" <= top-k {self.topk_cost:.1f}, est input ~{self.estimated_input_rows:.0f}]"
        )


def ordered_prefix_rows(select: Select) -> Optional[int]:
    """``LIMIT + OFFSET`` when the query needs only an ordered prefix.

    ``None`` when there is no ORDER BY, no LIMIT, or the limit is negative —
    delegating the SQLite normalization rules to the executor's
    :func:`~..executor.limit_bounds` so the cost model's ``k`` can never
    disagree with the slice the executor actually takes.
    """
    if not select.order_by:
        return None
    _start, stop = limit_bounds(select)
    return stop


class CostModel:
    """Estimates cardinalities and operator costs from catalog + statistics.

    ``derived_rows`` carries cardinality estimates for relations that are
    not stored tables — the CTE outputs estimated earlier in the same
    optimization pass — keyed by relation name.
    """

    def __init__(
        self,
        catalog: Mapping[str, Table] | None = None,
        statistics: StatisticsCatalog | None = None,
        derived_rows: Mapping[str, float] | None = None,
    ) -> None:
        self._catalog = catalog or {}
        self._statistics = statistics
        self._derived = dict(derived_rows or {})

    # ----------------------------------------------------------- primitives

    def set_derived_rows(self, name: str, rows: float) -> None:
        """Record the estimated output cardinality of a CTE."""
        self._derived[name] = max(0.0, rows)

    def table_stats(self, name: str) -> Optional[TableStats]:
        if self._statistics is None:
            return None
        return self._statistics.get(name)

    def table_rows(self, name: str) -> float:
        """Best available row-count estimate for a named relation."""
        stats = self.table_stats(name)
        if stats is not None:
            return float(stats.row_count)
        if name in self._catalog:
            return float(self._catalog[name].num_rows)
        if name in self._derived:
            return self._derived[name]
        return DEFAULT_ROWS

    def _column(self, table: str, column: str):
        stats = self.table_stats(table)
        return None if stats is None else stats.column(column)

    def key_frequency(self, table: str, key: Expression) -> float:
        """Max frequency of a join key (rows / NDV); rows when opaque."""
        rows = max(1.0, self.table_rows(table))
        if isinstance(key, ColumnRef):
            column = self._column(table, key.name)
            if column is not None and column.ndv > 0:
                return max(1.0, rows / column.ndv)
        else:
            refs = key.column_refs
            if len(refs) == 1:
                # A deterministic function of one column has at most that
                # column's NDV distinct values, so the frequency bound holds.
                column = self._column(table, refs[0].name)
                if column is not None and column.ndv > 0:
                    return max(1.0, rows / column.ndv)
        return rows

    # ---------------------------------------------------------- selectivity

    def selectivity(self, predicate: Expression, table: str) -> float:
        """Estimated fraction of a table's rows surviving a predicate."""
        total = 1.0
        for conjunct in split_conjuncts(predicate):
            total *= self._conjunct_selectivity(conjunct, table)
        return min(1.0, max(total, 0.0))

    def _conjunct_selectivity(self, conjunct: Expression, table: str) -> float:
        if isinstance(conjunct, BinaryOp) and conjunct.operator in ("=", "!=", "<", "<=", ">", ">="):
            column, literal = self._column_literal_sides(conjunct, table)
            if column is not None:
                if conjunct.operator == "=":
                    fraction = column.eq_fraction(literal)
                    if fraction is not None:
                        return fraction
                    return EQ_SELECTIVITY
                if conjunct.operator == "!=":
                    fraction = column.eq_fraction(literal)
                    if fraction is not None:
                        return max(0.0, column.non_null_fraction - fraction)
                    return 1.0 - EQ_SELECTIVITY
                # Histogram + MCV estimate first, min/max interpolation after.
                fraction = column.range_fraction(conjunct.operator, literal)
                if fraction is not None:
                    return fraction
                return self._range_selectivity(column, conjunct.operator, literal)
            return EQ_SELECTIVITY if conjunct.operator == "=" else RANGE_SELECTIVITY
        if isinstance(conjunct, InList):
            base = self._lookup_ref_stats(conjunct.operand, table)
            estimate = 0.0
            for value in conjunct.values:
                fraction = None
                if base is not None and isinstance(value, Literal):
                    fraction = base.eq_fraction(value.value)
                if fraction is None:
                    fraction = (
                        1.0 / base.ndv if base is not None and base.ndv > 0 else EQ_SELECTIVITY
                    )
                estimate += fraction
            return min(1.0, max(0.0, 1.0 - estimate if conjunct.negated else estimate))
        if isinstance(conjunct, IsNull):
            base = self._lookup_ref_stats(conjunct.operand, table)
            if base is not None:
                return 1.0 - base.null_fraction if conjunct.negated else base.null_fraction
            return GENERIC_SELECTIVITY
        return GENERIC_SELECTIVITY

    def _lookup_ref_stats(self, expression: Expression, table: str):
        if isinstance(expression, ColumnRef):
            return self._column(table, expression.name)
        return None

    def _column_literal_sides(self, comparison: BinaryOp, table: str):
        """(column stats, literal value) of a col-vs-literal comparison."""
        left, right = comparison.left, comparison.right
        if isinstance(left, ColumnRef) and isinstance(right, Literal):
            return self._column(table, left.name), right.value
        if isinstance(right, ColumnRef) and isinstance(left, Literal):
            return self._column(table, right.name), left.value
        return None, None

    @staticmethod
    def _range_selectivity(column, operator: str, literal: object) -> float:
        if (
            column.minimum is None
            or column.maximum is None
            or not isinstance(literal, (int, float))
            or column.maximum <= column.minimum
        ):
            return RANGE_SELECTIVITY
        span = column.maximum - column.minimum
        fraction = (float(literal) - column.minimum) / span
        fraction = min(1.0, max(0.0, fraction))
        if operator in ("<", "<="):
            return max(fraction, 1e-6)
        return max(1.0 - fraction, 1e-6)

    def scan_rows(self, source: TableSource) -> float:
        """Estimated rows surviving a (possibly filtered) scan."""
        rows = self.table_rows(source.name)
        if source.filter is not None:
            rows *= self.selectivity(source.filter, source.name)
        return rows

    # ------------------------------------------------------------ join math

    @staticmethod
    def join_upper_bound(
        left_rows: float, left_freq: float, right_rows: float, right_freq: float
    ) -> float:
        """The UES bound min(|L| * f_R, |R| * f_L) (never an underestimate)."""
        return max(0.0, min(left_rows * right_freq, right_rows * left_freq))

    # ------------------------------------------------------- join ordering

    def order_joins(self, select: Select) -> tuple[Select, Optional[JoinOrderDecision]]:
        """Greedy upper-bound join ordering; returns the (possibly) reordered Select.

        Reordering only fires when it is provably output-equivalent: at least
        two inner joins, fully qualified join conditions (so conditions can be
        attributed to bindings), and an order-insensitive SELECT shape — a
        grouped/aggregated projection (group order comes from the hash
        aggregate, not the input) or an explicit ORDER BY, and never a bare
        ``*`` (whose column order follows the join order).
        """
        if select.source is None or len(select.joins) < 2:
            return select, None
        if any(join.kind != "inner" for join in select.joins):
            return select, None
        all_bindings = [select.source.binding] + [join.source.binding for join in select.joins]
        if len(set(all_bindings)) != len(all_bindings):
            return select, None  # self-join reuses a binding; attribution is ambiguous
        has_star = any(
            isinstance(item.expression, Star) and item.expression.table is None
            for item in select.items
        )
        grouped = bool(select.group_by) or any(
            not isinstance(item.expression, Star) and item.expression.has_aggregate
            for item in select.items
        )
        if has_star or not (grouped or select.order_by):
            return select, None

        # Which bindings does each join's condition touch?
        join_refs: list[set[str]] = []
        bindings = {select.source.binding} | {join.source.binding for join in select.joins}
        for join in select.joins:
            refs = join.condition.column_refs
            if any(ref.table is None for ref in refs):
                return select, None  # cannot attribute; keep written order
            touched = {ref.table for ref in refs}
            if not touched <= bindings:
                return select, None
            join_refs.append(touched)

        original = tuple(join.source.binding for join in select.joins)
        available = {select.source.binding}
        current_rows = self.scan_rows(select.source)
        remaining = list(range(len(select.joins)))
        chosen: list[int] = []
        estimates: list[float] = []

        while remaining:
            eligible = [
                index
                for index in remaining
                if (join_refs[index] - {select.joins[index].source.binding}) <= available
            ]
            if not eligible:
                return select, None  # disconnected condition; keep written order
            best_index = None
            best_rows = math.inf
            for index in eligible:
                candidate = self._join_estimate(current_rows, select.joins[index])
                if candidate < best_rows:
                    best_rows = candidate
                    best_index = index
            chosen.append(best_index)  # type: ignore[arg-type]
            estimates.append(best_rows)
            current_rows = best_rows
            available.add(select.joins[best_index].source.binding)  # type: ignore[index]
            remaining.remove(best_index)  # type: ignore[arg-type]

        ordered = tuple(select.joins[index] for index in chosen)
        decision = JoinOrderDecision(
            original=original,
            chosen=tuple(join.source.binding for join in ordered),
            step_estimates=tuple(estimates),
            reordered=ordered != select.joins,
        )
        if not decision.reordered:
            return select, decision
        return replace(select, joins=ordered), decision

    def _join_estimate(self, left_rows: float, join) -> float:
        right_rows = self.scan_rows(join.source)
        right_freq = self._condition_side_frequency(join.condition, join.source)
        # The intermediate's key frequency is unknown; its row count is a
        # safe (if loose) stand-in, which reduces the bound to |L| * f_R.
        return self.join_upper_bound(left_rows, max(1.0, left_rows), right_rows, right_freq)

    def _condition_side_frequency(self, condition: Expression, source: TableSource) -> float:
        """Max frequency of the join key on the newly joined side."""
        if isinstance(condition, BinaryOp) and condition.operator == "=":
            for side in (condition.left, condition.right):
                refs = side.column_refs
                if refs and all(ref.table == source.binding for ref in refs):
                    # Map through the alias: stats live under the table name.
                    key = side
                    if isinstance(key, ColumnRef):
                        key = ColumnRef(key.name, table=None)
                    return self.key_frequency(source.name, key)
        return max(1.0, self.table_rows(source.name))

    # -------------------------------------------------- query-level estimate

    def estimate_select_rows(self, select: Select) -> float:
        """Upper-bound estimate of a Select's output cardinality (LIMIT-capped)."""
        rows = self.estimate_select_input_rows(select)
        _start, stop = limit_bounds(select)
        if stop is not None:
            rows = min(rows, float(stop))
        return rows

    def estimate_select_input_rows(self, select: Select) -> float:
        """Upper-bound estimate of a Select's *pre-limit* cardinality."""
        if select.source is None:
            rows = 1.0
        else:
            rows = self.scan_rows(select.source)
            for join in select.joins:
                rows = self._join_estimate(rows, join)
        if select.where is not None and select.source is not None:
            rows *= self.selectivity(select.where, select.source.name)
        grouped = bool(select.group_by) or any(
            not isinstance(item.expression, Star) and item.expression.has_aggregate
            for item in select.items
        )
        if grouped:
            rows = self._group_estimate(select, rows)
        return rows

    def _group_estimate(self, select: Select, input_rows: float) -> float:
        if not select.group_by:
            return 1.0
        ndv_product = 1.0
        known = False
        for key in select.group_by:
            refs = key.column_refs
            if len(refs) == 1:
                stats = None
                for source in [select.source, *[j.source for j in select.joins]]:
                    if source is None:
                        continue
                    if refs[0].table in (source.binding, None):
                        stats = self._column(source.name, refs[0].name)
                        if stats is not None:
                            break
                if stats is not None and stats.ndv > 0:
                    ndv_product *= stats.ndv
                    known = True
                    continue
            return input_rows  # opaque key: groups bounded only by input
        if not known:
            return input_rows
        return min(input_rows, ndv_product)

    # ----------------------------------------------------- operator choice

    def fusion_decision(
        self,
        select: Select,
        needed_columns: int,
    ) -> FusionDecision:
        """Cost the fused join-aggregate against the generic pipeline.

        Called by the planner once the fused operator's *eligibility* is
        established; the choice itself is made on estimated work:

        * generic = join + materialize every column of the joined frame +
          hash-aggregate over the materialized rows;
        * fused = join indices + gather only the columns the group key and
          SUM arguments read + bincount.
        """
        left = select.source
        right = select.joins[0].source if select.joins else None
        if left is None or right is None:
            return FusionDecision(eligible=False, use_fused=False)

        left_rows = self.scan_rows(left)
        right_rows = self.scan_rows(right)
        right_freq = self._condition_side_frequency(select.joins[0].condition, right)
        join_rows = self.join_upper_bound(
            left_rows, max(1.0, left_rows), right_rows, right_freq
        )
        groups = self._group_estimate(select, join_rows)

        left_width = self._table_width(left.name)
        right_width = self._table_width(right.name)
        total_width = left_width + right_width
        outputs = len(select.items)

        join_cost = left_rows + right_rows + join_rows
        sort_cost = join_rows * max(1.0, math.log2(join_rows + 2))
        generic_cost = (
            join_cost
            + join_rows * total_width          # materialize the joined frame
            + sort_cost                        # group-key factorization
            + join_rows * outputs              # per-output aggregation passes
        )
        fused_cost = (
            join_cost
            + join_rows * max(1, needed_columns)  # gather only live columns
            + sort_cost
            + join_rows * max(0, outputs - 1)     # bincount per aggregate
        )
        return FusionDecision(
            eligible=True,
            use_fused=fused_cost < generic_cost,
            fused_cost=fused_cost,
            generic_cost=generic_cost,
            estimated_join_rows=join_rows,
            estimated_groups=groups,
        )

    def topk_decision(self, select: Select) -> Optional[TopKDecision]:
        """Cost the top-k operator against full sort for ORDER BY ... LIMIT.

        Returns ``None`` when the query does not need an ordered prefix
        (no ORDER BY, no LIMIT, or an unbounded negative LIMIT).
        """
        k = ordered_prefix_rows(select)
        if k is None:
            return None
        rows = max(1.0, self.estimate_select_input_rows(select))
        sort_cost = rows * max(1.0, math.log2(rows + 2))
        # Partition pass over the input plus a full sort of the ~k survivors.
        candidates = min(rows, float(max(k, 1)) * 2.0)
        topk_cost = rows * TOPK_ROW_COST + candidates * max(1.0, math.log2(candidates + 2))
        use_topk = k > 0 and topk_cost < sort_cost
        return TopKDecision(
            k=k,
            use_topk=use_topk,
            estimated_input_rows=rows,
            sort_cost=sort_cost,
            topk_cost=topk_cost,
        )

    def _table_width(self, name: str) -> int:
        if name in self._catalog:
            return max(1, self._catalog[name].num_columns)
        stats = self.table_stats(name)
        if stats is not None and stats.columns:
            return max(1, len(stats.columns))
        return 3

"""Cost-based query optimizer for the embedded columnar engine.

The subsystem sits between the parser and the planner::

    tokenizer -> parser -> [optimizer] -> planner -> executor

and is deliberately self-contained (SpecDB-style feature decomposition): the
engine calls :meth:`Optimizer.optimize` with a parsed statement and gets
back a rewritten statement, an :class:`~.explain.OptimizerReport` describing
every decision, and the :class:`~.cost.CostModel` the planner then uses for
physical choices (today: fused join-aggregate vs generic pipeline).

Components
----------

* :mod:`.stats` — per-table statistics (row count, per-column
  min/max/NDV/null fraction), refreshed by ``ANALYZE`` and invalidated by
  the engine on DML;
* :mod:`.rewrite` — logical AST rewrites: constant folding, predicate
  pushdown through joins and CTEs, projection pruning, single-use CTE
  inlining;
* :mod:`.cost` — UES-style upper-bound cardinality estimation, greedy
  join ordering, and the costed operator choice;
* :mod:`.explain` — ``EXPLAIN [ANALYZE]`` report structures and rendering.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Mapping, Optional

from ..ast_nodes import CreateTableAs, Select, Statement, WithSelect
from ..table import Table
from .cost import (
    CostModel,
    FusionDecision,
    JoinOrderDecision,
    TopKDecision,
)
from .explain import ActualRun, OptimizerReport, QueryPlanInfo, render_explain
from .rewrite import RewriteLog, rewrite_statement
from .stats import ColumnStats, StatisticsCatalog, TableStats

__all__ = [
    "ActualRun",
    "ColumnStats",
    "CostModel",
    "FusionDecision",
    "JoinOrderDecision",
    "Optimizer",
    "OptimizerReport",
    "QueryPlanInfo",
    "RewriteLog",
    "StatisticsCatalog",
    "TableStats",
    "TopKDecision",
    "render_explain",
]


class Optimizer:
    """Rewrites statements and plans join orders against one database's state."""

    def __init__(
        self,
        catalog: Mapping[str, Table],
        statistics: Optional[StatisticsCatalog] = None,
        enabled: bool = True,
    ) -> None:
        self._catalog = catalog
        self._statistics = statistics
        self.enabled = enabled

    def cost_model(self) -> CostModel:
        """A cost model bound to the current catalog and statistics."""
        return CostModel(self._catalog, self._statistics)

    def optimize(self, statement: Statement) -> tuple[Statement, OptimizerReport, CostModel]:
        """Optimize one parsed statement.

        Returns the rewritten statement, the decision report (for EXPLAIN and
        the engine's counters), and the cost model the planner should use for
        physical operator choices.  Statement kinds the optimizer does not
        cover (DDL, INSERT, DELETE, ...) pass through unchanged.
        """
        cost = self.cost_model()
        if not self.enabled:
            return statement, OptimizerReport(enabled=False), cost
        if not isinstance(statement, (Select, WithSelect, CreateTableAs)):
            return statement, OptimizerReport(), cost

        rewritten, log = rewrite_statement(statement, self._catalog)
        report = OptimizerReport(rewrites=log)

        if isinstance(rewritten, CreateTableAs):
            query, report.queries = self._plan_queries(rewritten.query, cost)
            return replace(rewritten, query=query), report, cost
        query, report.queries = self._plan_queries(rewritten, cost)
        return query, report, cost

    def _plan_queries(
        self, query: Select | WithSelect, cost: CostModel
    ) -> tuple[Select | WithSelect, list[QueryPlanInfo]]:
        """Join-order every query block and estimate its output cardinality."""
        if isinstance(query, Select):
            ordered, decision = cost.order_joins(query)
            info = self._block_info(
                "main", cost, ordered, cost.estimate_select_rows(ordered), decision
            )
            return ordered, [info]

        infos: list[QueryPlanInfo] = []
        new_ctes = []
        for cte in query.ctes:
            ordered, decision = cost.order_joins(cte.query)
            estimate = cost.estimate_select_rows(ordered)
            # Later blocks see this CTE's estimated cardinality.
            cost.set_derived_rows(cte.name, estimate)
            infos.append(self._block_info(cte.name, cost, ordered, estimate, decision))
            new_ctes.append(replace(cte, query=ordered))
        ordered_main, decision = cost.order_joins(query.query)
        infos.append(
            self._block_info(
                "main", cost, ordered_main, cost.estimate_select_rows(ordered_main), decision
            )
        )
        return WithSelect(tuple(new_ctes), ordered_main), infos

    @staticmethod
    def _block_info(label, cost, select, estimate, decision) -> QueryPlanInfo:
        """One block's plan info, carrying the pre-limit estimate when it differs."""
        input_rows = None
        if select.limit is not None:
            input_rows = cost.estimate_select_input_rows(select)
        return QueryPlanInfo(label, estimate, decision, estimated_input_rows=input_rows)

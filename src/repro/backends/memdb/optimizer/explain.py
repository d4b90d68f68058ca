"""EXPLAIN [ANALYZE] rendering for the memdb optimizer.

The engine hands this module the optimizer's :class:`OptimizerReport` (what
the logical rewriter and the join-order search decided), the compiled
physical plan (which carries the costed fused-vs-generic decision per
query), the plan-cache provenance of the explained SQL text, and — for
``EXPLAIN ANALYZE`` — the actual per-relation cardinalities and wall time
from a real execution.  The output is a list of text lines, returned to the
caller as ordinary query rows (one ``plan`` column), so every backend
surface that can run SQL can read plans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .cost import FusionDecision, JoinOrderDecision, TopKDecision
from .rewrite import RewriteLog


@dataclass(frozen=True)
class QueryPlanInfo:
    """Optimizer summary of one query block (a CTE body or the main query).

    ``estimated_input_rows`` is the pre-limit cardinality estimate that
    EXPLAIN ANALYZE's pre-limit actual is printed beside; it is ``None``
    for blocks without a LIMIT, whose ``estimated_rows`` already is it.
    """

    label: str
    estimated_rows: float
    join_order: Optional[JoinOrderDecision] = None
    estimated_input_rows: Optional[float] = None


@dataclass
class OptimizerReport:
    """Everything the optimizer decided about one statement."""

    rewrites: RewriteLog = field(default_factory=RewriteLog)
    queries: list[QueryPlanInfo] = field(default_factory=list)
    enabled: bool = True

    def counters(self) -> dict:
        """Flat counters for aggregation into the engine's optimizer stats."""
        counters = dict(self.rewrites.as_dict())
        counters["join_reorders"] = sum(
            1 for query in self.queries if query.join_order is not None and query.join_order.reordered
        )
        return counters


@dataclass(frozen=True)
class ActualRun:
    """Measured execution of an EXPLAIN ANALYZE statement."""

    seconds: float
    #: (label, actual row count) per query block, aligned with the report.
    cardinalities: tuple[tuple[str, int], ...] = ()
    rowcount: int = 0


def _format_rows(value: float) -> str:
    if value >= 1e15:
        return f"{value:.2e}"
    if value == int(value):
        return str(int(value))
    return f"{value:.1f}"


def render_explain(
    inner_sql: str,
    report: Optional[OptimizerReport],
    plan,
    cache_state: str,
    actual: Optional[ActualRun] = None,
) -> list[str]:
    """Render an EXPLAIN (ANALYZE) result as text lines.

    ``plan`` is a :class:`~..planner.CompiledScript` /
    :class:`~..planner.CompiledCreateTableAs` or ``None`` for statements
    without a compiled plan (DDL, INSERT, DELETE).
    """
    from ..planner import CompiledCreateTableAs, CompiledScript  # local: avoid cycle

    lines = [f"EXPLAIN {inner_sql[:100]}{'...' if len(inner_sql) > 100 else ''}"]

    if report is not None and not report.enabled:
        lines.append("optimizer: disabled (statement compiled as written)")
    elif report is not None:
        rewrite_lines = report.rewrites.entries()
        if rewrite_lines:
            lines.append("logical rewrites:")
            lines.extend(f"  - {entry}" for entry in rewrite_lines)
        else:
            lines.append("logical rewrites: none applied")

    if isinstance(plan, CompiledCreateTableAs):
        lines.append(f"materialize into table {plan.name!r}:")
        plan = plan.script

    actual_by_label = dict(actual.cardinalities) if actual is not None else {}

    if isinstance(plan, CompiledScript):
        info_by_label = (
            {query.label: query for query in report.queries} if report is not None else {}
        )
        blocks = [(name, compiled) for name, compiled, _columns in plan.ctes]
        blocks.append(("main", plan.query))
        for label, compiled in blocks:
            info = info_by_label.get(label)
            header = f"{label}:"
            if info is not None:
                header += f" estimated rows ~{_format_rows(info.estimated_rows)}"
                if info.estimated_input_rows is not None:
                    header += f" (pre-limit ~{_format_rows(info.estimated_input_rows)})"
                if label in actual_by_label:
                    header += f", actual {actual_by_label[label]} (pre-limit)"
            elif label in actual_by_label:
                header += f" actual rows {actual_by_label[label]}"
            lines.append(header)
            if info is not None and info.join_order is not None:
                lines.append(f"  join order: {info.join_order.describe()}")
            lines.append(f"  physical: {_physical_description(compiled)}")
    elif plan is None:
        lines.append("physical plan: interpreted statement (no compiled plan)")

    lines.append(f"plan cache: {cache_state}")
    if actual is not None:
        lines.append(
            f"actual: {actual.rowcount} row(s) in {actual.seconds * 1000:.3f} ms"
        )
    return lines


def _physical_description(compiled) -> str:
    """One-line description of a CompiledQuery's physical strategy."""
    topk: Optional[TopKDecision] = getattr(compiled, "topk", None)
    tail = "" if topk is None else f" -> {topk.describe()}"
    decision: Optional[FusionDecision] = getattr(compiled, "fusion", None)
    if decision is not None and decision.eligible:
        return decision.describe() + tail
    joins = len(getattr(compiled, "joins", ()) or ())
    if getattr(compiled, "grouped", False):
        base = "scan"
        if joins:
            base += f" -> {joins} hash join(s)"
        return f"{base} -> hash aggregate{tail}"
    if joins:
        return f"scan -> {joins} hash join(s) -> project{tail}"
    return f"scan -> project{tail}"

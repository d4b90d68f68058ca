"""EXPLAIN [ANALYZE] rendering for the memdb engine.

The engine hands this module the :class:`~.rewrite.RewriteLog` (what the
logical rewriter did), the compiled physical plan (which carries each block's
operator choice), the plan-cache provenance of the explained SQL text, and
— for ``EXPLAIN ANALYZE`` — the actual per-block cardinalities and wall
time from a real execution.  The output is a list of text lines, returned
to the caller as ordinary query rows (one ``plan`` column), so every
backend surface that can run SQL can read plans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..executor import limit_bounds
from .rewrite import RewriteLog


@dataclass(frozen=True)
class ActualRun:
    """Measured execution of an EXPLAIN ANALYZE statement."""

    seconds: float
    #: (label, actual pre-limit row count) per query block.
    cardinalities: tuple[tuple[str, int], ...] = ()
    rowcount: int = 0


def render_explain(
    inner_sql: str,
    report: Optional[RewriteLog],
    plan,
    cache_state: str,
    actual: Optional[ActualRun] = None,
) -> list[str]:
    """Render an EXPLAIN (ANALYZE) result as text lines.

    ``plan`` is a :class:`~..planner.CompiledScript` /
    :class:`~..planner.CompiledCreateTableAs` or ``None`` for statements
    without a compiled plan (DDL, INSERT, DELETE).  Each block gets a
    ``label:`` header line (with ``actual rows N`` under ANALYZE) and a
    ``physical:`` line.
    """
    from ..planner import CompiledCreateTableAs, CompiledScript  # local: avoid cycle

    lines = [f"EXPLAIN {inner_sql[:100]}{'...' if len(inner_sql) > 100 else ''}"]

    if report is not None:
        rewrite_lines = report.entries()
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
        blocks = [(name, compiled) for name, compiled, _columns in plan.ctes]
        blocks.append(("main", plan.query))
        for label, compiled in blocks:
            header = f"{label}:"
            if label in actual_by_label:
                header += f" actual rows {actual_by_label[label]}"
            lines.append(header)
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
    select = compiled.select
    _start, stop = limit_bounds(select)
    tail = ""
    if select.order_by and stop is not None:
        tail = f" -> top-k (k={stop})"
    if compiled.fused is not None:
        return "fused join-aggregate" + tail
    joins = len(compiled.joins)
    if compiled.grouped:
        base = "scan"
        if joins:
            base += f" -> {joins} hash join(s)"
        return f"{base} -> hash aggregate{tail}"
    if joins:
        return f"scan -> {joins} hash join(s) -> project{tail}"
    return f"scan -> project{tail}"

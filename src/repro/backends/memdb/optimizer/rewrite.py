"""Logical rewrite rules applied to parsed ASTs before plan compilation.

Two rules, each a pure AST-to-AST function (the node classes are frozen
dataclasses, so rewrites rebuild rather than mutate):

* **unary-literal folding** — a sign or ``~`` over a numeric literal
  becomes the literal.  The translator's gate steps are full of
  ``s & ~mask``; folding removes a per-execution numpy broadcast + ufunc
  per mask.
* **single-use CTE inlining** — a CTE that is a simple projection/filter of
  one table and is referenced exactly once is spliced into its consumer,
  removing one intermediate materialization (the translator's trailing
  relabel step ``T{n}`` goes into the final SELECT this way).

Both are conservative: when column ownership cannot be resolved statically
(a ``*`` projection, an ambiguous bare name), the rule backs off and leaves
the statement unchanged — the differential fuzzer asserts the rewritten
statement returns what SQLite returns for the original.
"""

from __future__ import annotations

import operator as _operator
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Optional

from ..ast_nodes import (
    BinaryOp,
    ColumnRef,
    CommonTableExpression,
    CreateTableAs,
    Expression,
    Join,
    Literal,
    Select,
    SelectItem,
    Star,
    Statement,
    TableSource,
    UnaryOp,
    WithSelect,
    transform_expression,
)
from ..executor import item_output_name


# ---------------------------------------------------------------------------
# Rule 1: unary-literal folding
# ---------------------------------------------------------------------------


def _fold_node(expression: Expression, counter: list[int]) -> Expression:
    """Fold a sign or ``~`` applied to a numeric literal into the literal."""
    if not (isinstance(expression, UnaryOp) and isinstance(expression.operand, Literal)):
        return expression
    value = expression.operand.value
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return expression
    if expression.operator == "-":
        value = -value
    elif expression.operator == "~" and isinstance(value, int):
        value = ~value
    elif expression.operator != "+":
        return expression
    counter[0] += 1
    return Literal(value)


def fold_expression(expression: Expression) -> tuple[Expression, int]:
    """Fold an expression's unary literals; returns (folded expression, #folds)."""
    counter = [0]
    folded = transform_expression(expression, partial(_fold_node, counter=counter))
    return folded, counter[0]


def _same(new: tuple, old: tuple) -> tuple:
    """``old`` itself when ``new`` holds the very same objects."""
    return old if all(map(_operator.is_, new, old)) else new


def map_select_expressions(
    select: Select, fn: Callable[[Expression], Expression]
) -> Select:
    """Apply an expression transform to every expression slot of a Select.

    Identity-preserving like :func:`transform_expression`: a slot ``fn``
    returns unchanged keeps its node, and a Select none of whose slots
    changed is returned as is.
    """

    def slot(node):  # SelectItem | OrderItem
        if isinstance(node.expression, Star):
            return node
        mapped = fn(node.expression)
        return node if mapped is node.expression else replace(node, expression=mapped)

    def join(node: Join) -> Join:
        condition = fn(node.condition)
        return node if condition is node.condition else replace(node, condition=condition)

    def optional(expression: Optional[Expression]) -> Optional[Expression]:
        return None if expression is None else fn(expression)

    mapped = {
        "items": _same(tuple(map(slot, select.items)), select.items),
        "joins": _same(tuple(map(join, select.joins)), select.joins),
        "where": optional(select.where),
        "group_by": _same(tuple(map(fn, select.group_by)), select.group_by),
        "having": optional(select.having),
        "order_by": _same(tuple(map(slot, select.order_by)), select.order_by),
    }
    if all(value is getattr(select, name) for name, value in mapped.items()):
        return select
    return replace(select, **mapped)


def fold_select(select: Select) -> tuple[Select, int]:
    """Fold the unary literals of every expression of a Select."""
    total = [0]

    def fold(expression: Expression) -> Expression:
        folded, count = fold_expression(expression)
        total[0] += count
        return folded

    return map_select_expressions(select, fold), total[0]


# ---------------------------------------------------------------------------
# Which tables and columns a Select reads
# ---------------------------------------------------------------------------


def select_output_names(select: Select) -> Optional[list[str]]:
    """The result-column names of a Select, or None when a ``*`` hides them.

    Delegates to the executor's :func:`~..executor.item_output_name` so the
    rewriter's view of output names can never diverge from what actually
    materializes.
    """
    names: list[str] = []
    for position, item in enumerate(select.items):
        if isinstance(item.expression, Star):
            return None
        names.append(item_output_name(item, position))
    return names


def select_sources(select: Select) -> list[TableSource]:
    """The FROM table and every joined table of a Select, in order."""
    sources = [select.source] if select.source is not None else []
    sources.extend(join.source for join in select.joins)
    return sources


def referenced_stored_tables(query: Select | WithSelect) -> set[str]:
    """Stored-table names a query's scans resolve against.

    CTE names shadow the catalog in definition order — exactly how compiled
    plans resolve them — so this is the one walker the plan-cache schema
    fingerprint uses for "which catalog tables does this query read".
    """
    names: set[str] = set()

    def from_select(select: Select, cte_names: set[str]) -> None:
        for source in select_sources(select):
            if source.name not in cte_names:
                names.add(source.name)

    if isinstance(query, Select):
        from_select(query, set())
        return names
    cte_names: set[str] = set()
    for cte in query.ctes:
        from_select(cte.query, cte_names)
        cte_names.add(cte.name)
    from_select(query.query, cte_names)
    return names


def _output_expression_map(select: Select) -> Optional[dict[str, Expression]]:
    """Output column name -> defining expression (None when ``*`` hides it)."""
    names = select_output_names(select)
    if names is None:
        return None
    return {name: item.expression for name, item in zip(names, select.items)}


# ---------------------------------------------------------------------------
# Rule 2: single-use CTE inlining
# ---------------------------------------------------------------------------


def _conjoin(left: Optional[Expression], right: Optional[Expression]) -> Optional[Expression]:
    """``left AND right``, or whichever of them is present."""
    if left is None or right is None:
        return right if left is None else left
    return BinaryOp("and", left, right)


def _cte_is_inlinable(select: Select) -> bool:
    """Inlinable = a plain projection/filter over exactly one table."""
    return (
        select.source is not None
        and not select.joins
        and not select.group_by
        and select.having is None
        and not select.distinct
        and select.limit is None
        and select.offset is None
        and not select.order_by
        and select_output_names(select) is not None
        and not any(item.expression.has_aggregate for item in select.items)
    )


def _consumer_references(select: Select, cte_name: str) -> int:
    return sum(1 for source in select_sources(select) if source.name == cte_name)


def inline_single_use_ctes(statement: WithSelect) -> tuple[WithSelect, int]:
    """Splice single-use, single-table CTEs into their consumer.

    Only queries defined *after* a CTE can resolve its name (an earlier CTE
    body referencing the same name sees a catalog table instead), so
    consumer detection is definition-order-aware.
    """
    ctes = list(statement.ctes)
    query = statement.query
    inlined = 0

    changed = True
    while changed:
        changed = False
        for index, cte in enumerate(ctes):
            if not _cte_is_inlinable(cte.query):
                continue
            consumers = [
                ("cte", position)
                for position, other in enumerate(ctes)
                if position > index and _consumer_references(other.query, cte.name) > 0
            ] + (
                [("main", -1)] if _consumer_references(query, cte.name) > 0 else []
            )
            if len(consumers) != 1:
                continue
            kind, position = consumers[0]
            # The spliced-in table name must resolve to the same relation in
            # the consumer's scope as it did in the producer's: a CTE with
            # that name defined between producer and consumer (or visible to
            # only one of them) would capture the reference.
            inner_name = cte.query.source.name
            visibility_differs = False
            for j, other in enumerate(ctes):
                if j == index or other.name != inner_name:
                    continue
                visible_to_producer = j < index
                visible_to_consumer = kind == "main" or j < position
                if visible_to_producer != visible_to_consumer:
                    visibility_differs = True
                    break
            if visibility_differs:
                continue
            consumer = query if kind == "main" else ctes[position].query
            rewritten = _inline_into(consumer, cte)
            if rewritten is None:
                continue
            if kind == "main":
                query = rewritten
            else:
                ctes[position] = CommonTableExpression(ctes[position].name, rewritten)
            del ctes[index]
            inlined += 1
            changed = True
            break

    return WithSelect(tuple(ctes), query), inlined


def _inline_into(consumer: Select, cte: CommonTableExpression) -> Optional[Select]:
    """Rewrite one consumer Select with the CTE spliced in, or None if unsafe."""
    body = cte.query
    outputs = _output_expression_map(body)
    if outputs is None:
        return None
    # A `*` in the consumer would expand the underlying table's columns
    # instead of the CTE's projection — refuse.
    if any(isinstance(item.expression, Star) for item in consumer.items):
        return None

    # Find the single reference and its binding.
    sources = select_sources(consumer)
    matches = [source for source in sources if source.name == cte.name]
    if len(matches) != 1:
        return None
    reference = matches[0]
    binding = reference.binding

    inner = body.source
    inner_binding = inner.binding
    # The inlined table's binding must not collide with any other binding.
    other_bindings = {source.binding for source in sources if source is not reference}
    if inner_binding in other_bindings:
        return None

    # The body's bare column refs resolved against its single source; once
    # spliced into the consumer (possibly a multi-table scope where bare
    # names are ambiguous) they must be qualified with that source's
    # binding to keep resolving to the same columns.
    def qualify(node: Expression) -> Expression:
        if isinstance(node, ColumnRef) and node.table is None:
            return ColumnRef(node.name, table=inner_binding)
        return node

    outputs = {
        name: transform_expression(expression, qualify)
        for name, expression in outputs.items()
    }

    # A bare ORDER BY name that matches one of the consumer's *output*
    # names resolves to the output column (outputs shadow source columns in
    # the ordering frame, before and after inlining), so those refs are
    # left untouched — substituting them would point a grouped/DISTINCT
    # consumer's ORDER BY at source columns that no longer exist after
    # aggregation.  Every other expression slot resolves against the source
    # frame and is substituted.
    consumer_output_names = {
        item_output_name(item, position)
        for position, item in enumerate(consumer.items)
        if not isinstance(item.expression, Star)
    }

    def order_protected(ref: ColumnRef) -> bool:
        return ref.table is None and ref.name in consumer_output_names

    # Bare column references are only safe to substitute when the CTE is the
    # consumer's sole source: with joins in play a bare name might belong to
    # (or collide with) another table once the underlying table's columns
    # replace the CTE's projection, so back off entirely.
    all_refs = [
        ref
        for item in consumer.items
        if not isinstance(item.expression, Star)
        for ref in item.expression.column_refs
    ]
    for expr in [consumer.where, consumer.having, *consumer.group_by]:
        if expr is not None:
            all_refs.extend(expr.column_refs)
    for order in consumer.order_by:
        all_refs.extend(ref for ref in order.expression.column_refs if not order_protected(ref))
    for join in consumer.joins:
        all_refs.extend(join.condition.column_refs)
    has_bare = any(ref.table is None for ref in all_refs)
    if consumer.joins and has_bare:
        return None
    if not consumer.joins and any(
        ref.table is None and ref.name not in outputs for ref in all_refs
    ):
        return None

    failed = [False]

    def substitute(node: Expression) -> Expression:
        if isinstance(node, ColumnRef):
            if node.table == binding:
                if node.name in outputs:
                    return outputs[node.name]
                failed[0] = True
            elif node.table is None and node.name in outputs:
                return outputs[node.name]
        return node

    def substitute_order(node: Expression) -> Expression:
        if isinstance(node, ColumnRef) and order_protected(node):
            return node
        return substitute(node)

    def rewrite_expr(expression: Expression) -> Expression:
        return transform_expression(expression, substitute)

    def rewrite_order_expr(expression: Expression) -> Expression:
        return transform_expression(expression, substitute_order)

    # Keep the consumer's visible column names stable across substitution.
    def rewrite_item(item: SelectItem, position: int) -> SelectItem:
        if isinstance(item.expression, Star):
            return item
        name = item.alias
        if name is None and isinstance(item.expression, ColumnRef):
            name = item.expression.name
        new_expression = rewrite_expr(item.expression)
        if new_expression is item.expression:
            return item
        return SelectItem(new_expression, name or item.alias)

    new_items = tuple(rewrite_item(item, i) for i, item in enumerate(consumer.items))

    replacement = TableSource(inner.name, inner.alias)

    def rewrite_source(source: TableSource) -> TableSource:
        return replacement if source is reference else source

    new_source = rewrite_source(consumer.source) if consumer.source is not None else None
    new_joins = tuple(
        replace(join, source=rewrite_source(join.source), condition=rewrite_expr(join.condition))
        for join in consumer.joins
    )
    rewritten = replace(
        consumer,
        items=new_items,
        source=new_source,
        joins=new_joins,
        where=_conjoin(
            None if consumer.where is None else rewrite_expr(consumer.where),
            None if body.where is None else transform_expression(body.where, qualify),
        ),
        group_by=tuple(rewrite_expr(e) for e in consumer.group_by),
        having=None if consumer.having is None else rewrite_expr(consumer.having),
        order_by=tuple(
            replace(o, expression=rewrite_order_expr(o.expression)) for o in consumer.order_by
        ),
    )
    return None if failed[0] else rewritten


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------


@dataclass
class RewriteLog:
    """What the rewriter did to one statement (rendered by EXPLAIN)."""

    constant_folds: int = 0
    ctes_inlined: int = 0

    def entries(self) -> list[str]:
        """Human-readable one-liners for the applied rules."""
        lines = []
        if self.constant_folds:
            lines.append(f"constant folding: {self.constant_folds} expression(s)")
        if self.ctes_inlined:
            lines.append(f"cte inlining: {self.ctes_inlined} single-use CTE(s)")
        return lines

    def as_dict(self) -> dict:
        return {"constant_folds": self.constant_folds, "ctes_inlined": self.ctes_inlined}


def rewrite_query(query: Select | WithSelect) -> tuple[Select | WithSelect, RewriteLog]:
    """Apply every rewrite rule to one query; returns (query, log)."""
    log = RewriteLog()
    if isinstance(query, Select):
        folded, log.constant_folds = fold_select(query)
        return folded, log

    new_ctes = []
    for cte in query.ctes:
        folded, folds = fold_select(cte.query)
        log.constant_folds += folds
        new_ctes.append(CommonTableExpression(cte.name, folded, cte.columns))
    folded_main, folds = fold_select(query.query)
    log.constant_folds += folds
    statement = WithSelect(tuple(new_ctes), folded_main)
    # Inlining assumes bodies whose output names are their item names, and
    # name-keyed bookkeeping: column-aliased WITH clauses and duplicate CTE
    # names (last definition wins at execution) are only folded.
    names = [cte.name for cte in statement.ctes]
    if any(cte.columns for cte in statement.ctes) or len(set(names)) != len(names):
        return statement, log
    statement, log.ctes_inlined = inline_single_use_ctes(statement)
    if not statement.ctes:
        return statement.query, log
    return statement, log


def rewrite_statement(statement: Statement) -> tuple[Statement, RewriteLog]:
    """Rewrite any statement kind the rules cover (others pass through)."""
    if isinstance(statement, (Select, WithSelect)):
        return rewrite_query(statement)
    if isinstance(statement, CreateTableAs):
        query, log = rewrite_query(statement.query)
        return replace(statement, query=query), log
    return statement, RewriteLog()

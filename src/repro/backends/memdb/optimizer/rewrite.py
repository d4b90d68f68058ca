"""Logical rewrite rules applied to parsed ASTs before plan compilation.

Four rules, each a pure AST-to-AST function (the node classes are frozen
dataclasses, so rewrites rebuild rather than mutate):

* **constant folding** — arithmetic / bitwise operators over numeric
  literals evaluate at optimize time with the engine's SQL semantics.  The
  translator's generated expressions are full of ``~mask`` / shifted
  constants; folding them removes a per-execution numpy broadcast + ufunc
  per constant.
* **predicate pushdown** — WHERE conjuncts that reference a single table
  move onto that table's scan (``TableSource.filter``), shrinking join
  inputs; filters sitting on a single-use CTE reference migrate into the
  CTE body's WHERE (with output names substituted by their defining
  expressions).
* **projection pruning** — CTE output columns nothing downstream reads are
  dropped from the CTE's projection, so intermediate materializations carry
  only live columns.
* **single-use CTE inlining** — a CTE that is a simple projection/filter of
  one table and is referenced exactly once is spliced into its consumer,
  removing one intermediate materialization.

Every rule is conservative: when column ownership cannot be resolved
statically (a ``*`` projection, an ambiguous bare name), the rule backs off
and leaves the statement unchanged — the differential tests assert the
rewritten statement is observationally identical to the original on SQLite.
"""

from __future__ import annotations

import operator as _operator
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Mapping, Optional

from ..ast_nodes import (
    BinaryOp,
    ColumnRef,
    CommonTableExpression,
    CreateTableAs,
    Expression,
    Join,
    Literal,
    OrderItem,
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
from ..table import Table

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1


# ---------------------------------------------------------------------------
# Expression utilities (shared with the cost model)
# ---------------------------------------------------------------------------


def split_conjuncts(expression: Expression) -> list[Expression]:
    """Flatten a chain of ANDs into its conjuncts."""
    if isinstance(expression, BinaryOp) and expression.operator == "and":
        return split_conjuncts(expression.left) + split_conjuncts(expression.right)
    return [expression]


def conjoin(conjuncts: list[Expression]) -> Optional[Expression]:
    """AND a list of conjuncts back together (``None`` for the empty list)."""
    if not conjuncts:
        return None
    combined = conjuncts[0]
    for conjunct in conjuncts[1:]:
        combined = BinaryOp("and", combined, conjunct)
    return combined


# ---------------------------------------------------------------------------
# Rule 1: constant folding
# ---------------------------------------------------------------------------


def _is_numeric_literal(expression: Expression) -> bool:
    return (
        isinstance(expression, Literal)
        and isinstance(expression.value, (int, float))
        and not isinstance(expression.value, bool)
    )


def _fits_int64(value: int) -> bool:
    return _INT64_MIN <= value <= _INT64_MAX


_INT_FOLDS = {
    "&": _operator.and_,
    "|": _operator.or_,
    "<<": _operator.lshift,
    ">>": _operator.rshift,
}


def _fold_node(expression: Expression, counter: list[int]) -> Expression:
    """Fold one already-rebuilt node if its operands are numeric literals.

    Folding mirrors the executor's SQL semantics exactly: bitwise operators
    work on int64, integer division truncates toward zero, and anything that
    could diverge (zero divisors, int64 overflow, NULLs, comparisons whose
    boolean results feed dtype-sensitive arithmetic) is left unfolded.
    """
    if isinstance(expression, UnaryOp) and _is_numeric_literal(expression.operand):
        value = expression.operand.value  # type: ignore[union-attr]
        if expression.operator == "-":
            counter[0] += 1
            return Literal(-value)
        if expression.operator == "+":
            counter[0] += 1
            return Literal(value)
        if expression.operator == "~" and isinstance(value, int):
            counter[0] += 1
            return Literal(~value)
        return expression

    if (
        isinstance(expression, BinaryOp)
        and _is_numeric_literal(expression.left)
        and _is_numeric_literal(expression.right)
    ):
        left = expression.left.value  # type: ignore[union-attr]
        right = expression.right.value  # type: ignore[union-attr]
        operator = expression.operator
        both_int = isinstance(left, int) and isinstance(right, int)
        result: object = None
        if operator in ("+", "-", "*"):
            result = {"+": left + right, "-": left - right, "*": left * right}[operator]
        elif operator in _INT_FOLDS and both_int:
            if operator in ("<<", ">>") and not (0 <= right < 64):
                return expression
            # Only the operator at hand is applied: ``5 & -3`` must not
            # evaluate ``5 << -3`` (a ValueError in Python) along the way.
            result = _INT_FOLDS[operator](left, right)
        elif operator == "/" and right != 0:
            if both_int:
                quotient = abs(left) // abs(right)
                result = quotient if (left < 0) == (right < 0) else -quotient
            else:
                result = left / right
        else:
            return expression
        if isinstance(result, int) and not _fits_int64(result):
            return expression
        counter[0] += 1
        return Literal(result)

    return expression


def fold_expression(expression: Expression) -> tuple[Expression, int]:
    """Constant-fold an expression; returns (folded expression, #folds)."""
    counter = [0]
    folded = transform_expression(expression, partial(_fold_node, counter=counter))
    return folded, counter[0]


# ---------------------------------------------------------------------------
# Select-wide expression mapping
# ---------------------------------------------------------------------------


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

    def scan(source: Optional[TableSource]) -> Optional[TableSource]:
        if source is None or source.filter is None:
            return source
        mapped = fn(source.filter)
        return source if mapped is source.filter else replace(source, filter=mapped)

    def join(node: Join) -> Join:
        condition, source = fn(node.condition), scan(node.source)
        if condition is node.condition and source is node.source:
            return node
        return replace(node, condition=condition, source=source)

    def optional(expression: Optional[Expression]) -> Optional[Expression]:
        return None if expression is None else fn(expression)

    mapped = {
        "items": _same(tuple(map(slot, select.items)), select.items),
        "source": scan(select.source),
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
    """Constant-fold every expression of a Select."""
    total = [0]

    def fold(expression: Expression) -> Expression:
        folded, count = fold_expression(expression)
        total[0] += count
        return folded

    return map_select_expressions(select, fold), total[0]


# ---------------------------------------------------------------------------
# Scopes: which columns does each binding expose?
# ---------------------------------------------------------------------------


def select_output_names(select: Select) -> Optional[list[str]]:
    """The result-column names of a Select, or None when a ``*`` hides them.

    Delegates to the executor's :func:`~..executor.item_output_name` so the
    optimizer's view of output names can never diverge from what actually
    materializes.
    """
    names: list[str] = []
    for position, item in enumerate(select.items):
        if isinstance(item.expression, Star):
            return None
        names.append(item_output_name(item, position))
    return names


class Scope:
    """Maps the bindings of one Select to their known column sets.

    ``None`` for a binding means "columns unknown" (e.g. a CTE projecting
    ``*``); rules treat unknown bindings as owning *every* unresolved name,
    which disables the rewrite rather than risking a wrong attribution.
    """

    def __init__(
        self,
        select: Select,
        catalog: Mapping[str, Table],
        cte_columns: Mapping[str, Optional[list[str]]],
    ) -> None:
        self.bindings: dict[str, Optional[set[str]]] = {}
        for source in self._sources(select):
            if source.name in cte_columns:
                columns = cte_columns[source.name]
                self.bindings[source.binding] = None if columns is None else set(columns)
            elif source.name in catalog:
                self.bindings[source.binding] = set(catalog[source.name].column_names)
            else:
                self.bindings[source.binding] = None

    @staticmethod
    def _sources(select: Select) -> list[TableSource]:
        sources = [select.source] if select.source is not None else []
        sources.extend(join.source for join in select.joins)
        return sources

    def owner_of(self, ref: ColumnRef) -> Optional[str]:
        """The unique binding owning a column ref, or None when unresolvable."""
        if ref.table is not None:
            return ref.table if ref.table in self.bindings else None
        owners = []
        for binding, columns in self.bindings.items():
            if columns is None:
                return None  # an opaque binding might own it
            if ref.name in columns:
                owners.append(binding)
        return owners[0] if len(owners) == 1 else None


def referenced_stored_tables(query: Select | WithSelect) -> set[str]:
    """Stored-table names a query's scans resolve against.

    CTE names shadow the catalog in definition order — exactly how compiled
    plans resolve them — so this is the one walker
    the rewrite rules *and* the engine's plan-cache schema fingerprint share
    for "which catalog tables does this query actually read".
    """
    names: set[str] = set()

    def from_select(select: Select, cte_names: set[str]) -> None:
        for source in Scope._sources(select):
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


# ---------------------------------------------------------------------------
# Rule 2: predicate pushdown (into scans, then through CTEs)
# ---------------------------------------------------------------------------


def push_predicates_into_scans(
    select: Select, scope: Scope, cte_names: frozenset[str] = frozenset()
) -> tuple[Select, int]:
    """Move single-table WHERE conjuncts onto the owning table's scan.

    With joins, a pushed conjunct shrinks the join input.  Without joins
    the move is only useful when the sole source is a CTE: the parked
    filter is the vehicle :func:`push_filters_into_ctes` later migrates
    into the CTE body, so the CTE materializes already-filtered rows.
    """
    if select.where is None:
        return select, 0
    if not select.joins and (select.source is None or select.source.name not in cte_names):
        return select, 0
    if select.where.has_aggregate:
        return select, 0
    # An unaliased self-join binds two scans to one name; a predicate
    # attributed to that binding would attach to (and filter) both sides,
    # which is not equivalent — back off.
    sources = Scope._sources(select)
    if len({source.binding for source in sources}) != len(sources):
        return select, 0

    pushed: dict[str, list[Expression]] = {}
    residual: list[Expression] = []
    for conjunct in split_conjuncts(select.where):
        refs = conjunct.column_refs
        owners = {scope.owner_of(ref) for ref in refs}
        if len(owners) == 1 and None not in owners and refs:
            pushed.setdefault(owners.pop(), []).append(conjunct)
        else:
            residual.append(conjunct)
    if not pushed:
        return select, 0

    def attach(source: TableSource) -> TableSource:
        conjuncts = pushed.get(source.binding)
        if not conjuncts:
            return source
        existing = [source.filter] if source.filter is not None else []
        return replace(source, filter=conjoin(existing + conjuncts))

    new_source = attach(select.source) if select.source is not None else None
    new_joins = tuple(replace(join, source=attach(join.source)) for join in select.joins)
    count = sum(len(conjuncts) for conjuncts in pushed.values())
    return (
        replace(select, source=new_source, joins=new_joins, where=conjoin(residual)),
        count,
    )


def _cte_is_filter_transparent(select: Select) -> bool:
    """Can a predicate on this CTE's output move into its WHERE clause?"""
    return not (
        select.group_by
        or select.having is not None
        or select.distinct
        or select.limit is not None
        or select.offset is not None
        or any(
            not isinstance(item.expression, Star) and item.expression.has_aggregate
            for item in select.items
        )
    )


def _output_expression_map(select: Select) -> Optional[dict[str, Expression]]:
    """Output column name -> defining expression (None when ``*`` hides it)."""
    names = select_output_names(select)
    if names is None:
        return None
    return {name: item.expression for name, item in zip(names, select.items)}


def _substitute_outputs(
    expression: Expression, binding: str, outputs: dict[str, Expression]
) -> Optional[Expression]:
    """Replace refs to a CTE binding's output columns with their definitions."""
    failed = [False]

    def substitute(node: Expression) -> Expression:
        if isinstance(node, ColumnRef) and (node.table == binding or node.table is None):
            if node.name in outputs:
                return outputs[node.name]
            failed[0] = True
        elif isinstance(node, ColumnRef):
            failed[0] = True
        return node

    substituted = transform_expression(expression, substitute)
    return None if failed[0] else substituted


def push_filters_into_ctes(statement: WithSelect) -> tuple[WithSelect, int]:
    """Migrate scan filters sitting on single-use CTE references into the CTE body.

    Runs after :func:`push_predicates_into_scans`, which parks single-table
    conjuncts on the ``TableSource``; when that source is a CTE referenced
    exactly once and the CTE body is filter-transparent (no grouping /
    aggregates / DISTINCT / LIMIT), the filter moves inside — output column
    names are substituted by their defining expressions so the predicate is
    evaluated on the body's own frame, before materialization.
    """
    # CTE names shadow the catalog only for queries defined *after* them
    # (our engine resolves CTE bodies in definition order), so both the
    # use-count and the migration target are restricted to genuinely
    # resolvable references — a catalog table that merely shares a later
    # CTE's name is never confused with it.
    order = {cte.name: index for index, cte in enumerate(statement.ctes)}
    uses: dict[str, int] = {}

    def visible(name: str, consumer_index: int) -> bool:
        return name in order and order[name] < consumer_index

    for index, cte in enumerate(statement.ctes):
        for source in Scope._sources(cte.query):
            if visible(source.name, index):
                uses[source.name] = uses.get(source.name, 0) + 1
    for source in Scope._sources(statement.query):
        if source.name in order:
            uses[source.name] = uses.get(source.name, 0) + 1

    bodies = {cte.name: cte.query for cte in statement.ctes}
    moved = 0

    def migrate(source: TableSource, consumer_index: int) -> TableSource:
        nonlocal moved
        resolves_to_cte = (
            visible(source.name, consumer_index)
            if consumer_index < len(statement.ctes)
            else source.name in order
        )
        if source.filter is None or not resolves_to_cte or uses.get(source.name, 0) != 1:
            return source
        body = bodies[source.name]
        if not _cte_is_filter_transparent(body):
            return source
        outputs = _output_expression_map(body)
        if outputs is None:
            return source
        substituted = _substitute_outputs(source.filter, source.binding, outputs)
        if substituted is None:
            return source
        existing = [body.where] if body.where is not None else []
        bodies[source.name] = replace(body, where=conjoin(existing + [substituted]))
        moved += 1
        return replace(source, filter=None)

    def migrate_select(select: Select, consumer_index: int) -> Select:
        new_source = migrate(select.source, consumer_index) if select.source is not None else None
        new_joins = tuple(
            replace(join, source=migrate(join.source, consumer_index)) for join in select.joins
        )
        return replace(select, source=new_source, joins=new_joins)

    # Walk consumers in definition order so a filter can cascade through a
    # chain of single-use CTEs within one optimizer pass.
    new_ctes = []
    for index, cte in enumerate(statement.ctes):
        new_ctes.append(cte.name)
        bodies[cte.name] = migrate_select(bodies[cte.name], index)
    new_query = migrate_select(statement.query, len(statement.ctes))
    return (
        WithSelect(
            tuple(CommonTableExpression(name, bodies[name]) for name in new_ctes),
            new_query,
        ),
        moved,
    )


# ---------------------------------------------------------------------------
# Rule 3: projection (dead-column) pruning in CTEs
# ---------------------------------------------------------------------------


def prune_cte_projections(statement: WithSelect) -> tuple[WithSelect, int]:
    """Drop CTE output columns that no downstream query references."""
    cte_outputs: dict[str, Optional[list[str]]] = {
        cte.name: select_output_names(cte.query) for cte in statement.ctes
    }

    # needed[cte] = set of column names referenced downstream; None = all.
    needed: dict[str, Optional[set[str]]] = {cte.name: set() for cte in statement.ctes}

    def require_all(name: str) -> None:
        if name in needed:
            needed[name] = None

    def scan_select(select: Select) -> None:
        binding_to_cte = {}
        for source in Scope._sources(select):
            if source.name in needed:
                binding_to_cte[source.binding] = source.name

        def note_ref(ref: ColumnRef) -> None:
            if ref.table is not None:
                cte = binding_to_cte.get(ref.table)
                if cte is not None and needed[cte] is not None:
                    needed[cte].add(ref.name)
                return
            # A bare name may come from any source; require it from every
            # CTE bound here that exposes (or might expose) it.
            for binding, cte in binding_to_cte.items():
                outputs = cte_outputs[cte]
                if outputs is None:
                    require_all(cte)
                elif ref.name in outputs and needed[cte] is not None:
                    needed[cte].add(ref.name)

        def scan_expression(expression: Expression) -> None:
            for ref in expression.column_refs:
                note_ref(ref)

        for item in select.items:
            if isinstance(item.expression, Star):
                if item.expression.table is None:
                    for cte in binding_to_cte.values():
                        require_all(cte)
                else:
                    cte = binding_to_cte.get(item.expression.table)
                    if cte is not None:
                        require_all(cte)
            else:
                scan_expression(item.expression)
        for source in Scope._sources(select):
            if source.filter is not None:
                scan_expression(source.filter)
        for join in select.joins:
            scan_expression(join.condition)
        if select.where is not None:
            scan_expression(select.where)
        for key in select.group_by:
            scan_expression(key)
        if select.having is not None:
            scan_expression(select.having)
        for order in select.order_by:
            scan_expression(order.expression)

    for cte in statement.ctes:
        scan_select(cte.query)
    scan_select(statement.query)

    pruned = 0
    new_ctes = []
    for cte in statement.ctes:
        outputs = cte_outputs[cte.name]
        keep = needed[cte.name]
        if outputs is None or keep is None:
            new_ctes.append(cte)
            continue
        # DISTINCT deduplicates over the full projection: dropping a column
        # would change the row set, not just its width.
        if cte.query.distinct:
            new_ctes.append(cte)
            continue
        # The body's own ORDER BY resolves bare names through the projected
        # output columns (aliases shadow source columns), so any output it
        # names must survive pruning.
        self_needed = set(keep)
        for order in cte.query.order_by:
            for ref in order.expression.column_refs:
                if ref.table is None:
                    self_needed.add(ref.name)
        kept_items = [
            (name, item)
            for name, item in zip(outputs, cte.query.items)
            if name in self_needed
        ]
        if not kept_items:
            # A relation needs at least one column; keep the first.
            kept_items = [(outputs[0], cte.query.items[0])]
        dropped = len(cte.query.items) - len(kept_items)
        if dropped == 0:
            new_ctes.append(cte)
            continue
        pruned += dropped
        # Dropping earlier items shifts positions, which would rename
        # anonymous ``col{N}`` outputs — pin every kept item to its
        # pre-prune name with an explicit alias.
        pinned = tuple(
            item if item.alias == name else replace(item, alias=name)
            for name, item in kept_items
        )
        new_ctes.append(CommonTableExpression(cte.name, replace(cte.query, items=pinned)))
    return WithSelect(tuple(new_ctes), statement.query), pruned


# ---------------------------------------------------------------------------
# Rule 4: single-use CTE inlining
# ---------------------------------------------------------------------------


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
        and select.source.filter is None
        and select_output_names(select) is not None
        and not any(item.expression.has_aggregate for item in select.items)
    )


def _consumer_references(select: Select, cte_name: str) -> int:
    return sum(1 for source in Scope._sources(select) if source.name == cte_name)


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
    sources = Scope._sources(consumer)
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
    for source in sources:
        if source.filter is not None:
            all_refs.extend(source.filter.column_refs)
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

    # Merge the body's WHERE and any pushed filter on the reference into the
    # replacement scan's filter (all single-table by construction).
    filters: list[Expression] = []
    if body.where is not None:
        filters.append(transform_expression(body.where, qualify))
    if reference.filter is not None:
        filtered = _substitute_outputs(reference.filter, binding, outputs)
        if filtered is None:
            return None
        filters.append(filtered)
    replacement = TableSource(inner.name, inner.alias, filter=conjoin(filters))

    def rewrite_source(source: TableSource) -> TableSource:
        if source is reference:
            return replacement
        if source.filter is not None:
            return replace(source, filter=rewrite_expr(source.filter))
        return source

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
        where=None if consumer.where is None else rewrite_expr(consumer.where),
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
    predicates_pushed: int = 0
    cte_filters_pushed: int = 0
    columns_pruned: int = 0
    ctes_inlined: int = 0

    def entries(self) -> list[str]:
        """Human-readable one-liners for the applied rules."""
        lines = []
        if self.constant_folds:
            lines.append(f"constant folding: {self.constant_folds} expression(s)")
        if self.ctes_inlined:
            lines.append(f"cte inlining: {self.ctes_inlined} single-use CTE(s)")
        if self.predicates_pushed:
            lines.append(f"predicate pushdown: {self.predicates_pushed} conjunct(s) onto scans")
        if self.cte_filters_pushed:
            lines.append(f"cte pushdown: {self.cte_filters_pushed} filter(s) into CTE bodies")
        if self.columns_pruned:
            lines.append(f"projection pruning: {self.columns_pruned} dead column(s)")
        return lines

    def total(self) -> int:
        return (
            self.constant_folds
            + self.predicates_pushed
            + self.cte_filters_pushed
            + self.columns_pruned
            + self.ctes_inlined
        )

    def as_dict(self) -> dict:
        return {
            "constant_folds": self.constant_folds,
            "predicates_pushed": self.predicates_pushed,
            "cte_filters_pushed": self.cte_filters_pushed,
            "columns_pruned": self.columns_pruned,
            "ctes_inlined": self.ctes_inlined,
        }


def rewrite_query(
    query: Select | WithSelect,
    catalog: Mapping[str, Table],
) -> tuple[Select | WithSelect, RewriteLog]:
    """Apply every rewrite rule to one query; returns (query, log)."""
    log = RewriteLog()

    if isinstance(query, WithSelect):
        new_ctes = []
        for cte in query.ctes:
            folded, folds = fold_select(cte.query)
            log.constant_folds += folds
            new_ctes.append(CommonTableExpression(cte.name, folded, cte.columns))
        folded_main, folds = fold_select(query.query)
        log.constant_folds += folds
        statement: WithSelect = WithSelect(tuple(new_ctes), folded_main)
        if any(cte.columns for cte in statement.ctes):
            # Column-aliased WITH clauses only get constant folding: the
            # structural rules (inlining, pushdown, pruning) all assume
            # bodies whose output names are their item names.
            return statement, log

        # Duplicate CTE names (last definition wins at execution) defeat the
        # name-keyed bookkeeping of the WITH-level rules — skip them.  Scope
        # construction below remains correct because it tracks the last
        # definition seen so far, matching execution order.
        names = [cte.name for cte in statement.ctes]
        unique_names = len(set(names)) == len(names)

        if unique_names:
            statement, inlined = inline_single_use_ctes(statement)
            log.ctes_inlined += inlined

        cte_columns: dict[str, Optional[list[str]]] = {}
        new_ctes = []
        for cte in statement.ctes:
            scope = Scope(cte.query, catalog, cte_columns)
            pushed_query, pushed = push_predicates_into_scans(
                cte.query, scope, frozenset(cte_columns)
            )
            log.predicates_pushed += pushed
            new_ctes.append(CommonTableExpression(cte.name, pushed_query))
            cte_columns[cte.name] = select_output_names(pushed_query)
        scope = Scope(statement.query, catalog, cte_columns)
        pushed_main, pushed = push_predicates_into_scans(
            statement.query, scope, frozenset(cte_columns)
        )
        log.predicates_pushed += pushed
        statement = WithSelect(tuple(new_ctes), pushed_main)

        if unique_names:
            statement, moved = push_filters_into_ctes(statement)
            log.cte_filters_pushed += moved

            statement, pruned = prune_cte_projections(statement)
            log.columns_pruned += pruned

        if not statement.ctes:
            return statement.query, log
        return statement, log

    folded, folds = fold_select(query)
    log.constant_folds += folds
    scope = Scope(folded, catalog, {})
    pushed_query, pushed = push_predicates_into_scans(folded, scope)
    log.predicates_pushed += pushed
    return pushed_query, log


def rewrite_statement(
    statement: Statement, catalog: Mapping[str, Table]
) -> tuple[Statement, RewriteLog]:
    """Rewrite any statement kind the optimizer covers (others pass through)."""
    if isinstance(statement, (Select, WithSelect)):
        return rewrite_query(statement, catalog)
    if isinstance(statement, CreateTableAs):
        query, log = rewrite_query(statement.query, catalog)
        return replace(statement, query=query), log
    return statement, RewriteLog()

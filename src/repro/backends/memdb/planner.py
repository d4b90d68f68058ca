"""Physical-plan compiler for the embedded columnar engine.

Every query the engine runs goes through this module.  The paper's hot loop
(one join-aggregate per branching gate or diagonal block, repeated for
every parameter-sweep point)
executes *structurally identical* statements thousands of times, so a
parsed statement is compiled once into a reusable physical plan over the
kernels of :mod:`.executor`:

* ``compile_statement`` turns a ``Select`` / ``WithSelect`` /
  ``CreateTableAs`` AST into a pipeline of operators (scan → hash-join →
  filter → project / hash-aggregate → distinct/order/limit) with all
  per-statement analysis — aggregate detection, join-side splitting,
  projection naming — done at compile time;
* the paper's per-gate shape ``SELECT key AS s, SUM(..) AS r, SUM(..) AS i
  FROM T JOIN G ON .. GROUP BY key`` is detected and compiled into a
  **fused join-aggregate** operator that pushes the grouped SUMs through the
  hash join in one pass, gathering only the columns the aggregate actually
  reads instead of materializing the full joined frame;
* plans hold table *names*, never table data: each execution re-resolves the
  names against the calling database's catalog, so a cached plan can be
  re-bound to fresh gate/state tables (the parameter-sweep reuse path).

Every ``Select`` / ``WithSelect`` / ``CreateTableAs`` compiles — only the
*fused* operator is conditional, degrading to the generic pipeline.  The
other statement kinds (INSERT, DELETE, DDL, ANALYZE, EXPLAIN) return ``None``
from ``compile_statement`` and the engine runs them directly.  The
differential tests check compiled results against ``sqlite3``.
"""

from __future__ import annotations

from functools import lru_cache
from operator import is_not
from typing import Callable, Mapping, Sequence

import numpy as np

from ...errors import SQLExecutionError
from ...obs.tracing import current_span
from .column import encoded_codes
from .ast_nodes import (
    BinaryOp,
    CaseExpression,
    ColumnRef,
    CreateTableAs,
    Expression,
    FunctionCall,
    InList,
    IsNull,
    Literal,
    Select,
    SelectItem,
    Star,
    Statement,
    UnaryOp,
    WithSelect,
)
from .executor import (
    ExpressionEvaluator,
    Frame,
    apply_filter,
    cte_output_names,
    factorize_codes,
    grouped_projection,
    hash_join_frames,
    item_output_name,
    join_indices,
    plain_projection,
    postprocess_select,
    select_has_aggregates,
    split_join_condition,
)
from .optimizer.cost import CostModel, FusionDecision, TopKDecision
from .table import Table, TransientTable

#: Resolves a table name to a stored table or an earlier block's result.
Resolver = Callable[[str], Table | TransientTable]


class PlanNotSupported(Exception):
    """Internal signal: this block does not fit the fused gate-step operator."""


# ---------------------------------------------------------------------------
# Compile-time expression analysis
# ---------------------------------------------------------------------------


def _qualified_refs(expression: Expression) -> list[ColumnRef]:
    """Column refs of an expression, or raise if any is unqualified."""
    refs = expression.column_refs
    for ref in refs:
        if ref.table is None:
            raise PlanNotSupported("unqualified column reference")
    return list(refs)


def _split_by_binding(
    condition: Expression, left_bindings: Sequence[str], right_binding: str
) -> tuple[Expression, Expression] | None:
    """Compile-time join-condition split using table qualifiers.

    Returns ``None`` when any reference is unqualified, or when the joined
    table reuses a binding already on the left (a self-join like ``FROM t
    JOIN t``) so the qualifier is ambiguous — the runtime splitter decides
    from the actual frames instead.
    """
    if not isinstance(condition, BinaryOp) or condition.operator != "=":
        raise SQLExecutionError("JOIN ... ON only supports a single equality condition")
    if right_binding in left_bindings:
        return None

    def side(expression: Expression) -> str | None:
        refs = expression.column_refs
        sides = set()
        for ref in refs:
            if ref.table is None:
                raise PlanNotSupported("unqualified join reference")
            if ref.table in left_bindings:
                sides.add("left")
            elif ref.table == right_binding:
                sides.add("right")
            else:
                raise SQLExecutionError(f"JOIN condition references unknown table {ref.table!r}")
        if len(sides) > 1:
            raise SQLExecutionError("JOIN condition must compare one side per table")
        return sides.pop() if sides else None

    try:
        left_side = side(condition.left)
        right_side = side(condition.right)
    except PlanNotSupported:
        return None
    if left_side in ("left", None) and right_side in ("right", None):
        return condition.left, condition.right
    if left_side == "right" and right_side in ("left", None) or left_side is None and right_side == "left":
        return condition.right, condition.left
    raise SQLExecutionError("JOIN condition must compare one side per table")


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------


class _ScanOp:
    """Resolve one table and expose its columns under a binding.

    ``filter`` holds a predicate the optimizer pushed below the join; it is
    applied to the scanned columns before anything downstream sees them.
    """

    __slots__ = ("name", "binding", "filter")

    def __init__(self, name: str, binding: str, filter: Expression | None = None) -> None:
        self.name = name
        self.binding = binding
        self.filter = filter

    def run(self, resolve: Resolver) -> tuple[Frame, int]:
        table = resolve(self.name)
        frame, length = table.frame(self.binding), table.num_rows
        if self.filter is not None:
            frame, length = apply_filter(frame, length, self.filter)
        return frame, length


class _JoinOp:
    """Inner hash join of the current frame with one scanned table."""

    __slots__ = ("scan", "condition", "left_key", "right_key")

    def __init__(
        self,
        scan: _ScanOp,
        condition: Expression,
        split: tuple[Expression, Expression] | None,
    ) -> None:
        self.scan = scan
        self.condition = condition
        if split is None:
            self.left_key = None
            self.right_key = None
        else:
            self.left_key, self.right_key = split

    def run(self, frame: Frame, length: int, resolve: Resolver) -> tuple[Frame, int]:
        right_frame, right_length = self.scan.run(resolve)
        left_key, right_key = self.left_key, self.right_key
        if left_key is None:
            left_key, right_key = split_join_condition(self.condition, frame, right_frame)
        return hash_join_frames(frame, length, right_frame, right_length, left_key, right_key)


class _FusedJoinAggregateOp:
    """The paper's gate step, join and grouped SUMs fused into one pass.

    ``SELECT key AS s, SUM(e1) AS r, SUM(e2) AS i FROM T JOIN G ON .. GROUP
    BY key`` runs as: evaluate, on the two *base* tables, the join keys and
    every part of the group key and the SUM arguments that reads one table
    only (``left_parts`` / ``right_parts``: the columns themselves, ``T.s &
    ~m`` over the state rows, the ``out_s`` deposit over the gate rows);
    compute the matching row-index pairs; gather those parts' *results*;
    evaluate what is left — the operators that mix the two sides — over the
    joined rows; aggregate with ``bincount`` over the factorized key — the
    joined relation itself is never materialized.
    """

    __slots__ = (
        "left_scan", "right_scan", "left_key", "right_key", "left_keys", "left_parts",
        "right_keys", "right_parts", "key_expr", "outputs", "columns_read",
    )

    def __init__(
        self,
        left_scan: _ScanOp,
        right_scan: _ScanOp,
        split: tuple[Expression, Expression],
        left_parts: Mapping[str, Expression],
        right_parts: Mapping[str, Expression],
        key_expr: Expression,
        outputs: list[tuple[str, str, Expression | None]],
        columns_read: int,
    ) -> None:
        self.left_scan = left_scan
        self.right_scan = right_scan
        self.left_key, self.right_key = split
        #: Per side, the one-sided expressions and, aligned with them, the
        #: joined-frame keys of their results.
        self.left_keys, self.left_parts = tuple(left_parts), tuple(left_parts.values())
        self.right_keys, self.right_parts = tuple(right_parts), tuple(right_parts.values())
        #: The group key and, in ``outputs``, the (output name, kind in
        #: {"key", "sum", "count"}, argument) triples — over the joined frame.
        self.key_expr = key_expr
        self.outputs = outputs
        #: Distinct columns the block reads (the cost model's gather width).
        self.columns_read = columns_read

    def run(self, resolve: Resolver) -> tuple[list[str], list[np.ndarray]]:
        left_frame, left_length = self.left_scan.run(resolve)
        right_frame, right_length = self.right_scan.run(resolve)
        left_values = ExpressionEvaluator(left_frame, left_length).evaluate
        right_values = ExpressionEvaluator(right_frame, right_length).evaluate
        left_idx, right_idx = join_indices(
            left_values(self.left_key), right_values(self.right_key)
        )

        joined: Frame = {}
        for key, part in zip(self.left_keys, self.left_parts):
            joined[key] = left_values(part)[left_idx]
        for key, part in zip(self.right_keys, self.right_parts):
            joined[key] = right_values(part)[right_idx]
        joined_length = len(right_idx)
        evaluator = ExpressionEvaluator(joined, joined_length)

        key_values = evaluator.evaluate(self.key_expr)
        # Factorize on exact int64 codes (shared with the generic grouped
        # path): int64 keys pass through, floats/text become injective
        # order-preserving codes, all NULL keys form one group sorted first.
        first_indices, inverse, num_groups = factorize_codes(encoded_codes(key_values))

        names: list[str] = []
        vectors: list[np.ndarray] = []
        for name, kind, argument in self.outputs:
            names.append(name)
            if kind == "key":
                # Gather from the evaluated key column so the dtype survives
                # (np.unique on the stacked-float path would widen int64 keys).
                vectors.append(key_values[first_indices])
            elif kind == "count":
                vectors.append(np.bincount(inverse, minlength=num_groups).astype(np.int64))
            else:
                weights = evaluator.evaluate(argument).astype(np.float64, copy=False)
                sums = np.bincount(inverse, weights=weights, minlength=num_groups)
                if np.isnan(sums.sum()):
                    # A NULL argument made its group's sum NaN.  SUM skips
                    # NULLs, and is NULL only where it skipped every row.
                    valid = ~np.isnan(weights)
                    groups = inverse[valid]
                    summed = np.bincount(groups, minlength=num_groups)
                    sums = np.bincount(groups, weights=weights[valid], minlength=num_groups)
                    sums = np.where(summed == 0, np.nan, sums)
                vectors.append(sums)
        return names, vectors


# ---------------------------------------------------------------------------
# Compiled statements
# ---------------------------------------------------------------------------


class CompiledQuery:
    """A compiled ``Select``: scans/joins/filter plus a projection strategy.

    When the per-gate join-aggregate shape is *eligible* for fusion, the
    actual choice between the fused operator and the generic pipeline is
    made by the cost model (:meth:`CostModel.fusion_decision`), not by the
    syntactic match alone; the decision is kept on ``self.fusion`` so
    ``EXPLAIN`` can show both estimated costs.  The same applies to
    ``ORDER BY ... LIMIT`` tails: the cost model chooses between the
    bounded top-k selection and full sort-then-slice at compile time
    (``self.topk``), and the compiled plan executes whichever was chosen.
    """

    __slots__ = (
        "select",
        "source",
        "joins",
        "fused",
        "has_aggregates",
        "grouped",
        "fusion",
        "topk",
    )

    def __init__(self, select: Select, cost: CostModel | None = None) -> None:
        self.select = select
        self.has_aggregates = select_has_aggregates(select)
        self.grouped = bool(select.group_by) or self.has_aggregates
        self.fusion: FusionDecision | None = None
        model = cost if cost is not None else CostModel()
        self.topk: TopKDecision | None = model.topk_decision(select)
        fused = _compile_fused(select) if self.grouped else None
        if fused is not None:
            self.fusion = model.fusion_decision(select, fused.columns_read)
            if not self.fusion.use_fused:
                fused = None
        self.fused = fused
        if self.fused is not None:
            self.source = None
            self.joins: list[_JoinOp] = []
            return

        self.source = (
            _ScanOp(select.source.name, select.source.binding, select.source.filter)
            if select.source
            else None
        )
        self.joins = []
        bindings = [select.source.binding] if select.source else []
        for join in select.joins:
            if join.kind != "inner":
                raise SQLExecutionError(f"{join.kind.upper()} JOIN is not supported by the embedded engine")
            scan = _ScanOp(join.source.name, join.source.binding, join.source.filter)
            split = _split_by_binding(join.condition, bindings, join.source.binding)
            self.joins.append(_JoinOp(scan, join.condition, split))
            bindings.append(join.source.binding)

    def execute(
        self, resolve: Resolver, observe=None, tracer=None
    ) -> tuple[list[str], list[np.ndarray]]:
        """Run the plan against the given name resolver; returns (names, aligned vectors).

        ``observe`` receives the block's pre-limit row count (see
        :func:`~.executor.postprocess_select`).  ``tracer`` (a
        :class:`repro.obs.Tracer`, or None) records a per-operator span
        tree; the untraced path is byte-for-byte the traced path minus the
        spans, so enabling tracing can never change a result.
        """
        select = self.select
        use_topk = self.topk is not None and self.topk.use_topk
        if tracer is not None:
            return self._execute_traced(resolve, observe, use_topk, tracer)

        if self.fused is not None:
            names, vectors = self.fused.run(resolve)
            return postprocess_select(
                select, names, vectors, None, 0, self.has_aggregates,
                use_topk=use_topk, observe=observe,
            )

        if self.source is None:
            frame: Frame = {}
            length = 1
        else:
            frame, length = self.source.run(resolve)
        for join in self.joins:
            frame, length = join.run(frame, length, resolve)

        if select.where is not None:
            frame, length = apply_filter(frame, length, select.where)

        if self.grouped:
            names, vectors = grouped_projection(select, frame, length)
        else:
            names, vectors = plain_projection(select.items, frame, length)
        return postprocess_select(
            select, names, vectors, frame, length, self.has_aggregates,
            use_topk=use_topk, observe=observe,
        )

    def _execute_traced(
        self, resolve: Resolver, observe, use_topk, tracer
    ) -> tuple[list[str], list[np.ndarray]]:
        """The :meth:`execute` pipeline with a span per physical operator.

        Mirrors the untraced branch operator for operator (same kernels);
        each span records the operator's output rows.

        A fused block *is* a single physical operator, so it annotates the
        enclosing ``block`` span (whose wall time already is the operator's)
        instead of opening a child span: the paper's hot workload is a chain
        of fused gate steps, and one span per step instead of two keeps the
        enabled-mode overhead inside the benchmark gate.
        """
        select = self.select
        if self.fused is not None:
            span = current_span()
            if span is not None:
                # Direct attr stores: this runs once per gate step on the
                # paper's hot workload, and the kwargs repack in set() is
                # measurable there.
                attrs = span.attrs
                attrs["op"] = "fused-join-aggregate"
                attrs["table"] = self.fused.left_scan.name
                attrs["join_table"] = self.fused.right_scan.name
            names, vectors = self.fused.run(resolve)
            return postprocess_select(
                select, names, vectors, None, 0, self.has_aggregates,
                use_topk=use_topk, observe=observe,
            )

        if self.source is None:
            frame: Frame = {}
            length = 1
        else:
            with tracer.span("operator", op="scan", table=self.source.name) as span:
                frame, length = self.source.run(resolve)
                span.set(rows=length)
        for join in self.joins:
            with tracer.span("operator", op="hash-join", table=join.scan.name) as span:
                frame, length = join.run(frame, length, resolve)
                span.set(rows=length)

        if select.where is not None:
            with tracer.span("operator", op="filter") as span:
                frame, length = apply_filter(frame, length, select.where)
                span.set(rows=length)

        if self.grouped:
            with tracer.span("operator", op="aggregate") as span:
                names, vectors = grouped_projection(select, frame, length)
                span.set(rows=len(vectors[0]) if vectors else 0)
        else:
            with tracer.span("operator", op="project") as span:
                names, vectors = plain_projection(select.items, frame, length)
                span.set(rows=length)
        return postprocess_select(
            select, names, vectors, frame, length, self.has_aggregates,
            use_topk=use_topk, observe=observe,
        )


class CompiledScript:
    """A compiled ``WithSelect``: CTE plans executed in order, then the query.

    Each CTE entry is ``(name, plan, alias_columns)``.  ``alias_columns``
    is the declared column list of a ``WITH u(p, q) AS (SELECT ...)`` CTE,
    renaming the body's output names; it is empty when the CTE declares
    none.
    """

    __slots__ = ("ctes", "query")

    def __init__(
        self,
        ctes: list[tuple[str, CompiledQuery, tuple[str, ...]]],
        query: CompiledQuery,
    ) -> None:
        self.ctes = ctes
        self.query = query

    def execute(
        self,
        catalog: Mapping[str, Table],
        trace: Callable[[str, int], None] | None = None,
        tracer=None,
    ) -> tuple[list[str], list[np.ndarray]]:
        """Run CTEs then the main query against a table catalog.

        ``trace`` (EXPLAIN ANALYZE) receives ``(block label, actual row
        count)`` for every CTE and finally for ``"main"``.  The reported count is the block's *pre-limit*
        cardinality — for blocks without LIMIT that is simply the output
        size, and for limited blocks it is the number the optimizer's
        pre-limit estimate predicts (the output size would mask any
        misestimate behind the cap).  ``tracer`` adds a ``block`` span per
        CTE/main carrying the *same* pre-limit count on its ``rows`` attr —
        a traced span tree and an EXPLAIN ANALYZE of the same execution can
        never disagree, because they read one observation.
        """
        ctes: dict[str, TransientTable] = {}

        def resolve(name: str) -> Table | TransientTable:
            if name in ctes:
                return ctes[name]
            if name in catalog:
                return catalog[name]
            raise SQLExecutionError(f"no such table: {name}")

        observed: list[int] = []
        observe = observed.append if (trace is not None or tracer is not None) else None
        for name, plan, alias_columns in self.ctes:
            if tracer is not None:
                with tracer.span("block", block=name) as span:
                    names, vectors = plan.execute(resolve, observe=observe, tracer=tracer)
                    if alias_columns:
                        names = cte_output_names(name, alias_columns, names)
                    ctes[name] = TransientTable(name, names, vectors)
                    span.attrs["rows"] = observed[-1] if observed else ctes[name].num_rows
            else:
                names, vectors = plan.execute(resolve, observe=observe)
                if alias_columns:
                    names = cte_output_names(name, alias_columns, names)
                ctes[name] = TransientTable(name, names, vectors)
            if trace is not None:
                trace(name, observed[-1] if observed else ctes[name].num_rows)
            observed.clear()
        if tracer is not None:
            with tracer.span("block", block="main") as span:
                names, vectors = self.query.execute(resolve, observe=observe, tracer=tracer)
                output_rows = len(vectors[0]) if vectors else 0
                span.attrs["rows"] = observed[-1] if observed else output_rows
        else:
            names, vectors = self.query.execute(resolve, observe=observe)
        if trace is not None:
            output_rows = len(vectors[0]) if vectors else 0
            trace("main", observed[-1] if observed else output_rows)
        return names, vectors


class CompiledCreateTableAs:
    """A compiled ``CREATE TABLE name AS <select>`` (the materialized-mode step)."""

    __slots__ = ("name", "temporary", "script")

    def __init__(self, name: str, temporary: bool, script: CompiledScript) -> None:
        self.name = name
        self.temporary = temporary
        self.script = script


@lru_cache(maxsize=None)
def _placeholder(number: int) -> ColumnRef:
    """The reference replacing a block's part registered ``number``-th; shared by all plans."""
    return ColumnRef(f"#{number}")


def _joined_rest(expression: Expression, parts: dict[str, dict[str, Expression]]) -> Expression:
    """``expression`` over a fused block's joined frame, its one-sided parts moved out.

    A *part* is a maximal sub-expression whose columns all come from one
    join side (``parts`` maps each side's binding to its parts, by joined-
    frame key): it is evaluated on that side's base rows and only its result
    is gathered through the join.  A bare column is its own part under its
    own key; a larger part is replaced by a reference to a ``#n`` key, which
    no SQL-spelled column has.  Only the operators on the path from the root
    to a replaced part are rebuilt — every other node is the AST's own.
    """
    refs = expression.column_refs
    if not refs:
        return expression
    table = refs[0].table
    for ref in refs:
        if ref.table != table:
            children = expression.children()
            rebuilt = tuple([_joined_rest(child, parts) for child in children])
            if any(map(is_not, rebuilt, children)):
                return expression.with_children(rebuilt)
            return expression
    side = parts.get(table)
    if side is None:
        raise PlanNotSupported("column of a table the block does not scan")
    if isinstance(expression, ColumnRef):
        side.setdefault(expression.frame_key, expression)
        return expression
    placeholder = _placeholder(sum(map(len, parts.values())))
    side[placeholder.frame_key] = expression
    return placeholder


def _compile_fused(select: Select) -> _FusedJoinAggregateOp | None:
    """Compile the gate-step shape into a fused operator, or None."""
    if (
        select.source is None
        or len(select.joins) != 1
        or select.joins[0].kind != "inner"
        or select.where is not None
        or select.having is not None
        or select.distinct
        or len(select.group_by) != 1
    ):
        return None
    key_expr = select.group_by[0]
    left, right = select.source, select.joins[0].source

    try:
        split = _split_by_binding(select.joins[0].condition, [left.binding], right.binding)
        if split is None:
            return None
        parts: dict[str, dict[str, Expression]] = {left.binding: {}, right.binding: {}}
        needed = _qualified_refs(key_expr)
        outputs: list[tuple[str, str, Expression | None]] = []
        for position, item in enumerate(select.items):
            name = item_output_name(item, position)
            expression = item.expression
            if expression == key_expr:
                outputs.append((name, "key", None))
                continue
            if not isinstance(expression, FunctionCall) or expression.distinct:
                return None
            if expression.name == "count" and (expression.is_star or not expression.arguments):
                outputs.append((name, "count", None))
                continue
            if expression.name != "sum" or len(expression.arguments) != 1:
                return None
            argument = expression.arguments[0]
            needed.extend(_qualified_refs(argument))
            outputs.append((name, "sum", _joined_rest(argument, parts)))
        key_expr = _joined_rest(key_expr, parts)
    except PlanNotSupported:
        return None

    return _FusedJoinAggregateOp(
        left_scan=_ScanOp(left.name, left.binding, left.filter),
        right_scan=_ScanOp(right.name, right.binding, right.filter),
        split=split,
        left_parts=parts[left.binding],
        right_parts=parts[right.binding],
        key_expr=key_expr,
        outputs=outputs,
        columns_read=len({ref.key() for ref in needed}),
    )


def _compile_script(query: Select | WithSelect, cost: CostModel | None = None) -> CompiledScript:
    """Compile a query (with any CTEs) into one executable script."""
    if isinstance(query, WithSelect):
        ctes = [(cte.name, CompiledQuery(cte.query, cost), cte.columns) for cte in query.ctes]
        return CompiledScript(ctes, CompiledQuery(query.query, cost))
    return CompiledScript([], CompiledQuery(query, cost))


def compile_statement(
    statement: Statement, cost: CostModel | None = None
) -> CompiledScript | CompiledCreateTableAs | None:
    """Compile one parsed statement into a physical plan.

    ``cost`` is the optimizer's cost model for physical operator choices
    (fused join-aggregate vs generic pipeline); when omitted, a default
    model with no statistics is used, so the choice is still cost-based but
    falls back to conservative estimates.

    Every ``Select`` / ``WithSelect`` / ``CreateTableAs`` compiles; the
    other statement kinds (INSERT, DELETE, DDL, ANALYZE, EXPLAIN) return
    ``None`` and the engine runs them directly.  Statement shapes that are
    outright invalid (e.g. LEFT JOIN) raise :class:`SQLExecutionError`.
    """
    if isinstance(statement, (Select, WithSelect)):
        return _compile_script(statement, cost)
    if isinstance(statement, CreateTableAs):
        return CompiledCreateTableAs(
            statement.name, statement.temporary, _compile_script(statement.query, cost)
        )
    return None

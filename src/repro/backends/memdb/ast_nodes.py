"""Abstract syntax tree nodes for the embedded columnar engine.

The node classes are small frozen dataclasses; the parser builds them and the
executor pattern-matches on their types.  Expressions and statements are kept
deliberately close to the SQL grammar so the executor's behaviour is easy to
audit against the statements the translator generates.

Every generic traversal goes through one method, :meth:`Expression.children`
(with :meth:`Expression.with_children` as its inverse): the derived *facts*
(``has_aggregate``, ``column_refs``) and :func:`transform_expression` are
written once against it instead of once per node type.  Nodes are immutable, so a fact is computed on first read from
the children's facts and then kept on the node.  Expression nodes are
slotted: an AST is most of what a cached plan keeps alive.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from operator import is_not
from typing import Callable, Optional

#: Aggregate function names recognized by the executor.
AGGREGATE_FUNCTIONS = {"sum", "count", "min", "max", "avg", "total"}


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expression:
    """Base class for expression nodes."""

    __slots__ = ()

    #: True when the expression calls a plain aggregate function anywhere.
    #: The single aggregate detector shared by the executor, the planner and
    #: the optimizer, so none of them can classify an expression differently
    #: than the engine that executes it.
    has_aggregate: bool
    #: Every column reference in the expression tree, in visit order.
    column_refs: tuple["ColumnRef", ...]

    def children(self) -> tuple["Expression", ...]:
        """The direct sub-expressions, in source order."""
        return ()

    def with_children(self, children: tuple["Expression", ...]) -> "Expression":
        """This node over replacement sub-expressions (same order as :meth:`children`)."""
        return self


class _Leaf(Expression):
    """An expression without sub-expressions: its facts are constants."""

    __slots__ = ()
    has_aggregate = False
    column_refs = ()


def _any_child(node: Expression, fact_name: str) -> bool:
    for child in node.children():
        if getattr(child, fact_name):
            return True
    return False


class _Composite(Expression):
    """An expression over sub-expressions: its facts derive from theirs.

    Each fact is a slot the constructor leaves unset.  Reading an unset slot
    falls through to :meth:`__getattr__`, which derives the value from the
    children's facts and stores it; every later read is a plain slot read.
    The slots are not dataclass fields, so a stored fact never shows in
    ``repr`` / ``==`` / ``hash`` and never survives ``replace``.
    """

    __slots__ = ("has_aggregate", "column_refs")

    def __getattr__(self, name: str):
        derive = getattr(type(self), "_derive_" + name, None)
        if derive is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        value = derive(self)
        object.__setattr__(self, name, value)
        return value

    def _derive_has_aggregate(self) -> bool:
        return _any_child(self, "has_aggregate")

    def _derive_column_refs(self) -> tuple["ColumnRef", ...]:
        return tuple([ref for child in self.children() for ref in child.column_refs])


@dataclass(frozen=True, slots=True)
class Literal(_Leaf):
    """A numeric, string or NULL literal."""

    value: object


class _FrameKey(_Leaf):
    __slots__ = ("frame_key",)


@dataclass(frozen=True, slots=True)
class ColumnRef(_FrameKey):
    """A column reference, optionally qualified with a table name/alias.

    ``frame_key`` is the lookup key used by the executor's frames,
    ``table.name`` or the bare name: spelled once, when the node is built —
    it is looked up on every execution of every plan that keeps the node —
    and interned, since gate steps read the same few keys (``T7.s``,
    ``H.r``).  Like the composites' facts it is a plain slot, not a field.
    """

    name: str
    table: Optional[str] = None

    def __post_init__(self) -> None:
        key = f"{self.table}.{self.name}" if self.table else self.name
        object.__setattr__(self, "frame_key", sys.intern(key))

    def key(self) -> str:
        """The lookup key used by the executor's frames."""
        return self.frame_key

    @property
    def column_refs(self) -> tuple["ColumnRef", ...]:
        return (self,)


@dataclass(frozen=True, slots=True)
class Star(_Leaf):
    """The ``*`` projection (optionally ``table.*``)."""

    table: Optional[str] = None


@dataclass(frozen=True, slots=True)
class UnaryOp(_Composite):
    """Unary operator: ``-x``, ``+x``, ``~x``, ``NOT x``."""

    operator: str
    operand: Expression

    def children(self):
        return (self.operand,)

    def with_children(self, children):
        return UnaryOp(self.operator, children[0])


@dataclass(frozen=True, slots=True)
class BinaryOp(_Composite):
    """Binary operator over two sub-expressions."""

    operator: str
    left: Expression
    right: Expression

    def children(self):
        return (self.left, self.right)

    def with_children(self, children):
        return BinaryOp(self.operator, children[0], children[1])


@dataclass(frozen=True, slots=True)
class FunctionCall(_Composite):
    """A function or aggregate call, e.g. ``SUM(expr)`` or ``COUNT(*)``."""

    name: str
    arguments: tuple[Expression, ...]
    is_star: bool = False
    distinct: bool = False

    def children(self):
        return self.arguments

    def with_children(self, children):
        return FunctionCall(self.name, children, self.is_star, self.distinct)

    def _derive_has_aggregate(self) -> bool:
        return self.name in AGGREGATE_FUNCTIONS or _any_child(self, "has_aggregate")


@dataclass(frozen=True, slots=True)
class CaseExpression(_Composite):
    """``CASE WHEN cond THEN value [...] ELSE default END``."""

    conditions: tuple[Expression, ...]
    results: tuple[Expression, ...]
    default: Optional[Expression] = None

    def children(self):
        tail = () if self.default is None else (self.default,)
        return self.conditions + self.results + tail

    def with_children(self, children):
        count = len(self.conditions)
        return CaseExpression(
            children[:count],
            children[count : 2 * count],
            None if self.default is None else children[-1],
        )


@dataclass(frozen=True, slots=True)
class IsNull(_Composite):
    """``expr IS [NOT] NULL``."""

    operand: Expression
    negated: bool = False

    def children(self):
        return (self.operand,)

    def with_children(self, children):
        return IsNull(children[0], self.negated)


@dataclass(frozen=True, slots=True)
class InList(_Composite):
    """``expr [NOT] IN (literal, ...)``."""

    operand: Expression
    values: tuple[Expression, ...]
    negated: bool = False

    def children(self):
        return (self.operand,) + self.values

    def with_children(self, children):
        return InList(children[0], children[1:], self.negated)


def transform_expression(
    expression: Expression, fn: Callable[[Expression], Expression]
) -> Expression:
    """Apply ``fn`` to every node, bottom-up.

    A node whose children all came back as the same objects is passed to
    ``fn`` as is, not rebuilt: a transform that changes nothing returns its
    input, and unchanged subtrees keep their facts.
    """
    children = expression.children()
    if children:
        rebuilt = tuple([transform_expression(child, fn) for child in children])
        if any(map(is_not, rebuilt, children)):
            expression = expression.with_children(rebuilt)
    return fn(expression)


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SelectItem:
    """One projection item: an expression plus an optional alias."""

    expression: Expression
    alias: Optional[str] = None


@dataclass(frozen=True)
class TableSource:
    """A table (or CTE) appearing in FROM/JOIN, with an optional alias.

    ``filter`` is never produced by the parser: the optimizer's predicate
    pushdown installs it, and the compiled scan applies it
    to the scanned rows *before* any join — the relational identity
    ``sigma_p(A) JOIN B = sigma_p(A JOIN B)`` for inner joins.
    """

    name: str
    alias: Optional[str] = None
    filter: Optional[Expression] = None

    @property
    def binding(self) -> str:
        """Name under which the table's columns are visible."""
        return self.alias or self.name


@dataclass(frozen=True)
class Join:
    """An INNER/LEFT join with its ON condition."""

    source: TableSource
    condition: Expression
    kind: str = "inner"


@dataclass(frozen=True)
class OrderItem:
    """One ORDER BY key."""

    expression: Expression
    descending: bool = False


@dataclass(frozen=True)
class Select:
    """A SELECT statement (possibly a CTE body).

    ``limit`` / ``offset`` follow SQLite semantics: a negative LIMIT means
    "no limit" and a negative OFFSET is treated as 0.
    """

    items: tuple[SelectItem, ...]
    source: Optional[TableSource] = None
    joins: tuple[Join, ...] = ()
    where: Optional[Expression] = None
    group_by: tuple[Expression, ...] = ()
    having: Optional[Expression] = None
    order_by: tuple[OrderItem, ...] = ()
    limit: Optional[int] = None
    offset: Optional[int] = None
    distinct: bool = False


@dataclass(frozen=True)
class CommonTableExpression:
    """One ``name [(col, ...)] AS (SELECT ...)`` entry of a WITH clause."""

    name: str
    query: Select
    columns: tuple[str, ...] = ()


@dataclass(frozen=True)
class WithSelect:
    """``WITH cte [, cte ...] SELECT ...``."""

    ctes: tuple[CommonTableExpression, ...]
    query: Select


@dataclass(frozen=True)
class ColumnDefinition:
    """One column of a CREATE TABLE statement."""

    name: str
    type_name: str
    not_null: bool = False


@dataclass(frozen=True)
class CreateTable:
    """``CREATE [TEMP] TABLE name (col type [NOT NULL], ...)``."""

    name: str
    columns: tuple[ColumnDefinition, ...]
    temporary: bool = False


@dataclass(frozen=True)
class CreateTableAs:
    """``CREATE [TEMP] TABLE name AS <select>``."""

    name: str
    query: Select | WithSelect
    temporary: bool = False


@dataclass(frozen=True)
class Insert:
    """``INSERT INTO name (cols) VALUES (...), (...)``."""

    table: str
    columns: tuple[str, ...]
    rows: tuple[tuple[Expression, ...], ...]


@dataclass(frozen=True)
class Delete:
    """``DELETE FROM name [WHERE expr]``."""

    table: str
    where: Optional[Expression] = None


@dataclass(frozen=True)
class DropTable:
    """``DROP TABLE [IF EXISTS] name``."""

    name: str
    if_exists: bool = False


@dataclass(frozen=True)
class Analyze:
    """``ANALYZE [table]`` — refresh the optimizer's statistics catalog."""

    table: Optional[str] = None


@dataclass(frozen=True)
class Explain:
    """``EXPLAIN [ANALYZE] <statement>``.

    ``inner_sql`` is the raw text of the explained statement (used for
    plan-cache provenance lookups without re-rendering the AST).
    """

    statement: "Statement"
    analyze: bool = False
    inner_sql: str = ""


Statement = (
    Select
    | WithSelect
    | CreateTable
    | CreateTableAs
    | Insert
    | Delete
    | DropTable
    | Analyze
    | Explain
)

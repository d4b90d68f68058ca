"""Grammar-based differential SQL fuzzing: memdb vs SQLite (vs DuckDB).

Hypothesis generates random typed tables plus random SELECT / WITH queries
(joins, group-by, order-by / limit / offset, scalar expressions, CTE
chains) at the AST level — shrinking therefore simplifies the *query
structure*, not characters of a string — and asserts that the embedded
engine returns exactly the rows SQLite returns, cold and plan-cache-warm,
and across a mid-test data shift (which re-binds warm plans to new data).

Two table families drive the grammar: the original NOT NULL numeric
tables, and a NULL-heavy family with nullable DOUBLE and TEXT columns
(empty strings, unicode, and NULL literals in the INSERTed data) whose
query shapes add ``IS [NOT] NULL`` predicates, text comparisons and IN
lists, text equality joins (NULL keys never match), and grouped queries
with NULL-skipping aggregates and text MIN/MAX — exercising the
dictionary-encoded storage, validity bitmaps, and three-valued comparison
kernels against SQLite's reference semantics.

A join-aggregate production generates the paper's gate step itself — a
small dense-integer build side joined on a bit field of a BIGINT column,
grouped by an expression that mixes the two sides, SUMs of mixed products —
over data with NULL amplitudes, NULL keys and keys that match nothing.
Mutation tests verify the oracle catches a gate-step join that drops one
match, grouped aggregates that stop skipping NULLs, and each of memdb's two
rewrites gone wrong: ``~`` folded as negation, and a CTE inlined without its
WHERE.

The generated subset deliberately stays inside the semantics both engines
share (documented divergences are excluded by construction):

* no NOT in predicates — with negation excluded, collapsing NULL
  comparisons to FALSE is equivalent to SQL's top-level three-valued
  filter semantics, so the engines agree on every WHERE;
* ``/`` may yield NULL (zero divisor) in *projections* only — inside WHERE,
  three-valued logic and numpy booleans disagree under NOT;
* ``%`` only between integer operands (SQLite casts floats to INTEGER,
  memdb keeps fmod semantics, and the engines disagree with each other);
* whenever LIMIT / OFFSET is generated, the ORDER BY ends in a key that is
  unique per output row, because the *content* of a limited result under
  ties is implementation-defined in every engine.

Queries without LIMIT are compared as row multisets; limited queries are
compared in exact order.  The deep profile (``-m slow``) runs the same
grammar with a much larger example budget.
"""

from __future__ import annotations

import sqlite3

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.backends import duckdb_available
from repro.backends.memdb import MemDatabase, parse_one
from repro.backends.memdb.engine import PlanCache

# ---------------------------------------------------------------------------
# Profiles
# ---------------------------------------------------------------------------

#: Bounded tier-1 profile: deterministic (fixed derivation), small budget.
#: The four fuzz tests below sum to >= 200 generated queries per run.
_FAST = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

#: Deep profile, opt-in via ``-m slow``.
_DEEP = settings(
    max_examples=500,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


# ---------------------------------------------------------------------------
# Schema / data generation
# ---------------------------------------------------------------------------

_INT, _FLOAT, _TEXT = "int", "float", "text"

#: Text literal pool: empty string, unicode beyond ASCII, a digit-string
#: (must NOT coerce into numeric columns), near-collisions for collation.
_TEXT_VALUES = ["", "a", "b", "ab", "ba", "zz", "é", "Ω", "näive", "0", " "]


@st.composite
def _tables(draw, count: int = 1):
    """Random typed tables: a unique ``id`` plus 1-3 value columns each."""
    tables = []
    for index in range(count):
        name = f"t{index}"
        n_values = draw(st.integers(min_value=1, max_value=3))
        columns = [("id", _INT)]
        for c in range(n_values):
            kind = draw(st.sampled_from([_INT, _FLOAT]))
            columns.append((f"c{c}", kind))
        rows = draw(st.integers(min_value=0, max_value=20))
        data = []
        for row_id in range(rows):
            row = [row_id]
            for _name, kind in columns[1:]:
                if kind == _INT:
                    row.append(draw(st.integers(min_value=-8, max_value=8)))
                else:
                    # Quarter-steps: exact in binary, tie-heavy by design.
                    row.append(draw(st.integers(min_value=-24, max_value=24)) / 4.0)
            data.append(row)
        tables.append({"name": name, "columns": columns, "rows": data})
    return tables


_SQL_TYPES = {_INT: "BIGINT", _FLOAT: "DOUBLE", _TEXT: "TEXT"}


def _sql_literal(value) -> str:
    return "NULL" if value is None else repr(value)


def _ddl(table) -> list[str]:
    nullable = table.get("nullable", set())
    decls = ", ".join(
        f"{name} {_SQL_TYPES[kind]}{'' if name in nullable else ' NOT NULL'}"
        for name, kind in table["columns"]
    )
    statements = [f"CREATE TABLE {table['name']} ({decls})"]
    if table["rows"]:
        names = ", ".join(name for name, _ in table["columns"])
        values = ", ".join(
            "(" + ", ".join(_sql_literal(value) for value in row) + ")"
            for row in table["rows"]
        )
        statements.append(f"INSERT INTO {table['name']} ({names}) VALUES {values}")
    return statements


def _columns_of(table, kind=None):
    return [
        (f"{table['name']}.{name}", k)
        for name, k in table["columns"]
        if kind is None or k == kind
    ]


@st.composite
def _null_tables(draw, count: int = 1):
    """NULL-heavy tables: NOT NULL ``id`` plus nullable DOUBLE/TEXT columns."""
    tables = []
    for index in range(count):
        name = f"t{index}"
        columns = [("id", _INT)]
        for c in range(draw(st.integers(min_value=0, max_value=2))):
            columns.append((f"f{c}", _FLOAT))
        for c in range(draw(st.integers(min_value=1, max_value=2))):
            columns.append((f"s{c}", _TEXT))
        rows = draw(st.integers(min_value=0, max_value=20))
        data = []
        for row_id in range(rows):
            row = [row_id]
            for _name, kind in columns[1:]:
                if draw(st.integers(min_value=0, max_value=3)) == 0:
                    row.append(None)
                elif kind == _FLOAT:
                    row.append(draw(st.integers(min_value=-24, max_value=24)) / 4.0)
                else:
                    row.append(draw(st.sampled_from(_TEXT_VALUES)))
            data.append(row)
        tables.append(
            {
                "name": name,
                "columns": columns,
                "rows": data,
                "nullable": {column for column, _kind in columns[1:]},
            }
        )
    return tables


# ---------------------------------------------------------------------------
# Expression grammar
# ---------------------------------------------------------------------------


@st.composite
def _expr(draw, columns, depth: int = 2, division: bool = False, bitwise: bool = False):
    """A scalar expression over ``columns``; returns (sql, kind).

    ``division`` additionally allows ``/`` (and integer ``%``) — safe in
    projections, excluded from predicates and ORDER BY keys (NULL vs NaN
    ordering / three-valued logic divergences).  ``bitwise`` additionally
    allows ``& | << >> ~`` nodes (see :func:`_bitwise_node`); with no
    ``columns`` the result is a literal-only subtree.
    """
    if depth <= 0 or draw(st.booleans()):
        if columns and draw(st.integers(min_value=0, max_value=3)) > 0:
            return draw(st.sampled_from(columns))
        if draw(st.booleans()):
            return str(draw(st.integers(min_value=-9, max_value=9))), _INT
        return repr(draw(st.integers(min_value=-12, max_value=12)) / 4.0), _FLOAT
    if bitwise and draw(st.booleans()):
        return draw(_bitwise_node(columns, depth, division))
    choice = draw(st.integers(min_value=0, max_value=5 if division else 3))
    if choice == 3:
        inner, kind = draw(_expr(columns, depth - 1, division, bitwise))
        return f"abs({inner})", kind
    left, left_kind = draw(_expr(columns, depth - 1, division, bitwise))
    right, right_kind = draw(_expr(columns, depth - 1, division, bitwise))
    kind = _INT if (left_kind, right_kind) == (_INT, _INT) else _FLOAT
    if choice <= 2:
        operator = ["+", "-", "*"][choice]
        return f"({left} {operator} {right})", kind
    if choice == 4:
        return f"({left} / {right})", kind
    # Integer-only modulo; regenerate integer operands when needed.
    if left_kind != _INT:
        left = str(draw(st.integers(min_value=-9, max_value=9)))
    if right_kind != _INT:
        right = str(draw(st.integers(min_value=-9, max_value=9)))
    return f"({left} % {right})", _INT


@st.composite
def _bitwise_node(draw, columns, depth: int, division: bool):
    """One ``& | << >> ~`` node over arbitrary (REAL, NULL-able) operands.

    Both engines cast REAL operands to INTEGER by truncation and yield NULL
    for a NULL operand.  Shift counts are small non-negative literals:
    SQLite turns a negative count into a shift the other way, numpy does
    not.
    """
    operator = draw(st.sampled_from(["&", "|", "<<", ">>", "~"]))
    left, _kind = draw(_expr(columns, depth - 1, division, True))
    if operator == "~":
        return f"(~{left})", _INT
    if operator in ("<<", ">>"):
        return f"({left} {operator} {draw(st.integers(min_value=0, max_value=6))})", _INT
    right, _kind = draw(_expr(columns, depth - 1, division, True))
    return f"({left} {operator} {right})", _INT


@st.composite
def _predicate(draw, columns, depth: int = 2):
    """A WHERE/HAVING-safe boolean expression (no division, no NOT)."""
    if depth <= 0 or draw(st.booleans()):
        kind = draw(st.integers(min_value=0, max_value=3))
        if kind == 3 and columns:
            column, column_kind = draw(st.sampled_from(columns))
            if column_kind == _INT:
                values = draw(
                    st.lists(st.integers(min_value=-8, max_value=8), min_size=1, max_size=4)
                )
                negated = draw(st.booleans())
                rendered = ", ".join(str(v) for v in values)
                return f"{column} {'NOT IN' if negated else 'IN'} ({rendered})"
        left, _ = draw(_expr(columns, depth=1))
        right, _ = draw(_expr(columns, depth=1))
        operator = draw(st.sampled_from(["<", "<=", ">", ">=", "=", "!="]))
        return f"{left} {operator} {right}"
    connective = draw(st.sampled_from(["AND", "OR"]))
    left = draw(_predicate(columns, depth - 1))
    right = draw(_predicate(columns, depth - 1))
    return f"({left} {connective} {right})"


@st.composite
def _case_expr(draw, columns):
    condition = draw(_predicate(columns, depth=1))
    then, then_kind = draw(_expr(columns, depth=1))
    otherwise, other_kind = draw(_expr(columns, depth=1))
    kind = _INT if (then_kind, other_kind) == (_INT, _INT) else _FLOAT
    return f"CASE WHEN {condition} THEN {then} ELSE {otherwise} END", kind


@st.composite
def _projection_expr(draw, columns):
    if draw(st.integers(min_value=0, max_value=4)) == 0:
        return draw(_case_expr(columns))
    return draw(_expr(columns, depth=2, division=True))


@st.composite
def _limit_tail(draw, unique_keys, extra_order_columns):
    """ORDER BY ... [LIMIT n [OFFSET m]] ending in a total order.

    ``unique_keys`` identify an output row uniquely; optional tie-heavy
    leading keys exercise the top-k operator's tie handling.
    """
    order: list[str] = []
    if extra_order_columns and draw(st.booleans()):
        column, _kind = draw(st.sampled_from(extra_order_columns))
        order.append(f"{column} {draw(st.sampled_from(['ASC', 'DESC']))}")
    for key in unique_keys:
        order.append(f"{key} {draw(st.sampled_from(['ASC', 'DESC']))}")
    tail = f" ORDER BY {', '.join(order)}"
    limited = draw(st.booleans())
    if limited:
        limit = draw(st.sampled_from([0, 1, 2, 3, 5, 10, 25, -1]))
        tail += f" LIMIT {limit}"
        if draw(st.booleans()):
            offset = draw(st.sampled_from([0, 1, 2, 5, 40, -3]))
            tail += f" OFFSET {offset}"
    return tail, limited


# ---------------------------------------------------------------------------
# Query shapes
# ---------------------------------------------------------------------------


@st.composite
def _simple_query(draw, tables):
    table = tables[0]
    columns = _columns_of(table)
    distinct = draw(st.booleans())
    if distinct:
        # Real deduplication (no unique id in the projection), division-free
        # expressions (NaN-vs-NULL dedup diverges), multiset comparison.
        items = []
        for position in range(draw(st.integers(min_value=1, max_value=3))):
            expression, _ = draw(_expr(columns, depth=2, division=False))
            items.append(f"{expression} AS e{position}")
        sql = f"SELECT DISTINCT {', '.join(items)} FROM {table['name']}"
        if draw(st.booleans()):
            sql += f" WHERE {draw(_predicate(columns))}"
        return sql, False
    items = [f"{table['name']}.id AS id0"]
    for position in range(draw(st.integers(min_value=1, max_value=3))):
        expression, _ = draw(_projection_expr(columns))
        items.append(f"{expression} AS e{position}")
    sql = f"SELECT {', '.join(items)} FROM {table['name']}"
    if draw(st.booleans()):
        sql += f" WHERE {draw(_predicate(columns))}"
    tail, _limited = draw(_limit_tail(["id0"], columns))
    if draw(st.booleans()):
        sql += tail
        return sql, True
    return sql, False


@st.composite
def _join_query(draw, tables):
    left, right = tables[0], tables[1]
    left_ints = _columns_of(left, _INT)
    right_ints = _columns_of(right, _INT)
    left_key, _ = draw(st.sampled_from(left_ints))
    right_key, _ = draw(st.sampled_from(right_ints))
    all_columns = _columns_of(left) + _columns_of(right)
    items = [f"{left['name']}.id AS id0", f"{right['name']}.id AS id1"]
    for position in range(draw(st.integers(min_value=1, max_value=2))):
        expression, _ = draw(_projection_expr(all_columns))
        items.append(f"{expression} AS e{position}")
    sql = (
        f"SELECT {', '.join(items)} FROM {left['name']} "
        f"JOIN {right['name']} ON {left_key} = {right_key}"
    )
    if draw(st.booleans()):
        sql += f" WHERE {draw(_predicate(all_columns))}"
    tail, _limited = draw(_limit_tail(["id0", "id1"], all_columns))
    if draw(st.booleans()):
        sql += tail
        return sql, True
    return sql, False


@st.composite
def _same_name_join_query(draw, tables):
    """Projection items that share an output name: ``SELECT t0.id, t1.id, ...``.

    Unaliased references to equally named columns of the two join sides
    (every generated table has ``id`` and ``c0``), optionally joined by an
    expression aliased to the same name.  The result must carry one vector
    per item, in item order — through plain, DISTINCT and grouped
    projections, and across a CTE edge, where a scan of the shared name
    sees the first of the columns (SQLite's rule).  ORDER BY only names
    qualified source columns, which stay unambiguous.
    """
    left, right = tables[0]["name"], tables[1]["name"]
    left_key, _ = draw(st.sampled_from(_columns_of(tables[0], _INT)))
    right_key, _ = draw(st.sampled_from(_columns_of(tables[1], _INT)))
    items = [f"{left}.id", f"{right}.id"]
    if draw(st.booleans()):
        items += [f"{left}.c0", f"{right}.c0"]
    items = list(draw(st.permutations(items)))
    joined = f"FROM {left} JOIN {right} ON {left_key} = {right_key}"
    shape = draw(st.sampled_from(["plain", "distinct", "grouped", "cte"]))
    if shape == "plain":
        if draw(st.booleans()):
            items.append(f"{left}.id + {right}.c0 AS id")
        tail, _limited = draw(
            _limit_tail([f"{left}.id", f"{right}.id"], _columns_of(tables[0]) + _columns_of(tables[1]))
        )
        return f"SELECT {', '.join(items)} {joined}{tail}", True
    if shape == "distinct":
        return f"SELECT DISTINCT {', '.join(items)} {joined}", False
    if shape == "grouped":
        return (
            f"SELECT {', '.join(items)}, COUNT(*) AS id {joined} GROUP BY {', '.join(items)}",
            False,
        )
    return (
        f"WITH j AS (SELECT {', '.join(items)} {joined}) "
        f"SELECT j.id, j.id + 1 AS id, j.id AS first_id FROM j",
        False,
    )


@st.composite
def _grouped_query(draw, tables):
    table = tables[0]
    columns = _columns_of(table)
    value_columns = [c for c in columns if not c[0].endswith(".id")]
    keys = draw(
        st.lists(st.sampled_from(value_columns), min_size=1, max_size=2, unique_by=lambda c: c[0])
    )
    items = [f"{column} AS k{i}" for i, (column, _) in enumerate(keys)]
    aggregates = ["COUNT(*) AS n"]
    for position in range(draw(st.integers(min_value=1, max_value=2))):
        function = draw(st.sampled_from(["SUM", "MIN", "MAX", "AVG", "COUNT"]))
        argument, _ = draw(_expr(columns, depth=1, division=False))
        aggregates.append(f"{function}({argument}) AS a{position}")
    sql = (
        f"SELECT {', '.join(items + aggregates)} FROM {table['name']}"
    )
    if draw(st.booleans()):
        sql += f" WHERE {draw(_predicate(columns))}"
    sql += f" GROUP BY {', '.join(column for column, _ in keys)}"
    if draw(st.booleans()):
        sql += f" HAVING COUNT(*) >= {draw(st.integers(min_value=1, max_value=3))}"
    key_aliases = [f"k{i}" for i in range(len(keys))]
    tail, _limited = draw(_limit_tail(key_aliases, []))
    if draw(st.booleans()):
        sql += tail
        return sql, True
    return sql, False


@st.composite
def _cte_query(draw, tables):
    """A 1-2 level CTE chain over t0, optionally joined with t1."""
    base = tables[0]
    base_columns = _columns_of(base)
    int_columns = _columns_of(base, _INT)
    body_items = [f"{base['name']}.id AS id"]
    exported = [("c0.id", _INT)]
    for position, (column, kind) in enumerate(base_columns[1:]):
        body_items.append(f"{column} AS v{position}")
        exported.append((f"c0.v{position}", kind))
    expression, kind = draw(_expr(base_columns, depth=2, division=False))
    body_items.append(f"{expression} AS ex")
    exported.append(("c0.ex", kind))
    body = f"SELECT {', '.join(body_items)} FROM {base['name']}"
    if draw(st.booleans()):
        body += f" WHERE {draw(_predicate(base_columns))}"
    ctes = [f"c0 AS ({body})"]

    chain = draw(st.booleans())
    if chain:
        inner_items = [f"c0.id AS id"] + [
            f"{column} AS w{i}" for i, (column, _kind) in enumerate(exported[1:])
        ]
        inner = f"SELECT {', '.join(inner_items)} FROM c0"
        if draw(st.booleans()):
            inner += f" WHERE {draw(_predicate(exported))}"
        ctes.append(f"c1 AS ({inner})")
        consumer_name = "c1"
        consumer_columns = [("c1.id", _INT)] + [
            (f"c1.w{i}", kind) for i, (_c, kind) in enumerate(exported[1:])
        ]
    else:
        consumer_name = "c0"
        consumer_columns = exported

    join = len(tables) > 1 and draw(st.booleans())
    items = [f"{consumer_name}.id AS id0"]
    unique = ["id0"]
    all_columns = list(consumer_columns)
    from_clause = f"FROM {consumer_name}"
    if join:
        other = tables[1]
        other_ints = _columns_of(other, _INT)
        left_key = draw(st.sampled_from([c for c, k in consumer_columns if k == _INT]))
        right_key, _ = draw(st.sampled_from(other_ints))
        from_clause += f" JOIN {other['name']} ON {left_key} = {right_key}"
        items.append(f"{other['name']}.id AS id1")
        unique.append("id1")
        all_columns += _columns_of(other)
    for position in range(draw(st.integers(min_value=1, max_value=2))):
        expression, _ = draw(_projection_expr(all_columns))
        items.append(f"{expression} AS e{position}")
    sql = f"WITH {', '.join(ctes)} SELECT {', '.join(items)} {from_clause}"
    if draw(st.booleans()):
        sql += f" WHERE {draw(_predicate(all_columns))}"
    tail, _limited = draw(_limit_tail(unique, all_columns))
    if draw(st.booleans()):
        sql += tail
        return sql, True
    return sql, False


# ---------------------------------------------------------------------------
# NULL-heavy query shapes (nullable DOUBLE / TEXT tables)
# ---------------------------------------------------------------------------


def _split_null_columns(table):
    """(numeric columns incl. id, text column names, nullable column names)."""
    name = table["name"]
    numeric = [(f"{name}.id", _INT)] + [
        (f"{name}.{column}", kind)
        for column, kind in table["columns"][1:]
        if kind == _FLOAT
    ]
    texts = [f"{name}.{column}" for column, kind in table["columns"][1:] if kind == _TEXT]
    nullable = [f"{name}.{column}" for column in sorted(table.get("nullable", ()))]
    return numeric, texts, nullable


@st.composite
def _null_predicate(draw, numeric_columns, nullable_columns, text_columns, depth: int = 2):
    """WHERE-safe predicate over NULL-able data: IS [NOT] NULL, text
    comparisons / IN lists (no NULL elements), numeric comparisons.  NOT is
    excluded, so NULL-collapses-to-FALSE matches SQL filter semantics."""
    if depth <= 0 or draw(st.booleans()):
        kind = draw(st.integers(min_value=0, max_value=3))
        if kind == 0 and nullable_columns:
            column = draw(st.sampled_from(nullable_columns))
            negated = "NOT " if draw(st.booleans()) else ""
            return f"{column} IS {negated}NULL"
        if kind == 1 and text_columns:
            column = draw(st.sampled_from(text_columns))
            if draw(st.booleans()):
                operator = draw(st.sampled_from(["=", "!=", "<", "<=", ">", ">="]))
                return f"{column} {operator} {draw(st.sampled_from(_TEXT_VALUES))!r}"
            values = draw(
                st.lists(st.sampled_from(_TEXT_VALUES), min_size=1, max_size=3, unique=True)
            )
            rendered = ", ".join(repr(value) for value in values)
            return f"{column} {'NOT IN' if draw(st.booleans()) else 'IN'} ({rendered})"
        if kind == 2 and len(text_columns) >= 2:
            left, right = draw(st.permutations(text_columns))[:2]
            return f"{left} {draw(st.sampled_from(['=', '!=', '<', '>']))} {right}"
        left, _ = draw(_expr(numeric_columns, depth=1))
        right, _ = draw(_expr(numeric_columns, depth=1))
        operator = draw(st.sampled_from(["<", "<=", ">", ">=", "=", "!="]))
        return f"{left} {operator} {right}"
    connective = draw(st.sampled_from(["AND", "OR"]))
    left = draw(_null_predicate(numeric_columns, nullable_columns, text_columns, depth - 1))
    right = draw(_null_predicate(numeric_columns, nullable_columns, text_columns, depth - 1))
    return f"({left} {connective} {right})"


@st.composite
def _null_simple_query(draw, tables):
    """Projections / filters / order-limit tails over one NULL-heavy table."""
    table = tables[0]
    numeric, texts, nullable = _split_null_columns(table)
    items = [f"{table['name']}.id AS id0"]
    for position in range(draw(st.integers(min_value=1, max_value=3))):
        choice = draw(st.integers(min_value=0, max_value=3))
        if choice == 0 and texts:
            items.append(f"{draw(st.sampled_from(texts))} AS e{position}")
        elif choice == 1 and texts:
            # || propagates NULL in both engines.
            suffix = draw(st.sampled_from(["!", "x", ""]))
            items.append(f"({draw(st.sampled_from(texts))} || {suffix!r}) AS e{position}")
        else:
            expression, _ = draw(_projection_expr(numeric))
            items.append(f"{expression} AS e{position}")
    sql = f"SELECT {', '.join(items)} FROM {table['name']}"
    if draw(st.booleans()):
        sql += f" WHERE {draw(_null_predicate(numeric, nullable, texts))}"
    tail, _limited = draw(_limit_tail(["id0"], [(column, _TEXT) for column in texts]))
    if draw(st.booleans()):
        sql += tail
        return sql, True
    return sql, False


@st.composite
def _null_text_join_query(draw, tables):
    """Equality join on nullable TEXT keys (NULL keys never match)."""
    left, right = tables[0], tables[1]
    left_numeric, left_texts, left_nullable = _split_null_columns(left)
    right_numeric, right_texts, right_nullable = _split_null_columns(right)
    left_key = draw(st.sampled_from(left_texts))
    right_key = draw(st.sampled_from(right_texts))
    numeric = left_numeric + right_numeric
    texts = left_texts + right_texts
    nullable = left_nullable + right_nullable
    items = [f"{left['name']}.id AS id0", f"{right['name']}.id AS id1"]
    for position in range(draw(st.integers(min_value=1, max_value=2))):
        if texts and draw(st.booleans()):
            items.append(f"{draw(st.sampled_from(texts))} AS e{position}")
        else:
            expression, _ = draw(_projection_expr(numeric))
            items.append(f"{expression} AS e{position}")
    sql = (
        f"SELECT {', '.join(items)} FROM {left['name']} "
        f"JOIN {right['name']} ON {left_key} = {right_key}"
    )
    if draw(st.booleans()):
        sql += f" WHERE {draw(_null_predicate(numeric, nullable, texts))}"
    tail, _limited = draw(_limit_tail(["id0", "id1"], [(column, _TEXT) for column in texts]))
    if draw(st.booleans()):
        sql += tail
        return sql, True
    return sql, False


@st.composite
def _null_grouped_query(draw, tables):
    """GROUP BY over nullable text/float keys (multi-key included) with
    NULL-skipping aggregates and text MIN/MAX."""
    table = tables[0]
    numeric, texts, nullable = _split_null_columns(table)
    value_columns = [
        (f"{table['name']}.{column}", kind) for column, kind in table["columns"][1:]
    ]
    keys = draw(
        st.lists(
            st.sampled_from(value_columns), min_size=1, max_size=2, unique_by=lambda c: c[0]
        )
    )
    items = [f"{column} AS k{i}" for i, (column, _kind) in enumerate(keys)]
    aggregates = ["COUNT(*) AS n"]
    for position in range(draw(st.integers(min_value=1, max_value=2))):
        target, target_kind = draw(st.sampled_from(value_columns))
        if target_kind == _TEXT:
            function = draw(st.sampled_from(["COUNT", "MIN", "MAX"]))
        else:
            function = draw(st.sampled_from(["COUNT", "SUM", "MIN", "MAX", "AVG"]))
        aggregates.append(f"{function}({target}) AS a{position}")
    sql = f"SELECT {', '.join(items + aggregates)} FROM {table['name']}"
    if draw(st.booleans()):
        sql += f" WHERE {draw(_null_predicate(numeric, nullable, texts))}"
    sql += f" GROUP BY {', '.join(column for column, _kind in keys)}"
    if draw(st.booleans()):
        sql += f" HAVING COUNT(*) >= {draw(st.integers(min_value=1, max_value=3))}"
    key_aliases = [f"k{i}" for i in range(len(keys))]
    tail, _limited = draw(_limit_tail(key_aliases, []))
    if draw(st.booleans()):
        sql += tail
        return sql, True
    return sql, False


#: NULL-heavy shapes: shape -> (table count, strategy).
_NULL_SHAPES = {
    "simple": (1, _null_simple_query),
    "join": (2, _null_text_join_query),
    "grouped": (1, _null_grouped_query),
}


# ---------------------------------------------------------------------------
# Bitwise-operator query shapes (nullable DOUBLE operands, literal subtrees)
# ---------------------------------------------------------------------------


@st.composite
def _bitwise_query(draw, tables):
    """``& | << >> ~`` over a NULL-heavy table, four ways.

    Projections and filters over the nullable DOUBLE columns (NULL in ->
    NULL out; a NULL comparison filters the row in both engines), GROUP BY
    on a bitwise key (all NULL keys form one group), and literal-only
    subtrees with and without a FROM clause — the scalar-preserving
    evaluator must broadcast those to the same rows either way.
    """
    table = tables[0]
    name = table["name"]
    numeric, _texts, _nullable = _split_null_columns(table)
    shape = draw(st.integers(min_value=0, max_value=3))
    if shape <= 1:
        # Literal-only: the first item always has a bitwise root.
        items = [f"{draw(_bitwise_node([], 2, False))[0]} AS e0"]
        for position in range(1, draw(st.integers(min_value=1, max_value=3))):
            expression, _ = draw(_expr([], depth=2, bitwise=True))
            items.append(f"{expression} AS e{position}")
        if shape == 0:
            return f"SELECT {', '.join(items)}", False
        return f"SELECT {name}.id AS id0, {', '.join(items)} FROM {name}", False
    if shape == 2:
        key, _ = draw(_bitwise_node(numeric, 2, False))
        sql = (
            f"SELECT {key} AS k0, COUNT(*) AS n, SUM({name}.id) AS a0 "
            f"FROM {name} GROUP BY {key}"
        )
        tail, _limited = draw(_limit_tail(["k0"], []))
        if draw(st.booleans()):
            return sql + tail, True
        return sql, False
    items = [f"{name}.id AS id0", f"{draw(_bitwise_node(numeric, 2, True))[0]} AS e0"]
    for position in range(1, draw(st.integers(min_value=1, max_value=3))):
        expression, _ = draw(_expr(numeric, depth=2, division=True, bitwise=True))
        items.append(f"{expression} AS e{position}")
    sql = f"SELECT {', '.join(items)} FROM {name}"
    if draw(st.booleans()):
        left, _ = draw(_bitwise_node(numeric, 1, False))
        right, _ = draw(_expr(numeric, depth=1, bitwise=True))
        sql += f" WHERE {left} {draw(st.sampled_from(['<', '<=', '>', '>=', '=', '!=']))} {right}"
    tail, _limited = draw(_limit_tail(["id0"], []))
    if draw(st.booleans()):
        return sql + tail, True
    return sql, False


# ---------------------------------------------------------------------------
# Join-aggregate query shapes (the paper's gate step, generalized)
# ---------------------------------------------------------------------------


@st.composite
def _gate_tables(draw):
    """A state-like probe table ``t0`` and a small gate-like build table ``t1``.

    ``t0.s`` is a NOT NULL BIGINT basis index (negative values included);
    ``t0.f`` a nullable DOUBLE that can stand in for it, so a join key can be
    NULL; the amplitudes ``r`` / ``i`` are nullable on both sides.  ``t1.k``
    covers a few small integers with repeats and gaps — the dense build side
    the engine joins by direct addressing — until the mid-test shift appends
    keys far outside that span.
    """
    def amplitude():
        if draw(st.integers(min_value=0, max_value=4)) == 0:
            return None
        return draw(st.integers(min_value=-8, max_value=8)) / 4.0

    state_rows = []
    for row_id in range(draw(st.integers(min_value=0, max_value=16))):
        index = draw(st.integers(min_value=-4, max_value=40))
        shadow = None if draw(st.integers(min_value=0, max_value=3)) == 0 else float(index)
        state_rows.append([row_id, index, shadow, amplitude(), amplitude()])
    gate_rows = [
        [
            row_id,
            draw(st.integers(min_value=0, max_value=3)),
            draw(st.integers(min_value=0, max_value=3)),
            amplitude(),
            amplitude(),
        ]
        for row_id in range(draw(st.integers(min_value=0, max_value=8)))
    ]
    return [
        {
            "name": "t0",
            "columns": [("id", _INT), ("s", _INT), ("f", _FLOAT), ("r", _FLOAT), ("i", _FLOAT)],
            "rows": state_rows,
            "nullable": {"f", "r", "i"},
        },
        {
            "name": "t1",
            "columns": [("id", _INT), ("k", _INT), ("o", _INT), ("r", _FLOAT), ("i", _FLOAT)],
            "rows": gate_rows,
            "nullable": {"r", "i"},
        },
    ]


@st.composite
def _join_aggregate_query(draw, tables):
    """``SELECT key, SUM(..), SUM(..) FROM t0 JOIN t1 ON t1.k = bits(t0) GROUP BY key``.

    The join key is a bit field of the state index (or of its nullable
    DOUBLE shadow: NULL keys match nothing, and the key column is no longer
    integer); the group key combines a one-sided expression per join side
    under ``| & + *``; the SUM arguments are products that mix the sides,
    read one side only, or re-read a column the key reads.  Every bitwise
    operator is parenthesized: the engines bind ``& | << >>`` differently.
    """
    state, gate = tables[0]["name"], tables[1]["name"]
    shift = draw(st.integers(min_value=0, max_value=3))
    mask = draw(st.sampled_from([1, 3]))
    index = f"{state}.{draw(st.sampled_from(['s', 's', 'f']))}"
    field = f"({index} & {mask})" if shift == 0 else f"(({index} >> {shift}) & {mask})"
    kept = f"({state}.s & ~{mask << shift})"
    deposit = f"{gate}.o" if shift == 0 else f"({gate}.o << {shift})"
    key = f"({kept} {draw(st.sampled_from(['|', '|', '&', '+', '*']))} {deposit})"
    if draw(st.integers(min_value=0, max_value=5)) == 0:
        key = draw(st.sampled_from([kept, deposit, "(1 | 2)"]))
    arguments = draw(
        st.lists(
            st.sampled_from(
                [
                    f"({state}.r * {gate}.r) - ({state}.i * {gate}.i)",
                    f"({state}.r * {gate}.i) + ({state}.i * {gate}.r)",
                    f"({state}.s * {gate}.r)",
                    f"(({state}.s & 1) + {gate}.o)",
                    f"({state}.r + {state}.i)",
                    f"{gate}.i",
                ]
            ),
            min_size=1,
            max_size=3,
        )
    )
    items = [f"{key} AS k0"] + [f"SUM({argument}) AS a{n}" for n, argument in enumerate(arguments)]
    if draw(st.booleans()):
        items.append("COUNT(*) AS n")
    sql = (
        f"SELECT {', '.join(items)} FROM {state} JOIN {gate} ON {gate}.k = {field} "
        f"GROUP BY {key}"
    )
    if draw(st.booleans()):
        tail, _limited = draw(_limit_tail(["k0"], []))
        return sql + tail, True
    return sql, False


# ---------------------------------------------------------------------------
# Differential harness
# ---------------------------------------------------------------------------


def _normalize(value):
    if value is None:
        return None
    if isinstance(value, bool):
        return round(float(value), 7)
    if isinstance(value, (int, float)):
        number = float(value)
        if number != number:  # NaN encodes NULL in memdb
            return None
        return round(number, 7)
    return value


def _normalize_rows(rows):
    return [tuple(_normalize(value) for value in row) for row in rows]


def _sort_key(row):
    return tuple((value is None, value if value is not None else 0.0) for value in row)


def _run_sqlite(connection, sql: str):
    return connection.execute(sql).fetchall()


def _run_duckdb(statements, queries):
    import duckdb

    connection = duckdb.connect()
    for statement in statements:
        connection.execute(statement)
    return [connection.execute(query).fetchall() for query in queries]


def _assert_rows_match(expected, actual, ordered: bool, label: str, sql: str) -> None:
    expected = _normalize_rows(expected)
    actual = _normalize_rows(actual)
    if not ordered:
        expected = sorted(expected, key=_sort_key)
        actual = sorted(actual, key=_sort_key)
    assert actual == expected, f"{label} diverged on:\n{sql}\nexpected {expected}\nactual   {actual}"


def _shift_statements(tables, draw_rows):
    """Extra INSERTs that change every table's distribution mid-test."""
    statements = []
    for table in tables:
        start = len(table["rows"])
        values = []
        for offset, extra in enumerate(draw_rows):
            row = [start + offset]
            for _name, kind in table["columns"][1:]:
                if kind == _INT:
                    row.append(int(extra))
                elif kind == _FLOAT:
                    row.append(extra / 2.0)
                else:
                    # Deterministic text/NULL from the drawn integer: grows
                    # the dictionary (and the NULL population) mid-test.
                    row.append(
                        None if extra % 5 == 0 else _TEXT_VALUES[int(extra) % len(_TEXT_VALUES)]
                    )
            values.append("(" + ", ".join(_sql_literal(v) for v in row) + ")")
        if values:
            names = ", ".join(name for name, _ in table["columns"])
            statements.append(f"INSERT INTO {table['name']} ({names}) VALUES {', '.join(values)}")
    return statements


def _differential_check(tables, query, shift_rows) -> None:
    sql, ordered = query
    setup = [statement for table in tables for statement in _ddl(table)]

    sqlite_connection = sqlite3.connect(":memory:")
    for statement in setup:
        sqlite_connection.execute(statement)

    engines = [("memdb", MemDatabase(plan_cache=PlanCache(maxsize=32)))]
    for _label, engine in engines:
        for statement in setup:
            engine.execute(statement)

    expected = _run_sqlite(sqlite_connection, sql)
    for label, engine in engines:
        _assert_rows_match(expected, engine.execute(sql).rows, ordered, label, sql)
        # Second execution re-binds the cached plan: must be byte-identical
        # to the cold run.
        _assert_rows_match(expected, engine.execute(sql).rows, ordered, label + "[warm]", sql)

    if duckdb_available():
        (duck_rows,) = _run_duckdb(setup, [sql])
        _assert_rows_match(expected, duck_rows, ordered, "duckdb", sql)

    if shift_rows:
        shift = _shift_statements(tables, shift_rows)
        for statement in shift:
            sqlite_connection.execute(statement)
            for _label, engine in engines:
                engine.execute(statement)
        expected = _run_sqlite(sqlite_connection, sql)
        for label, engine in engines:
            _assert_rows_match(expected, engine.execute(sql).rows, ordered, label + "[shift]", sql)
            _assert_rows_match(expected, engine.execute(sql).rows, ordered, label + "[shift+warm]", sql)

    sqlite_connection.close()


_shift_strategy = st.lists(st.integers(min_value=-30, max_value=30), min_size=0, max_size=12)


# ---------------------------------------------------------------------------
# Bounded tier-1 profile (>= 200 generated queries per run)
# ---------------------------------------------------------------------------


@given(data=st.data())
@_FAST
def test_fuzz_single_table_matches_sqlite(data):
    tables = data.draw(_tables(count=1))
    query = data.draw(_simple_query(tables))
    _differential_check(tables, query, data.draw(_shift_strategy))


@given(data=st.data())
@_FAST
def test_fuzz_joins_match_sqlite(data):
    tables = data.draw(_tables(count=2))
    query = data.draw(_join_query(tables))
    _differential_check(tables, query, data.draw(_shift_strategy))


@given(data=st.data())
@_FAST
def test_fuzz_same_named_columns_match_sqlite(data):
    """Two result columns may share a name; they are still two columns."""
    tables = data.draw(_tables(count=2))
    query = data.draw(_same_name_join_query(tables))
    _differential_check(tables, query, data.draw(_shift_strategy))


@given(data=st.data())
@_FAST
def test_fuzz_group_by_matches_sqlite(data):
    tables = data.draw(_tables(count=1))
    query = data.draw(_grouped_query(tables))
    _differential_check(tables, query, data.draw(_shift_strategy))


@given(data=st.data())
@_FAST
def test_fuzz_cte_chains_match_sqlite(data):
    tables = data.draw(_tables(count=2))
    query = data.draw(_cte_query(tables))
    _differential_check(tables, query, data.draw(_shift_strategy))


def test_fuzz_oracle_catches_gate_join_mutation(monkeypatch):
    """Mutation test: a gate-step join that drops one match must trip the oracle.

    The hand-written gate step passes the differential check as written;
    with the fused operator's join kernel dropping its last match pair the
    same check must report a divergence — evidence the harness guards the
    paper's kernel rather than vacuously passing.
    """
    import numpy as np

    from repro.backends.memdb import planner

    tables = [
        {
            "name": "t0",
            "columns": [("id", _INT), ("s", _INT), ("f", _FLOAT), ("r", _FLOAT), ("i", _FLOAT)],
            "rows": [[0, 0, 0.0, 0.5, 0.0], [1, 1, 1.0, 0.25, 0.5], [2, 2, 2.0, -0.5, 0.25]],
        },
        {
            "name": "t1",
            "columns": [("id", _INT), ("k", _INT), ("o", _INT), ("r", _FLOAT), ("i", _FLOAT)],
            "rows": [
                [0, 0, 0, 0.5, 0.0], [1, 0, 1, 0.5, 0.0], [2, 1, 0, 0.5, 0.0], [3, 1, 1, -0.5, 0.0]
            ],
        },
    ]
    key = "((t0.s & ~1) | t1.o)"
    query = (
        f"SELECT {key} AS k0, SUM((t0.r * t1.r) - (t0.i * t1.i)) AS a0, "
        f"SUM((t0.r * t1.i) + (t0.i * t1.r)) AS a1 "
        f"FROM t0 JOIN t1 ON t1.k = (t0.s & 1) GROUP BY {key}",
        False,
    )
    _differential_check(tables, query, [])

    original = planner.join_indices
    calls = []

    def drop_last_match(left_keys, right_keys):
        calls.append(len(left_keys))
        left_idx, right_idx = original(left_keys, right_keys)
        if isinstance(left_idx, slice):
            left_idx = np.arange(len(left_keys))[left_idx]
        return left_idx[:-1], right_idx[:-1]

    monkeypatch.setattr(planner, "join_indices", drop_last_match)
    with pytest.raises(AssertionError, match="diverged"):
        _differential_check(tables, query, [])
    assert calls, "the fused gate-step operator never ran"


def test_fuzz_oracle_catches_null_counting_mutation(monkeypatch):
    """Mutation test: aggregates that stop skipping NULLs must trip the oracle.

    With the executor's NULL mask reporting no NULLs, the generic grouped
    SUM / COUNT fold NULL inputs in; a group mixing NULLs and values then
    diverges from SQLite.  The unmutated check passes on the same table.
    """
    import numpy as np

    from repro.backends.memdb import executor

    tables = [
        {
            "name": "t0",
            "columns": [("id", _INT), ("c0", _INT), ("f0", _FLOAT)],
            "rows": [[0, 1, 1.5], [1, 1, None], [2, 2, None], [3, 2, 2.0], [4, 3, -0.5]],
            "nullable": {"f0"},
        }
    ]
    query = (
        "SELECT t0.c0 AS k0, SUM(t0.f0) AS a0, COUNT(t0.f0) AS n FROM t0 GROUP BY t0.c0",
        False,
    )
    _differential_check(tables, query, [])

    monkeypatch.setattr(executor, "null_mask", lambda values: np.zeros(len(values), dtype=bool))
    with pytest.raises(AssertionError, match="diverged"):
        _differential_check(tables, query, [])


def test_fuzz_oracle_catches_unary_folding_mutation(monkeypatch):
    """Mutation test: folding ``~1`` as ``-1`` must trip the oracle.

    Unary-literal folding is one of memdb's two rewrites; the translator's
    ``s & ~mask`` runs through it at every gate step.
    """
    from repro.backends.memdb.ast_nodes import Literal, UnaryOp
    from repro.backends.memdb.optimizer import rewrite

    tables = [
        {
            "name": "t0",
            "columns": [("id", _INT), ("c0", _INT)],
            "rows": [[0, 0], [1, 1], [2, 2], [3, 3], [4, 6]],
        }
    ]
    query = ("SELECT t0.id AS k0, (t0.c0 & ~1) AS e0 FROM t0 ORDER BY t0.id", True)
    _differential_check(tables, query, [])

    fold = rewrite._fold_node

    def fold_not_as_negation(expression, counter):
        if (
            isinstance(expression, UnaryOp)
            and expression.operator == "~"
            and isinstance(expression.operand, Literal)
        ):
            return fold(UnaryOp("-", expression.operand), counter)
        return fold(expression, counter)

    monkeypatch.setattr(rewrite, "_fold_node", fold_not_as_negation)
    with pytest.raises(AssertionError, match="diverged"):
        _differential_check(tables, query, [])


def test_fuzz_oracle_catches_cte_inlining_mutation(monkeypatch):
    """Mutation test: inlining a CTE without its WHERE must trip the oracle.

    Single-use CTE inlining is memdb's other rewrite; the mutant splices
    the body into its consumer but keeps only the consumer's WHERE.
    """
    from repro.backends.memdb.optimizer import rewrite

    tables = [
        {
            "name": "t0",
            "columns": [("id", _INT), ("c0", _INT)],
            "rows": [[0, 5], [1, -2], [2, 7], [3, 0]],
        }
    ]
    sql = "WITH c AS (SELECT t0.id AS id FROM t0 WHERE t0.c0 > 0) SELECT c.id AS k0 FROM c ORDER BY c.id"
    _statement, log = rewrite.rewrite_statement(parse_one(sql))
    assert log.ctes_inlined == 1
    _differential_check(tables, (sql, True), [])

    monkeypatch.setattr(rewrite, "_conjoin", lambda consumer_where, body_where: consumer_where)
    with pytest.raises(AssertionError, match="diverged"):
        _differential_check(tables, (sql, True), [])


@given(data=st.data())
@_FAST
def test_fuzz_nulls_single_table_matches_sqlite(data):
    """NULL-heavy projections/filters: IS [NOT] NULL, text compares, ||."""
    tables = data.draw(_null_tables(count=1))
    query = data.draw(_null_simple_query(tables))
    _differential_check(tables, query, data.draw(_shift_strategy))


@given(data=st.data())
@_FAST
def test_fuzz_null_text_joins_match_sqlite(data):
    """Equality joins on nullable TEXT keys: NULL keys never match."""
    tables = data.draw(_null_tables(count=2))
    query = data.draw(_null_text_join_query(tables))
    _differential_check(tables, query, data.draw(_shift_strategy))


@given(data=st.data())
@_FAST
def test_fuzz_null_group_by_matches_sqlite(data):
    """GROUP BY nullable text/float keys; NULL-skipping and text MIN/MAX."""
    tables = data.draw(_null_tables(count=1))
    query = data.draw(_null_grouped_query(tables))
    _differential_check(tables, query, data.draw(_shift_strategy))


@given(data=st.data())
@_FAST
def test_fuzz_bitwise_expressions_match_sqlite(data):
    """``& | << >> ~`` over nullable operands and literal-only subtrees.

    Unary literals are folded before planning, the rest are the evaluator's
    scalar subtrees; both against SQLite.
    """
    tables = data.draw(_null_tables(count=1))
    query = data.draw(_bitwise_query(tables))
    _differential_check(tables, query, data.draw(_shift_strategy))


@given(data=st.data())
@_FAST
def test_fuzz_join_aggregate_matches_sqlite(data):
    """The gate-step shape over NULL-bearing data and keys that match nothing.

    This is the block the planner fuses: engines against SQLite
    (direct-address join before the data shift, sort join after it, the
    code-space join whenever the key column is the nullable DOUBLE).
    """
    tables = data.draw(_gate_tables())
    query = data.draw(_join_aggregate_query(tables))
    _differential_check(tables, query, data.draw(_shift_strategy))


# ---------------------------------------------------------------------------
# Deep profile (-m slow)
# ---------------------------------------------------------------------------


@pytest.mark.slow
@pytest.mark.parametrize(
    "shape", ["simple", "join", "grouped", "cte"], ids=["simple", "join", "grouped", "cte"]
)
def test_fuzz_deep_profile(shape):
    strategies = {
        "simple": (1, _simple_query),
        "join": (2, _join_query),
        "grouped": (1, _grouped_query),
        "cte": (2, _cte_query),
    }
    count, shape_strategy = strategies[shape]

    @given(data=st.data())
    @_DEEP
    def run(data):
        tables = data.draw(_tables(count=count))
        query = data.draw(shape_strategy(tables))
        _differential_check(tables, query, data.draw(_shift_strategy))

    run()


@pytest.mark.slow
def test_fuzz_deep_join_aggregate_profile():
    @given(data=st.data())
    @_DEEP
    def run(data):
        tables = data.draw(_gate_tables())
        query = data.draw(_join_aggregate_query(tables))
        _differential_check(tables, query, data.draw(_shift_strategy))

    run()


@pytest.mark.slow
@pytest.mark.parametrize("shape", sorted(_NULL_SHAPES), ids=sorted(_NULL_SHAPES))
def test_fuzz_deep_null_profile(shape):
    count, shape_strategy = _NULL_SHAPES[shape]

    @given(data=st.data())
    @_DEEP
    def run(data):
        tables = data.draw(_null_tables(count=count))
        query = data.draw(shape_strategy(tables))
        _differential_check(tables, query, data.draw(_shift_strategy))

    run()

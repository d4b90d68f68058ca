"""The cold-compile front end: lexer properties, operator binding, errors, work done once."""

from __future__ import annotations

import dataclasses
import sqlite3

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.backends.memdb import MemDatabase, PlanCache, parse_one, parse_sql, tokenize
from repro.backends.memdb import ast_nodes, executor
from repro.backends.memdb.ast_nodes import BinaryOp, Expression, Literal
from repro.backends.memdb.optimizer.rewrite import fold_select
from repro.backends.memdb.tokenizer import END, IDENTIFIER, KEYWORD, STRING
from repro.circuits import ghz_circuit
from repro.errors import SQLExecutionError, SQLParseError
from repro.sql.translator import SQLTranslator

# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_SQL_ALPHABET = st.sampled_from(
    list("abcxyzSELECTfromE_ 0123456789.'\"`-+*/%&|~<>=!(),;\n\t#é²")
)


def _source_of(sql: str, kind: str, text: str, position: int) -> str:
    """The token's normalized text, recovered from the source at its position."""
    if kind == STRING:
        assert sql[position] == "'"
        end = position + 1
        while not (sql[end] == "'" and sql[end + 1 : end + 2] != "'"):
            end += 2 if sql[end] == "'" else 1
        return sql[position + 1 : end].replace("''", "'")
    if kind == IDENTIFIER and sql[position] in '"`':
        return sql[position + 1 : position + 1 + len(text)]
    source = sql[position : position + len(text)]
    return source.lower() if kind == KEYWORD else source


@given(st.one_of(st.text(), st.text(_SQL_ALPHABET, max_size=40)))
@settings(max_examples=400, deadline=None)
def test_tokenize_raises_only_parse_errors_and_positions_slice_back(sql):
    try:
        tokens = tokenize(sql)
    except SQLParseError:
        return
    assert tokens[-1] == (END, "", len(sql))
    positions = [token.position for token in tokens]
    assert all(a < b for a, b in zip(positions, positions[1:]))
    for kind, text, position in tokens[:-1]:
        assert _source_of(sql, kind, text, position) == text


@pytest.mark.parametrize(
    "sql, offset",
    [("SELECT 1e", 7), ("SELECT 1e+", 7), ("SELECT 0x10", 7), ("SELECT 12abc", 7), ("SELECT 1.5e3x", 7)],
)
def test_malformed_numbers_are_parse_errors_naming_the_offset(sql, offset):
    with pytest.raises(SQLParseError, match=f"malformed number at offset {offset}"):
        parse_sql(sql)


def test_well_formed_numbers_still_lex():
    numbers = [t.text for t in tokenize("SELECT 1., .5, 1.e5, 2.5E+4, 1e-3, 7") if t.kind == "number"]
    assert numbers == ["1.", ".5", "1.e5", "2.5E+4", "1e-3", "7"]


@pytest.mark.parametrize(
    "sql, message",
    [
        ("SELECT 'a' 'b'", "unexpected token 'b' at offset 11"),
        ("SELECT 1 LIKE 1", "unexpected token 'like' at offset 9"),
        ("SELECT 1 SELECT 2", "unexpected token 'select' at offset 9"),
        ("DROP TABLE t u", "unexpected token 'u' at offset 13"),
    ],
)
def test_tokens_left_after_a_statement_are_reported_where_they_are(sql, message):
    with pytest.raises(SQLParseError, match=message):
        parse_sql(sql)


# ---------------------------------------------------------------------------
# || binds tighter than * (SQLite); arithmetic over text never leaks numpy
# ---------------------------------------------------------------------------


def test_concat_binds_tighter_than_multiplication():
    expression = parse_one("SELECT 2 * 3 || 4").items[0].expression
    assert expression == BinaryOp("*", Literal(2), BinaryOp("||", Literal(3), Literal(4)))


_CONCAT_EXPRESSIONS = [
    "2 * 3 || 4", "1 || 2 + 3", "1 + 2 || 3", "(2 * 3) || 4", "2 || 3 * 4", "1 || 2 || 3",
    "-1 || 2", "~1 || 2", "- 1 || - 2", "1 || NULL", "NULL || 'x'", "'a' || 1.5", "1.5 || 'a'",
    "'a' || 'b' = 'ab'", "'ab' = 'a' || 'b'", "NOT 'a' || 'b' = 'ab'", "'a' || 'b' IS NULL",
    "1 || 2 & 3", "1 << 2 || 3", "a || b", "a * 2 || b", "(a * 2) || b", "a || b || c",
    "b || a + 1", "a + 1 || b", "(a + 1) || b", "b || b", "a || a * a", "-a || b",
    "CASE WHEN b || 'x' = 'xx' THEN 1 ELSE 0 END", "a || a IN ('11', '33')",
]


def test_concat_expressions_match_sqlite_wherever_memdb_defines_them():
    setup = [
        "CREATE TABLE t (a BIGINT, b TEXT, c DOUBLE)",
        "INSERT INTO t VALUES (1, 'x', 1.5), (2, '12', 2.5), (3, NULL, NULL)",
    ]
    db = MemDatabase(plan_cache=PlanCache(0))
    connection = sqlite3.connect(":memory:")
    for statement in setup:
        db.execute(statement)
        connection.execute(statement)
    compared = 0
    for expression in _CONCAT_EXPRESSIONS:
        sql = f"SELECT {expression} FROM t ORDER BY a"
        try:
            rows = db.execute(sql).rows
        except SQLExecutionError as error:
            # SQLite coerces text to numbers; memdb declines, and says so.
            assert "is not defined on text operands" in str(error), sql
            continue
        expected = connection.execute(sql).fetchall()
        assert [tuple(int(v) if isinstance(v, bool) else v for v in row) for row in rows] == expected, sql
        compared += 1
    connection.close()
    assert compared >= 18


@pytest.mark.parametrize(
    "expression", ["2 * 3 || 4", "1 || 2 + 3", "'a' + 1", "b * 2", "-b", "b & 1", "7 % b", "'x' / 2"]
)
def test_arithmetic_over_text_is_an_execution_error_not_a_numpy_one(expression):
    db = MemDatabase(plan_cache=PlanCache(0))
    db.execute("CREATE TABLE t (a BIGINT, b TEXT)")
    db.execute("INSERT INTO t VALUES (1, 'x'), (2, NULL)")
    with pytest.raises(SQLExecutionError, match="is not defined on text operands"):
        db.execute(f"SELECT {expression} FROM t")


# ---------------------------------------------------------------------------
# Work is done once
# ---------------------------------------------------------------------------


class _WalkCounter:
    """Counts ``children()`` calls per node and fact derivations overall."""

    def __init__(self, monkeypatch):
        self.visits: dict[int, list] = {}  # id -> [node (pinned), count]
        self.facts = 0
        classes = [Expression] + [
            cls for cls in vars(ast_nodes).values()
            if isinstance(cls, type) and issubclass(cls, Expression) and "children" in vars(cls)
        ]
        for cls in dict.fromkeys(classes):
            monkeypatch.setattr(cls, "children", self._counting(cls.children))
        derive = ast_nodes._Composite.__getattr__

        def counted(node, name):
            self.facts += 1
            return derive(node, name)

        monkeypatch.setattr(ast_nodes._Composite, "__getattr__", counted)

    def _counting(self, children):
        def counted(node):
            self.visits.setdefault(id(node), [node, 0])[1] += 1
            return children(node)

        return counted

    @property
    def calls(self) -> int:
        return sum(count for _, count in self.visits.values())

    def reset(self) -> None:
        self.visits.clear()
        self.facts = 0


def _gate_chain(blocks: int) -> tuple[MemDatabase, str]:
    translation = SQLTranslator().translate(ghz_circuit(blocks))
    db = MemDatabase(plan_cache=PlanCache(8))
    for table in translation.tables():
        db.load_table(table.name, table.columns)
    return db, translation.cte_query(pretty=False)


def test_cold_prepare_visits_each_node_a_bounded_number_of_times(monkeypatch):
    counter = _WalkCounter(monkeypatch)
    totals = {}
    for blocks in (30, 60):
        db, query = _gate_chain(blocks)
        counter.reset()
        assert db.prepare(query) == "prepared"
        # has_aggregate, column_refs, and the constant-folding pass.
        assert max(count for _, count in counter.visits.values()) <= 4
        totals[blocks] = counter.calls
    assert totals[60] <= 2.1 * totals[30]


def test_warm_execution_of_a_cached_plan_walks_no_ast(monkeypatch):
    db, query = _gate_chain(30)
    cold = db.execute(query).rows
    counter = _WalkCounter(monkeypatch)
    # A frame key is spelled when its node is built, a literal is wrapped on
    # its first evaluation: a warm run must do neither.
    monkeypatch.setattr(
        ast_nodes.ColumnRef, "__post_init__", lambda self: pytest.fail("a column node was built")
    )
    wrapped = executor._scalar_array.cache_info().misses
    assert db.execute(query).rows == cold
    assert db.plan_cache.stats()["hits"] >= 1
    assert counter.calls == 0 and counter.facts == 0
    assert executor._scalar_array.cache_info().misses == wrapped


def test_folding_a_folded_select_returns_the_same_object():
    select = parse_one(
        "SELECT ((T0.s & ~1) | H.out_s) AS s, SUM(T0.r * H.r) AS r FROM T0 "
        "JOIN H ON H.in_s = (T0.s & (3 - 2)) WHERE T0.s < 1 << 4 GROUP BY ((T0.s & ~1) | H.out_s)"
    )
    folded, folds = fold_select(select)
    assert folds == 2 and folded is not select  # the two ~1; binary operators stay
    assert folded.items[1] is select.items[1], "an unchanged slot keeps its node"
    again, more = fold_select(folded)
    assert more == 0 and again is folded


def test_a_frame_key_stays_out_of_repr_equality_and_hash():
    column, twin = ast_nodes.ColumnRef("s", "T0"), ast_nodes.ColumnRef("s", "T0")
    assert column.key() == column.frame_key == "T0.s" and column.key() is twin.key(), "interned"
    assert ast_nodes.ColumnRef("s").key() == "s"
    assert column == twin and hash(column) == hash(twin)
    assert repr(column) == "ColumnRef(name='s', table='T0')"
    moved = dataclasses.replace(column, table="T1")
    assert moved.key() == "T1.s" and column.key() == "T0.s"


# ---------------------------------------------------------------------------
# What a cached plan keeps alive
# ---------------------------------------------------------------------------

#: 32 cached scripts of 18 gate steps each retained 149 017 bytes per script at
#: 718a2df (CPython 3.11): token-free AST, optimizer report, compiled blocks.
#: This change may keep, per script, a frame-key slot on each column node,
#: the fused blocks' part tuples and one rebuilt operator per block (156.4 KB
#: measured) — not a compiled object per expression node, which is what a
#: closure tree cost: 84.8 -> 133.7 MB peak RSS on a full 256-entry plan tier.
_PARENT_BYTES_PER_PLAN = 149_017


def test_bytes_retained_per_cached_plan_stay_within_a_tenth_of_the_parent(monkeypatch):
    import gc
    import tracemalloc

    from repro.backends import MemDBBackend
    from repro.circuits import random_sparse_circuit
    from repro.obs.tracing import TRACE_ENV_VAR

    # The tracer's ring buffer keeps span trees; this weighs the plan cache.
    monkeypatch.delenv(TRACE_ENV_VAR, raising=False)
    plans = 32
    cache = PlanCache(256)
    backend = MemDBBackend(plan_cache=cache)
    circuits = [
        random_sparse_circuit(8, 2, max_branching=2, seed=1000 + k) for k in range(plans + 4)
    ]
    assert {circuit.size() for circuit in circuits} == {18}
    for circuit in circuits[:4]:  # shared spellings (``T7.s``, small literals) exist
        backend.run(circuit)
    gc.collect()
    tracemalloc.start()
    try:
        before, _peak = tracemalloc.get_traced_memory()
        for circuit in circuits[4:]:
            backend.run(circuit)
        gc.collect()
        after, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cache.stats()["planned"] == plans + 4 and cache.stats()["evictions"] == 0
    assert (after - before) / plans < 1.10 * _PARENT_BYTES_PER_PLAN


def test_plans_share_frame_keys_and_literal_arrays():
    first = parse_one("SELECT (T3.s >> 2) & 1 FROM T3").items[0].expression
    second = parse_one("SELECT (T3.s >> 2) & 1 FROM T3").items[0].expression
    assert first.left.left is not second.left.left
    assert first.left.left.key() is second.left.left.key()
    evaluate = executor.ExpressionEvaluator({}, 1)._eval
    two = evaluate(first.left.right)
    assert two is evaluate(second.left.right) and two == 2 and two.ndim == 0
    assert not two.flags.writeable
    # One array per value *and type*: 1, 1.0 and True are equal and hash alike.
    assert evaluate(Literal(1)).dtype == np.int64 and evaluate(Literal(1.0)).dtype == np.float64
    # ... and per sign of zero, whichever the process met first.
    zeros = [evaluate(Literal(value)) for value in (0.0, -0.0, 0, 0.0, -0.0)]
    assert [str(zero) for zero in zeros] == ["0.0", "-0.0", "0", "0.0", "-0.0"]
    assert np.isnan(evaluate(Literal(None)))


def test_a_negative_zero_literal_keeps_its_sign_after_a_zero():
    db = MemDatabase()
    db.execute("CREATE TABLE t (x DOUBLE)")
    db.execute("INSERT INTO t VALUES (1.0)")
    assert str(db.execute("SELECT x * 0.0 FROM t").rows[0][0]) == "0.0"
    assert str(db.execute("SELECT x * -0.0 FROM t").rows[0][0]) == "-0.0"
    assert str(db.execute("SELECT -0.0").rows[0][0]) == "-0.0"
    assert str(db.execute("SELECT x * 0.0 FROM t").rows[0][0]) == "0.0"

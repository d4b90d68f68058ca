"""Tests for memdb's logical rewrites (folding, CTE inlining) and EXPLAIN."""

import sqlite3

import pytest

from repro.backends import MemDBBackend
from repro.backends.memdb import MemDatabase, PlanCache, parse_one
from repro.backends.memdb.ast_nodes import (
    BinaryOp,
    ColumnRef,
    Literal,
    Select,
    UnaryOp,
    WithSelect,
)
from repro.backends.memdb.optimizer.rewrite import fold_expression, rewrite_statement
from repro.backends.memdb.planner import CompiledScript, compile_statement
from repro.circuits import ghz_circuit, qaoa_maxcut_circuit, qft_circuit, random_circuit, w_state_circuit
from repro.errors import SQLParseError
from repro.sql.translator import GateStep


def _expr(sql_expression: str):
    """Parse one scalar expression through the SELECT grammar."""
    statement = parse_one(f"SELECT {sql_expression} AS e")
    return statement.items[0].expression


_GATE_SETUP = [
    "CREATE TABLE T0 (s BIGINT NOT NULL, r DOUBLE NOT NULL, i DOUBLE NOT NULL)",
    "INSERT INTO T0 (s, r, i) VALUES (0, 0.6, 0.0), (1, 0.8, 0.0), (2, 0.0, 0.6), (3, 0.0, -0.8)",
    "CREATE TABLE G (in_s BIGINT NOT NULL, out_s BIGINT NOT NULL, r DOUBLE NOT NULL, i DOUBLE NOT NULL)",
    "INSERT INTO G (in_s, out_s, r, i) VALUES "
    "(0, 0, 0.7071067811865476, 0.0), (0, 1, 0.7071067811865476, 0.0), "
    "(1, 0, 0.7071067811865476, 0.0), (1, 1, -0.7071067811865476, 0.0)",
]

_GATE_STEP_SQL = (
    "SELECT ((T0.s & ~1) | G.out_s) AS s, "
    "SUM((T0.r * G.r) - (T0.i * G.i)) AS r, "
    "SUM((T0.r * G.i) + (T0.i * G.r)) AS i "
    "FROM T0 JOIN G ON G.in_s = (T0.s & 1) "
    "GROUP BY ((T0.s & ~1) | G.out_s)"
)


def _database(setup) -> MemDatabase:
    db = MemDatabase(plan_cache=PlanCache(0))
    for statement in setup:
        db.execute(statement)
    return db


def _sqlite_rows(setup, query) -> list[tuple]:
    """The oracle: the same setup and query on SQLite."""
    connection = sqlite3.connect(":memory:")
    try:
        for statement in setup:
            connection.execute(statement)
        return connection.execute(query).fetchall()
    finally:
        connection.close()


def _agrees_with_sqlite(setup, query) -> list[tuple]:
    rows = _database(setup).execute(query).rows
    assert rows == _sqlite_rows(setup, query)
    return rows


# ---------------------------------------------------------------------------
# Rewrite rules
# ---------------------------------------------------------------------------


class TestUnaryFolding:
    @pytest.mark.parametrize("expression,expected", [("~1", -2), ("-3", -3), ("~-3", 2), ("-2.5", -2.5)])
    def test_folds_unary_operators_on_literals(self, expression, expected):
        folded, count = fold_expression(_expr(expression))
        assert count >= 1
        assert folded == Literal(expected)

    @pytest.mark.parametrize("expression", ["1 << 4", "2 + 3", "12 & 10"])
    def test_binary_operators_are_left_to_the_executor(self, expression):
        folded, count = fold_expression(_expr(expression))
        assert count == 0
        assert isinstance(folded, BinaryOp)

    def test_bitwise_not_of_a_float_is_not_folded(self):
        folded, count = fold_expression(_expr("~1.5"))
        assert count == 0
        assert isinstance(folded, UnaryOp)

    def test_folds_inside_column_expressions(self):
        folded, count = fold_expression(_expr("(s & ~1) | 0"))
        assert count == 1  # only the ~1 leaf is constant
        assert folded == BinaryOp(
            "|", BinaryOp("&", ColumnRef("s"), Literal(-2)), Literal(0)
        )

    def test_folded_gate_step_agrees_with_sqlite(self):
        rows = _database(_GATE_SETUP).execute(_GATE_STEP_SQL).rows
        expected = _sqlite_rows(_GATE_SETUP, _GATE_STEP_SQL)
        assert sorted(rows) == pytest.approx(sorted(expected))

    def test_folds_are_counted(self):
        db = _database(_GATE_SETUP)
        db.execute(_GATE_STEP_SQL)
        assert db.engine_stats()["optimizer"]["counters"]["constant_folds"] == 2


class TestInlineAliasShadowing:
    def test_consumer_order_by_alias_not_substituted(self):
        """ORDER BY on the consumer's own output alias must keep resolving to
        the alias, not to the CTE column of the same name (regression)."""
        setup = ["CREATE TABLE t (a BIGINT, b BIGINT)", "INSERT INTO t (a, b) VALUES (1, 9), (2, 0), (3, 5)"]
        query = "WITH c AS (SELECT a, b + 1 AS y FROM t) SELECT a AS y FROM c ORDER BY y"
        assert _agrees_with_sqlite(setup, query) == [(1,), (2,), (3,)]


class TestCteInlining:
    def test_single_use_simple_cte_inlined(self):
        statement = parse_one(
            "WITH pick AS (SELECT T0.s AS s, T0.r AS r FROM T0 WHERE T0.r > 0.1) "
            "SELECT pick.s AS s, pick.r AS r FROM pick ORDER BY s"
        )
        rewritten, log = rewrite_statement(statement)
        assert log.ctes_inlined == 1
        assert isinstance(rewritten, Select)  # the WITH disappeared entirely
        assert rewritten.source.name == "T0"
        assert rewritten.where is not None  # the body's WHERE moved along

    def test_inlined_results_match(self):
        query = (
            "WITH pick AS (SELECT T0.s AS s, T0.r AS r FROM T0 WHERE T0.r > 0.1) "
            "SELECT pick.s AS s, pick.r AS r FROM pick ORDER BY s"
        )
        assert _agrees_with_sqlite(_GATE_SETUP, query) == [(0, 0.6), (1, 0.8)]

    def test_body_where_joins_the_consumer_where(self):
        setup = [
            "CREATE TABLE t (a BIGINT, b BIGINT)",
            "INSERT INTO t (a, b) VALUES (1, 10), (2, 6), (3, 2), (4, 8)",
            "CREATE TABLE u (a BIGINT, c BIGINT)",
            "INSERT INTO u (a, c) VALUES (1, 100), (2, 200), (3, 400), (4, 50)",
        ]
        query = (
            "WITH w AS (SELECT t.a AS a, t.b AS b FROM t WHERE t.b > 5) "
            "SELECT w.b, u.c FROM w JOIN u ON u.a = w.a WHERE u.c < 300 ORDER BY w.b"
        )
        _rewritten, log = rewrite_statement(parse_one(query))
        assert log.ctes_inlined == 1
        assert _agrees_with_sqlite(setup, query) == [(6, 200), (8, 50), (10, 100)]

    def test_multi_use_cte_not_inlined(self):
        statement = parse_one(
            "WITH pick AS (SELECT T0.s AS s FROM T0), "
            "a AS (SELECT pick.s AS s FROM pick), "
            "b AS (SELECT pick.s AS s FROM pick) "
            "SELECT a.s FROM a JOIN b ON b.s = a.s ORDER BY a.s"
        )
        rewritten, _log = rewrite_statement(statement)
        names = [cte.name for cte in rewritten.ctes]
        assert "pick" in names  # referenced twice: must survive

    def test_inlined_bare_body_refs_qualified_in_joined_consumer(self):
        """A CTE body with bare column refs spliced into a multi-table
        consumer must qualify them with the source binding (regression:
        bare names are ambiguous after a join)."""
        setup = [
            "CREATE TABLE t (a BIGINT, b BIGINT)",
            "INSERT INTO t (a, b) VALUES (1, 10), (2, 6), (3, 2)",
            "CREATE TABLE u (a BIGINT, c BIGINT)",
            "INSERT INTO u (a, c) VALUES (1, 100), (2, 200), (3, 400)",
        ]
        query = (
            "WITH w AS (SELECT a, b FROM t) "
            "SELECT w.b, u.c FROM w JOIN u ON u.a = w.a "
            "WHERE w.b > 5 AND u.c < 300 ORDER BY w.b"
        )
        assert _agrees_with_sqlite(setup, query) == [(6, 200), (10, 100)]

    def test_shadowed_source_name_blocks_inlining(self):
        """The spliced-in table name must resolve identically in the
        consumer's scope; a CTE shadowing it there blocks inlining."""
        setup = ["CREATE TABLE t (x BIGINT)", "INSERT INTO t (x) VALUES (1), (2), (3)"]
        query = (
            "WITH a AS (SELECT x FROM t), t AS (SELECT x + 100 AS x FROM t) "
            "SELECT a.x FROM a ORDER BY a.x"
        )
        # SQLite refuses the self-referencing CTE; memdb resolves names in
        # definition order.
        assert _database(setup).execute(query).rows == [(1,), (2,), (3,)]

    def test_catalog_table_shadowing_later_cte_name(self):
        """An earlier CTE body reading a catalog table that shares a *later*
        CTE's name must keep reading the catalog table."""
        setup = ["CREATE TABLE pick (a BIGINT, b BIGINT)", "INSERT INTO pick (a, b) VALUES (1, 10), (2, 20)"]
        query = (
            "WITH first AS (SELECT pick.a AS a, pick.b AS b FROM pick WHERE pick.a > 0), "
            "pick AS (SELECT first.a AS a FROM first WHERE first.b > 15) "
            "SELECT pick.a AS a FROM pick ORDER BY a"
        )
        assert _database(setup).execute(query).rows == [(2,)]

    def test_grouped_consumer_order_by_output_alias(self):
        """ORDER BY on an output alias of a grouped consumer must keep
        resolving against the aggregated outputs after inlining."""
        setup = ["CREATE TABLE t (x BIGINT, z BIGINT)", "INSERT INTO t (x, z) VALUES (1, 10), (2, 20), (1, 5)"]
        query = (
            "WITH a AS (SELECT t.x AS x, t.z AS z FROM t) "
            "SELECT a.x AS x, SUM(a.z) AS s FROM a GROUP BY a.x ORDER BY x"
        )
        assert _agrees_with_sqlite(setup, query) == [(1, 15), (2, 20)]

    def test_distinct_consumer_order_by_output_alias(self):
        setup = ["CREATE TABLE t (x BIGINT)", "INSERT INTO t (x) VALUES (2), (1), (2)"]
        query = "WITH a AS (SELECT t.x AS x FROM t) SELECT DISTINCT a.x AS x FROM a ORDER BY x"
        assert _agrees_with_sqlite(setup, query) == [(1,), (2,)]

    def test_grouped_cte_not_inlined(self):
        statement = parse_one(
            "WITH agg AS (SELECT T0.s AS s, SUM(T0.r) AS total FROM T0 GROUP BY T0.s) "
            "SELECT agg.s, agg.total FROM agg ORDER BY agg.s"
        )
        rewritten, log = rewrite_statement(statement)
        assert log.ctes_inlined == 0
        assert isinstance(rewritten, WithSelect)


# ---------------------------------------------------------------------------
# Physical choices by shape, EXPLAIN, and no statistics
# ---------------------------------------------------------------------------


class TestShapeChoices:
    def test_gate_step_compiles_fused_with_no_statistics(self):
        plan = compile_statement(parse_one(_GATE_STEP_SQL))
        assert isinstance(plan, CompiledScript)
        assert plan.query.fused is not None

    def test_other_shapes_run_the_generic_pipeline(self):
        plan = compile_statement(parse_one("SELECT T0.s FROM T0 ORDER BY T0.s"))
        assert plan.query.fused is None

    def test_analyze_is_not_a_statement(self):
        db = _database(_GATE_SETUP)
        with pytest.raises(SQLParseError):
            db.execute("ANALYZE")


class TestExplain:
    def test_explain_shows_the_fused_step(self):
        db = _database(_GATE_SETUP)
        text = "\n".join(row[0] for row in db.execute(f"EXPLAIN {_GATE_STEP_SQL}").rows)
        assert "physical: fused join-aggregate" in text
        assert "cost" not in text and "estimated" not in text
        assert "plan cache:" in text

    def test_explain_shows_top_k_under_a_limit(self):
        db = _database(_GATE_SETUP)
        text = "\n".join(
            row[0] for row in db.execute("EXPLAIN SELECT T0.s FROM T0 ORDER BY T0.r LIMIT 2").rows
        )
        assert "top-k (k=2)" in text

    def test_explain_does_not_execute(self):
        db = _database(_GATE_SETUP)
        db.execute("EXPLAIN CREATE TABLE copy AS SELECT T0.s AS s FROM T0")
        assert not db.has_table("copy")

    def test_explain_analyze_executes_and_reports_actuals(self):
        db = _database(_GATE_SETUP)
        rows = db.execute(f"EXPLAIN ANALYZE {_GATE_STEP_SQL}").rows
        text = "\n".join(row[0] for row in rows)
        assert "main: actual rows 4" in text
        assert "ms" in text

    def test_explain_analyze_create_materializes(self):
        db = _database(_GATE_SETUP)
        db.execute("EXPLAIN ANALYZE CREATE TABLE copy AS SELECT T0.s AS s FROM T0")
        assert db.has_table("copy")
        assert db.row_count("copy") == 4

    def test_explain_interpreted_statement(self):
        db = _database(_GATE_SETUP)
        text = "\n".join(
            row[0] for row in db.execute("EXPLAIN INSERT INTO T0 (s, r, i) VALUES (9, 0.0, 0.0)").rows
        )
        assert "interpreted statement" in text
        assert db.row_count("T0") == 4  # not executed

    def test_explain_cache_provenance(self):
        db = MemDatabase(plan_cache=PlanCache())
        for statement in _GATE_SETUP:
            db.execute(statement)
        query = "SELECT T0.s FROM T0 ORDER BY T0.s"
        text = "\n".join(row[0] for row in db.execute(f"EXPLAIN {query}").rows)
        assert "plan cache: miss" in text
        db.execute(query)
        text = "\n".join(row[0] for row in db.execute(f"EXPLAIN {query}").rows)
        assert "plan cache: hit" in text

    def test_explain_statements_are_not_cached(self):
        db = MemDatabase(plan_cache=PlanCache())
        for statement in _GATE_SETUP:
            db.execute(statement)
        explain = f"EXPLAIN {_GATE_STEP_SQL}"
        db.execute(explain)
        assert explain not in db.plan_cache


class TestExplainCoverage:
    @pytest.fixture
    def db(self):
        database = MemDatabase(plan_cache=PlanCache(0))
        database.execute("CREATE TABLE t (a BIGINT NOT NULL, b DOUBLE NOT NULL)")
        database.execute("INSERT INTO t (a, b) VALUES (1, 1.5), (2, 2.5), (3, 3.5)")
        return database

    def test_plain_explain_never_inserts(self, db):
        db.execute("EXPLAIN INSERT INTO t (a, b) VALUES (9, 9.5)")
        assert db.row_count("t") == 3

    def test_plain_explain_never_deletes(self, db):
        db.execute("EXPLAIN DELETE FROM t")
        assert db.row_count("t") == 3

    def test_plain_explain_never_creates(self, db):
        db.execute("EXPLAIN CREATE TABLE u AS SELECT t.a AS a FROM t")
        assert not db.has_table("u")

    def test_plain_explain_never_drops(self, db):
        db.execute("EXPLAIN DROP TABLE t")
        assert db.has_table("t")

    def test_explain_analyze_populates_every_cte_relation(self, db):
        # Grouped bodies keep every CTE alive (inlining only fires for plain
        # projections), so all three blocks plus main must be reported.
        query = (
            "WITH s1 AS (SELECT t.a AS a, SUM(t.b) AS b FROM t GROUP BY t.a), "
            "s2 AS (SELECT s1.a AS a, SUM(s1.b) * 2 AS b2 FROM s1 GROUP BY s1.a), "
            "s3 AS (SELECT s2.a AS a, SUM(s2.b2) AS total FROM s2 GROUP BY s2.a) "
            "SELECT s3.a, s3.total FROM s3 ORDER BY s3.a"
        )
        lines = [row[0] for row in db.execute(f"EXPLAIN ANALYZE {query}").rows]
        for label in ("s1:", "s2:", "s3:", "main:"):
            (header,) = [line for line in lines if line.startswith(label)]
            assert header == f"{label} actual rows 3", lines

    def test_explain_analyze_executes_dml_like_postgres(self, db):
        db.execute("EXPLAIN ANALYZE DELETE FROM t WHERE a = 1")
        assert db.row_count("t") == 2

    def test_explain_analyze_reports_the_pre_limit_count(self, db):
        lines = [
            row[0]
            for row in db.execute("EXPLAIN ANALYZE SELECT t.a FROM t ORDER BY t.a LIMIT 1").rows
        ]
        (header,) = [line for line in lines if line.startswith("main:")]
        assert header == "main: actual rows 3"


class TestExplainCircuit:
    """The translator's SQL: a fused join-aggregate per step, with its row bound."""

    @pytest.mark.parametrize("fuse", [False, True], ids=["plain", "fused"])
    @pytest.mark.parametrize(
        "build",
        [
            lambda: ghz_circuit(5),
            lambda: qft_circuit(6),
            lambda: w_state_circuit(4),
            lambda: random_circuit(5, 8, seed=3),
            lambda: qaoa_maxcut_circuit(5, p=1, gammas=[0.4], betas=[0.7]),
        ],
        ids=["ghz5", "qft6", "w4", "random5", "qaoa5"],
    )
    def test_every_gate_step_is_fused_and_bounded(self, build, fuse):
        backend = MemDBBackend(fuse=fuse)
        circuit = build()
        translation = backend.translate(circuit)
        lines = backend.explain_circuit(circuit, analyze=True).splitlines()
        for step, bound in zip(translation.steps, translation.row_bounds()):
            headers = [index for index, line in enumerate(lines) if line.startswith(f"{step.output_table}:")]
            if not headers:
                continue  # the trailing relabel step, inlined into main
            (index,) = headers
            assert lines[index].startswith(f"{step.output_table}: row bound {bound}, actual rows ")
            assert int(lines[index].rsplit(" ", 1)[1]) <= bound
            physical = "fused join-aggregate" if isinstance(step, GateStep) else "scan -> project"
            assert lines[index + 1] == f"  physical: {physical}"

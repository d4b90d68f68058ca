"""Tests for the embedded engine's SQL parser."""

import sqlite3

import pytest

from repro.backends.memdb import MemDatabase

from repro.backends.memdb.ast_nodes import (
    BinaryOp,
    ColumnRef,
    CreateTable,
    CreateTableAs,
    Delete,
    DropTable,
    FunctionCall,
    Insert,
    Literal,
    Select,
    UnaryOp,
    WithSelect,
)
from repro.backends.memdb.parser import parse_one, parse_sql
from repro.errors import SQLParseError


class TestSelectParsing:
    def test_simple_select(self):
        statement = parse_one("SELECT s, r FROM T0")
        assert isinstance(statement, Select)
        assert len(statement.items) == 2
        assert statement.source.name == "T0"

    def test_expression_precedence_bitwise_below_comparison(self):
        statement = parse_one("SELECT 1 FROM t WHERE a & 3 = 2")
        where = statement.where
        assert isinstance(where, BinaryOp) and where.operator == "="
        assert isinstance(where.left, BinaryOp) and where.left.operator == "&"

    def test_shift_precedence_above_bitand(self):
        statement = parse_one("SELECT a & 1 << 2 FROM t")
        expression = statement.items[0].expression
        assert expression.operator == "&"
        assert isinstance(expression.right, BinaryOp) and expression.right.operator == "<<"

    def test_unary_tilde(self):
        statement = parse_one("SELECT s & ~6 FROM t")
        expression = statement.items[0].expression
        assert isinstance(expression.right, UnaryOp) and expression.right.operator == "~"

    def test_aliases_with_and_without_as(self):
        statement = parse_one("SELECT a AS x, b y FROM t")
        assert statement.items[0].alias == "x"
        assert statement.items[1].alias == "y"

    def test_join_with_on(self):
        statement = parse_one("SELECT * FROM T0 JOIN H ON H.in_s = (T0.s & 1)")
        assert len(statement.joins) == 1
        assert statement.joins[0].source.name == "H"
        assert statement.joins[0].condition.operator == "="

    def test_group_by_order_by_limit(self):
        statement = parse_one(
            "SELECT s, SUM(r) FROM t GROUP BY s ORDER BY s DESC LIMIT 5"
        )
        assert len(statement.group_by) == 1
        assert statement.order_by[0].descending
        assert statement.limit == 5

    def test_call_at_the_end_of_the_input(self):
        assert parse_one("SELECT abs(a)").items[0].expression == FunctionCall(
            "abs", (ColumnRef("a"),)
        )

    def test_aggregate_count_star(self):
        statement = parse_one("SELECT COUNT(*) FROM t")
        call = statement.items[0].expression
        assert isinstance(call, FunctionCall) and call.is_star

    def test_with_clause(self):
        statement = parse_one("WITH a AS (SELECT 1), b AS (SELECT 2) SELECT * FROM b")
        assert isinstance(statement, WithSelect)
        assert [cte.name for cte in statement.ctes] == ["a", "b"]

    def test_case_expression(self):
        statement = parse_one("SELECT CASE WHEN a > 0 THEN 1 ELSE 0 END FROM t")
        assert statement.items[0].expression.default == Literal(0)

    def test_in_list_and_is_null(self):
        statement = parse_one("SELECT 1 FROM t WHERE a IN (1, 2) AND b IS NOT NULL")
        assert statement.where.operator == "and"

    def test_distinct(self):
        assert parse_one("SELECT DISTINCT s FROM t").distinct


class TestOtherStatements:
    def test_create_table(self):
        statement = parse_one("CREATE TABLE T0 (s BIGINT NOT NULL, r DOUBLE, i DOUBLE)")
        assert isinstance(statement, CreateTable)
        assert [column.name for column in statement.columns] == ["s", "r", "i"]
        assert statement.columns[0].not_null

    def test_create_table_as(self):
        statement = parse_one("CREATE TABLE T1 AS SELECT * FROM T0")
        assert isinstance(statement, CreateTableAs)
        assert statement.name == "T1"

    def test_create_temp_table_as(self):
        statement = parse_one("CREATE TEMP TABLE T1 AS SELECT 1")
        assert statement.temporary

    def test_insert_multi_row(self):
        statement = parse_one("INSERT INTO H (in_s, out_s, r, i) VALUES (0, 0, 0.7, 0.0), (1, 1, -0.7, 0.0)")
        assert isinstance(statement, Insert)
        assert len(statement.rows) == 2
        assert statement.columns == ("in_s", "out_s", "r", "i")

    def test_delete_with_where(self):
        statement = parse_one("DELETE FROM T1 WHERE (r * r) + (i * i) <= 1e-12")
        assert isinstance(statement, Delete)
        assert statement.where is not None

    def test_drop_if_exists(self):
        statement = parse_one("DROP TABLE IF EXISTS T1")
        assert isinstance(statement, DropTable)
        assert statement.if_exists

    def test_multiple_statements(self):
        statements = parse_sql("SELECT 1; SELECT 2;")
        assert len(statements) == 2

    def test_column_ref_qualification(self):
        statement = parse_one("SELECT T0.s FROM T0")
        ref = statement.items[0].expression
        assert isinstance(ref, ColumnRef) and ref.table == "T0" and ref.name == "s"


class TestParserErrors:
    def test_empty_statement(self):
        with pytest.raises(SQLParseError):
            parse_sql("   ")

    def test_unsupported_statement(self):
        with pytest.raises(SQLParseError):
            parse_one("UPDATE t SET a = 1")

    def test_missing_from_table(self):
        with pytest.raises(SQLParseError):
            parse_one("SELECT * FROM")

    def test_bad_expression(self):
        with pytest.raises(SQLParseError):
            parse_one("SELECT * FROM t WHERE a = ")

    def test_two_statements_for_parse_one(self):
        with pytest.raises(SQLParseError):
            parse_one("SELECT 1; SELECT 2")


#: Words the engine reads as plain identifiers, as SQLite does: window-frame
#: and recursion vocabulary the engine does not implement.
FREED_WORDS = "rows range over partition preceding following unbounded current row recursive".split()


class TestUnreservedWords:
    @pytest.mark.parametrize("word", FREED_WORDS)
    def test_word_is_a_column_name_and_an_alias_as_in_sqlite(self, word):
        statements = [
            f"CREATE TABLE t (w BIGINT, {word} BIGINT)",
            f"INSERT INTO t (w, {word}) VALUES (1, 20), (3, 40), (5, 60)",
        ]
        queries = [
            f"SELECT {word}, t.{word} + 1 AS k FROM t WHERE {word} > 20 ORDER BY {word}",
            f"SELECT w AS {word} FROM t ORDER BY {word} DESC",
            f"SELECT COUNT(*) AS {word}, SUM(t.{word}) AS total FROM t",
            f"WITH c AS (SELECT w AS {word} FROM t) SELECT {word} FROM c ORDER BY {word}",
        ]
        reference = sqlite3.connect(":memory:")
        db = MemDatabase()
        for statement in statements:
            reference.execute(statement)
            db.execute(statement)
        for query in queries:
            cursor = reference.execute(query)
            result = db.execute(query)
            assert result.columns == [column[0] for column in cursor.description], query
            assert result.rows == cursor.fetchall(), query

    @pytest.mark.parametrize(
        "query",
        [
            "SELECT COUNT(*) over FROM t",
            "SELECT SUM(w) over FROM t",
            "SELECT abs(w) rows FROM t ORDER BY rows",
        ],
    )
    def test_word_after_a_call_is_its_alias_as_in_sqlite(self, query):
        statements = ["CREATE TABLE t (w BIGINT)", "INSERT INTO t (w) VALUES (1), (-3)"]
        reference = sqlite3.connect(":memory:")
        db = MemDatabase()
        for statement in statements:
            reference.execute(statement)
            db.execute(statement)
        cursor = reference.execute(query)
        result = db.execute(query)
        assert result.columns == [column[0] for column in cursor.description]
        assert result.rows == cursor.fetchall()

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT row_number() OVER (ORDER BY a) FROM t",
            "select sum(a) over (partition by b) from t",
            "SELECT COUNT(*) OVER () FROM t",
            "WITH RECURSIVE r AS (SELECT 1 AS n) SELECT n FROM r",
            "with recursive r(n) AS (SELECT 1 UNION ALL SELECT n + 1 FROM r) SELECT n FROM r",
            "WITH u AS (SELECT a FROM t UNION SELECT a FROM v) SELECT a FROM u",
            "WITH u AS (SELECT a FROM t UNION ALL SELECT a FROM v) SELECT a FROM u",
        ],
        ids=["window", "window-lower", "window-empty", "recursive", "recursive-lower",
             "union", "union-all"],
    )
    def test_unsupported_feature_is_named(self, sql):
        with pytest.raises(SQLParseError, match="not supported"):
            parse_one(sql)

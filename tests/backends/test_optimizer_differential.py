"""Differential tests: memdb's rewrites preserve results vs SQLite.

Each query below is crafted to exercise one of memdb's rewrite rules, or a
shape its former rules (predicate pushdown, projection pruning, join
reordering) used to rewrite, on gate-table-shaped workloads — the
``T0(s, r, i)`` state tables and ``G(in_s, out_s, r, i)`` gate tables the
translation layer generates.  The same script runs on SQLite (and DuckDB
when installed), and every value must agree to 1e-9.  Because SQLite sees
the *original* SQL while memdb rewrites it (unary-literal folding, CTE
inlining), agreement proves the rewrites are observationally sound.
"""

import pytest

from repro.backends import DuckDBBackend, MemDBBackend, SQLiteBackend, duckdb_available

_ATOL = 1e-9

#: Gate-table-shaped setup: one state table, two gate tables, one small
#: auxiliary table (distinct row counts so join reordering has a gradient).
_SETUP = [
    "CREATE TABLE T0 (s BIGINT NOT NULL, r DOUBLE NOT NULL, i DOUBLE NOT NULL)",
    "INSERT INTO T0 (s, r, i) VALUES "
    + ", ".join(
        f"({index}, {0.125 * ((index % 8) + 1):.6f}, {0.0625 * ((index % 4) - 2):.6f})"
        for index in range(64)
    ),
    "CREATE TABLE G (in_s BIGINT NOT NULL, out_s BIGINT NOT NULL, r DOUBLE NOT NULL, i DOUBLE NOT NULL)",
    "INSERT INTO G (in_s, out_s, r, i) VALUES "
    "(0, 0, 0.7071067811865476, 0.0), (0, 1, 0.7071067811865476, 0.0), "
    "(1, 0, 0.7071067811865476, 0.0), (1, 1, -0.7071067811865476, 0.0)",
    "CREATE TABLE H (in_s BIGINT NOT NULL, out_s BIGINT NOT NULL, r DOUBLE NOT NULL, i DOUBLE NOT NULL)",
    "INSERT INTO H (in_s, out_s, r, i) VALUES "
    "(0, 0, 1.0, 0.0), (1, 1, 0.0, 1.0), (2, 2, -1.0, 0.0), (3, 3, 0.0, -1.0)",
    "CREATE TABLE marks (s BIGINT NOT NULL, weight DOUBLE NOT NULL)",
    "INSERT INTO marks (s, weight) VALUES (0, 1.0), (1, 2.0), (2, 4.0), (3, 8.0)",
]

#: (rule under test, SQL). Every query carries a total ORDER BY so row
#: order is deterministic on both engines.
_REWRITE_QUERIES = [
    (
        "constant_folding",
        "SELECT ((T0.s & ~1) | G.out_s) AS s, "
        "SUM((T0.r * G.r) - (T0.i * G.i)) AS r, "
        "SUM((T0.r * G.i) + (T0.i * G.r)) AS i "
        "FROM T0 JOIN G ON G.in_s = (T0.s & 1) "
        "GROUP BY ((T0.s & ~1) | G.out_s) ORDER BY s",
    ),
    (
        "constant_folding_scalar",
        "SELECT T0.s AS s, T0.r * (2 + 3 * 4) AS v, T0.s & ~(1 << 2) AS masked "
        "FROM T0 ORDER BY s",
    ),
    (
        "predicate_pushdown_joins",
        "SELECT T0.s AS s, G.out_s AS o, T0.r * G.r AS v "
        "FROM T0 JOIN G ON G.in_s = (T0.s & 1) "
        "WHERE T0.r > 0.3 AND G.out_s = 1 AND T0.s + G.out_s > 2 "
        "ORDER BY s, o",
    ),
    (
        "predicate_pushdown_cte",
        "WITH joined AS (SELECT T0.s AS s, T0.r * G.r AS v FROM T0 JOIN G ON G.in_s = (T0.s & 1)) "
        "SELECT joined.s AS s, SUM(joined.v) AS total FROM joined JOIN marks ON marks.s = (joined.s & 3) "
        "WHERE joined.v > 0.05 GROUP BY joined.s ORDER BY s",
    ),
    (
        "projection_pruning",
        "WITH wide AS (SELECT T0.s AS s, T0.r AS r, T0.i AS i, T0.r * T0.r + T0.i * T0.i AS prob "
        "FROM T0 JOIN H ON H.in_s = (T0.s & 3)) "
        "SELECT wide.s AS s, wide.prob AS prob FROM wide JOIN marks ON marks.s = (wide.s & 3) "
        "ORDER BY s, prob",
    ),
    (
        "cte_inlining",
        "WITH pick AS (SELECT T0.s AS s, T0.r AS r FROM T0 WHERE T0.r > 0.2) "
        "SELECT pick.s AS s, pick.r * 2.0 AS doubled FROM pick ORDER BY s",
    ),
    (
        "join_reordering",
        "SELECT marks.weight AS w, SUM(T0.r * H.r - T0.i * H.i) AS re "
        "FROM T0 JOIN H ON H.in_s = (T0.s & 3) JOIN marks ON marks.s = H.out_s "
        "GROUP BY marks.weight ORDER BY w",
    ),
    (
        "combined_gate_chain",
        "WITH T1 AS (SELECT ((T0.s & ~1) | G.out_s) AS s, "
        "SUM((T0.r * G.r) - (T0.i * G.i)) AS r, SUM((T0.r * G.i) + (T0.i * G.r)) AS i "
        "FROM T0 JOIN G ON G.in_s = (T0.s & 1) GROUP BY ((T0.s & ~1) | G.out_s)), "
        "T2 AS (SELECT T1.s AS s, SUM(T1.r * H.r - T1.i * H.i) AS r, "
        "SUM(T1.r * H.i + T1.i * H.r) AS i "
        "FROM T1 JOIN H ON H.in_s = (T1.s & 3) GROUP BY T1.s) "
        "SELECT s, r, i FROM T2 ORDER BY s",
    ),
]


def _assert_rows_match(expected, actual, label):
    assert len(actual) == len(expected), f"{label}: row count {len(actual)} vs {len(expected)}"
    for row_index, (expected_row, actual_row) in enumerate(zip(expected, actual)):
        assert len(actual_row) == len(expected_row)
        for expected_value, actual_value in zip(expected_row, actual_row):
            assert abs(float(actual_value) - float(expected_value)) <= _ATOL, (
                f"{label}: row {row_index} differs: {expected_row} vs {actual_row}"
            )


class TestRewritesPreserveResults:
    @pytest.mark.parametrize("rule,query", _REWRITE_QUERIES, ids=[r for r, _ in _REWRITE_QUERIES])
    def test_matches_sqlite(self, rule, query):
        statements = _SETUP + [query]
        expected = SQLiteBackend().run_script(statements)
        actual = MemDBBackend().run_script(statements)
        _assert_rows_match(expected, actual, rule)

    @pytest.mark.skipif(not duckdb_available(), reason="duckdb is not installed")
    @pytest.mark.parametrize("rule,query", _REWRITE_QUERIES, ids=[r for r, _ in _REWRITE_QUERIES])
    def test_matches_duckdb(self, rule, query):
        statements = _SETUP + [query]
        expected = DuckDBBackend().run_script(statements)
        actual = MemDBBackend().run_script(statements)
        _assert_rows_match(expected, actual, rule)

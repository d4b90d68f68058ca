"""Tests for the physical-plan compiler and the LRU plan cache."""

import sqlite3

import numpy as np
import pytest

from repro.backends.memdb import MemDatabase, PlanCache, compile_statement, parse_one
from repro.backends.memdb.executor import join_indices
from repro.backends.memdb.planner import CompiledCreateTableAs, CompiledScript
from repro.errors import SQLExecutionError
from repro.obs import MetricsRegistry, SlowQueryLog, TraceRingBuffer, Tracer

_GATE_STEP_SQL = (
    "SELECT ((T0.s & ~1) | G.out_s) AS s, "
    "SUM((T0.r * G.r) - (T0.i * G.i)) AS r, "
    "SUM((T0.r * G.i) + (T0.i * G.r)) AS i "
    "FROM T0 JOIN G ON G.in_s = (T0.s & 1) "
    "GROUP BY ((T0.s & ~1) | G.out_s)"
)


_SETUP = [
    "CREATE TABLE T0 (s BIGINT NOT NULL, r DOUBLE NOT NULL, i DOUBLE NOT NULL)",
    "INSERT INTO T0 (s, r, i) VALUES (0, 0.6, 0.0), (1, 0.8, 0.0), (2, 0.0, 0.6), (3, 0.0, -0.8)",
    "CREATE TABLE G (in_s BIGINT NOT NULL, out_s BIGINT NOT NULL, r DOUBLE NOT NULL, i DOUBLE NOT NULL)",
    "INSERT INTO G (in_s, out_s, r, i) VALUES "
    "(0, 0, 0.7071067811865476, 0.0), (0, 1, 0.7071067811865476, 0.0), "
    "(1, 0, 0.7071067811865476, 0.0), (1, 1, -0.7071067811865476, 0.0)",
]


def _fresh_db(**options) -> MemDatabase:
    db = MemDatabase(plan_cache=PlanCache(), **options)
    for statement in _SETUP:
        db.execute(statement)
    return db


def _sqlite_rows(query: str, *statements: str) -> list[tuple]:
    """``query``'s rows on sqlite3 over the same tables, after ``statements``."""
    connection = sqlite3.connect(":memory:")
    for statement in (*_SETUP, *statements):
        connection.execute(statement)
    rows = connection.execute(query).fetchall()
    connection.close()
    return rows


def _assert_rows_close(actual: list[tuple], expected: list[tuple]) -> None:
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert got == pytest.approx(want, abs=1e-12), (actual, expected)


class TestPlanCache:
    def test_hit_miss_counters(self):
        cache = PlanCache(maxsize=4)
        db = MemDatabase(plan_cache=cache)
        db.execute("CREATE TABLE t (a BIGINT)")
        db.execute("INSERT INTO t (a) VALUES (1), (2)")
        before = cache.stats()
        db.execute("SELECT a FROM t ORDER BY a")
        db.execute("SELECT a FROM t ORDER BY a")
        db.execute("SELECT a FROM t ORDER BY a")
        after = cache.stats()
        assert after["misses"] == before["misses"] + 1
        assert after["hits"] == before["hits"] + 2

    def test_lru_eviction(self):
        cache = PlanCache(maxsize=2)
        db = MemDatabase(plan_cache=cache)
        db.execute("CREATE TABLE t (a BIGINT)")
        db.execute("INSERT INTO t (a) VALUES (1)")
        cache.clear()
        db.execute("SELECT a FROM t")           # entry 1
        db.execute("SELECT a + 1 AS b FROM t")  # entry 2
        db.execute("SELECT a FROM t")           # touch entry 1 (now MRU)
        db.execute("SELECT a + 2 AS c FROM t")  # entry 3 evicts entry 2
        assert cache.stats()["evictions"] == 1
        assert "SELECT a FROM t" in cache
        assert "SELECT a + 1 AS b FROM t" not in cache
        assert len(cache) == 2

    def test_zero_capacity_disables_caching(self):
        cache = PlanCache(maxsize=0)
        db = MemDatabase(plan_cache=cache)
        db.execute("CREATE TABLE t (a BIGINT)")
        db.execute("SELECT a FROM t")
        db.execute("SELECT a FROM t")
        assert len(cache) == 0
        assert cache.stats()["hits"] == 0

    def test_clear_resets_stats(self):
        cache = PlanCache(maxsize=4)
        db = MemDatabase(plan_cache=cache)
        db.execute("CREATE TABLE t (a BIGINT)")
        db.execute("SELECT a FROM t")
        cache.clear()
        stats = cache.stats()
        assert stats == {
            "size": 0,
            "planned": 0,
            "parse_only": 0,
            "maxsize": 4,
            "hits": 0,
            "misses": 0,
            "evictions": 0,
            "invalidations": 0,
        }

    def test_parse_only_scripts_cannot_evict_plans(self):
        """A sweep's stream of unique INSERT texts must not flush hot query plans."""
        cache = PlanCache(maxsize=4)
        db = MemDatabase(plan_cache=cache)
        db.execute("CREATE TABLE t (a BIGINT)")
        query = "SELECT a FROM t"
        db.execute(query)
        assert query in cache
        for value in range(20):  # 20 distinct parse-only texts, far past maxsize
            db.execute(f"INSERT INTO t (a) VALUES ({value})")
        assert query in cache
        stats = cache.stats()
        assert stats["planned"] >= 1
        assert stats["parse_only"] <= 4
        assert stats["evictions"] > 0

    def test_repeated_insert_text_hits_parse_cache(self):
        cache = PlanCache(maxsize=8)
        db = MemDatabase(plan_cache=cache)
        db.execute("CREATE TABLE t (a BIGINT)")
        cache.clear()
        db.execute("INSERT INTO t (a) VALUES (1)")
        db.execute("INSERT INTO t (a) VALUES (1)")
        assert cache.stats()["hits"] == 1
        assert db.row_count("t") == 2

    def test_oversized_parse_only_scripts_are_not_pinned(self):
        cache = PlanCache(maxsize=8)
        db = MemDatabase(plan_cache=cache)
        db.execute("CREATE TABLE t (a BIGINT)")
        rows = ", ".join(f"({value})" for value in range(3000))
        insert = f"INSERT INTO t (a) VALUES {rows}"
        assert len(insert) > PlanCache.PARSE_ONLY_MAX_SQL_CHARS
        db.execute(insert)
        assert insert not in cache
        assert db.row_count("t") == 3000

    def test_parse_errors_are_not_cached(self):
        cache = PlanCache(maxsize=4)
        db = MemDatabase(plan_cache=cache)
        with pytest.raises(Exception):
            db.execute("SELEC nonsense")
        assert len(cache) == 0

    def test_cached_plan_rebinds_to_fresh_tables(self):
        """The sweep contract: same SQL text, new table contents, correct result."""
        cache = PlanCache(maxsize=8)
        db = MemDatabase(plan_cache=cache)
        db.execute("CREATE TABLE t (a BIGINT, b DOUBLE)")
        db.execute("INSERT INTO t (a, b) VALUES (1, 10.0), (1, 2.0)")
        query = "SELECT a, SUM(b) AS total FROM t GROUP BY a ORDER BY a"
        assert db.execute(query).rows == [(1, 12.0)]
        db.execute("DROP TABLE t")
        db.execute("CREATE TABLE t (a BIGINT, b DOUBLE)")
        db.execute("INSERT INTO t (a, b) VALUES (2, 1.0), (3, 4.0)")
        hits_before = cache.stats()["hits"]
        assert db.execute(query).rows == [(2, 1.0), (3, 4.0)]
        assert cache.stats()["hits"] == hits_before + 1

    def test_cache_shared_across_databases(self):
        cache = PlanCache(maxsize=8)
        first = MemDatabase(plan_cache=cache)
        first.execute("CREATE TABLE t (a BIGINT)")
        first.execute("INSERT INTO t (a) VALUES (7)")
        assert first.execute("SELECT a FROM t").rows == [(7,)]
        second = MemDatabase(plan_cache=cache)
        second.execute("CREATE TABLE t (a BIGINT)")
        second.execute("INSERT INTO t (a) VALUES (9)")
        hits_before = cache.stats()["hits"]
        assert second.execute("SELECT a FROM t").rows == [(9,)]
        assert cache.stats()["hits"] == hits_before + 1


class TestCompilation:
    def test_gate_step_compiles_to_fused_operator(self):
        plan = compile_statement(parse_one(_GATE_STEP_SQL))
        assert isinstance(plan, CompiledScript)
        assert plan.query.fused is not None

    def test_with_select_compiles_every_cte(self):
        sql = f"WITH T1 AS ({_GATE_STEP_SQL}) SELECT s, r, i FROM T1 ORDER BY s"
        plan = compile_statement(parse_one(sql))
        assert isinstance(plan, CompiledScript)
        assert len(plan.ctes) == 1
        assert plan.ctes[0][1].fused is not None

    def test_create_table_as_compiles(self):
        plan = compile_statement(parse_one(f"CREATE TABLE T1 AS {_GATE_STEP_SQL}"))
        assert isinstance(plan, CompiledCreateTableAs)
        assert plan.script.query.fused is not None

    def test_unqualified_group_key_falls_back_to_generic_plan(self):
        sql = "SELECT a, SUM(b) AS t FROM x JOIN y ON y.k = x.k GROUP BY a"
        plan = compile_statement(parse_one(sql))
        assert isinstance(plan, CompiledScript)
        assert plan.query.fused is None

    def test_insert_and_ddl_have_no_plan(self):
        assert compile_statement(parse_one("INSERT INTO t (a) VALUES (1)")) is None
        assert compile_statement(parse_one("CREATE TABLE t (a BIGINT)")) is None
        assert compile_statement(parse_one("DROP TABLE t")) is None

    def test_left_join_raises(self):
        with pytest.raises(SQLExecutionError):
            compile_statement(parse_one("SELECT * FROM a LEFT JOIN b ON b.x = a.x"))


class TestPlanVsSqlite:
    """Compiled plans must agree with sqlite3 on every covered shape."""

    @pytest.mark.parametrize(
        "query",
        [
            _GATE_STEP_SQL,
            "SELECT s, r FROM T0 WHERE r > 0 ORDER BY s",
            "SELECT s + 1 AS s1, r * r + i * i AS p FROM T0 ORDER BY p DESC LIMIT 2",
            "SELECT COUNT(*), SUM(r), MIN(r), MAX(i) FROM T0",
            "SELECT (s & 1) AS bit, SUM(r * r + i * i) AS mass FROM T0 GROUP BY (s & 1) ORDER BY bit",
            "SELECT DISTINCT (s & 1) AS bit FROM T0 ORDER BY bit",
            "SELECT T0.s, G.out_s FROM T0 JOIN G ON G.in_s = (T0.s & 1) ORDER BY T0.s, G.out_s",
            f"WITH T1 AS ({_GATE_STEP_SQL}) SELECT COUNT(*) FROM T1",
            "SELECT s, COUNT(*) AS n, SUM(r) AS t FROM T0 GROUP BY s HAVING COUNT(*) > 0 ORDER BY s",
        ],
    )
    def test_same_rows(self, query):
        # Sorted: the LIMIT 2 query keeps two rows tied on its ORDER BY key.
        _assert_rows_close(sorted(_fresh_db().execute(query).rows), sorted(_sqlite_rows(query)))

    def test_fused_preserves_integer_key_dtype(self):
        db = _fresh_db()
        result = db.execute(_GATE_STEP_SQL)
        assert all(isinstance(row[0], int) for row in result.rows)


class TestCteColumnAliasList:
    """``WITH u(p, q) AS (SELECT ...)`` renames the body's output columns."""

    @pytest.mark.parametrize(
        "query",
        [
            "WITH u(p, q) AS (SELECT s, r FROM T0) SELECT q, p FROM u ORDER BY p",
            "WITH u(a, b) AS (SELECT T0.s, G.out_s FROM T0 JOIN G ON G.in_s = (T0.s & 1)) "
            "SELECT a, b FROM u ORDER BY a, b",
            "WITH u(k, w) AS (SELECT s, r FROM T0) "
            "SELECT u.k, G.out_s, u.w * G.r AS x FROM u JOIN G ON G.in_s = u.k "
            "ORDER BY u.k, G.out_s",
            "WITH u(bit, mass) AS (SELECT (s & 1), SUM(r * r + i * i) FROM T0 GROUP BY (s & 1)) "
            "SELECT bit, mass FROM u ORDER BY bit",
            "WITH u(a, b, c) AS (SELECT * FROM T0) SELECT c, a FROM u ORDER BY a",
            "WITH u(a, b, c) AS (SELECT * FROM T0 WHERE r > 0) SELECT * FROM u ORDER BY a",
            # The body orders and cuts by its own alias; the list renames it after.
            "WITH u(p, q) AS (SELECT s AS k, r AS v FROM T0 ORDER BY k DESC LIMIT 2) "
            "SELECT p, q FROM u ORDER BY p",
            "WITH u(p) AS (SELECT s FROM T0), v AS (SELECT p * 2 AS d FROM u) "
            "SELECT d FROM v ORDER BY d",
        ],
    )
    def test_matches_sqlite_cold_and_warm(self, query):
        db = _fresh_db()
        expected = _sqlite_rows(query)
        cold = db.execute(query).rows
        hits = db.plan_cache.stats()["hits"]
        warm = db.execute(query).rows
        assert db.plan_cache.stats()["hits"] == hits + 1
        _assert_rows_close(cold, expected)
        assert warm == cold

    def test_column_count_mismatch_raises(self):
        db = _fresh_db()
        with pytest.raises(
            SQLExecutionError, match="CTE 'u' declares 2 columns but its query returns 1"
        ):
            db.execute("WITH u(p, q) AS (SELECT s FROM T0) SELECT p FROM u")

    def test_ctas_body(self):
        db = _fresh_db()
        ctas = (
            "CREATE TABLE w AS "
            "WITH u(p, q) AS (SELECT s, r FROM T0 WHERE r > 0) SELECT p, q FROM u"
        )
        db.execute(ctas)
        query = "SELECT p, q FROM w ORDER BY p"
        _assert_rows_close(db.execute(query).rows, _sqlite_rows(query, ctas))

    def test_compiles_to_a_plan(self):
        plan = compile_statement(parse_one("WITH u(p) AS (SELECT s FROM T0) SELECT p FROM u"))
        assert isinstance(plan, CompiledScript)
        assert [(name, columns) for name, _plan, columns in plan.ctes] == [("u", ("p",))]

    def test_explain_shows_the_compiled_plan(self):
        db = _fresh_db()
        lines = [
            line for (line,) in db.execute(
                "EXPLAIN WITH u(p) AS (SELECT s FROM T0) SELECT p FROM u ORDER BY p"
            ).rows
        ]
        assert "u:" in lines and "  physical: scan -> project" in lines
        assert not any("interpreted statement" in line for line in lines)

    def test_traced_run_has_a_block_span_for_the_cte(self):
        tracer = Tracer(
            registry=MetricsRegistry(),
            ring=TraceRingBuffer(8),
            slow_log=SlowQueryLog(threshold_s=10.0),
        )
        db = _fresh_db(tracer=tracer)
        db.execute("WITH u(p) AS (SELECT s FROM T0) SELECT p FROM u ORDER BY p")
        root = tracer.recent_traces()[-1]
        execute = next(child for child in root["children"] if child["name"] == "execute")
        blocks = [child["attrs"] for child in execute["children"] if child["name"] == "block"]
        assert [(block["block"], block["rows"]) for block in blocks] == [("u", 4), ("main", 4)]


class TestJoinIndices:
    def test_matches_dict_join_order(self):
        left = np.array([3, 1, 2, 1, 9])
        right = np.array([1, 2, 1, 3])
        left_idx, right_idx = join_indices(left, right)
        pairs = list(zip(left_idx.tolist(), right_idx.tolist()))
        assert pairs == [(0, 3), (1, 0), (1, 2), (2, 1), (3, 0), (3, 2)]

    def test_nan_keys_never_match(self):
        left = np.array([1.0, np.nan, 2.0])
        right = np.array([np.nan, 1.0, np.nan])
        left_idx, right_idx = join_indices(left, right)
        assert left_idx.tolist() == [0]
        assert right_idx.tolist() == [1]

    def test_object_keys_fall_back(self):
        left = np.asarray(["a", "b", "a"], dtype=object)
        right = np.asarray(["a", "c"], dtype=object)
        left_idx, right_idx = join_indices(left, right)
        assert left_idx.tolist() == [0, 2]
        assert right_idx.tolist() == [0, 0]

    def test_empty_inputs(self):
        left_idx, right_idx = join_indices(np.empty(0, dtype=np.int64), np.array([1, 2]))
        assert left_idx.size == 0 and right_idx.size == 0


class TestPlanCacheSchemaFingerprint:
    """Regression: a dropped-and-recreated table with a different schema must
    never re-bind a stale compiled plan (entries are fingerprinted on the
    referenced tables' column names/dtypes, not just the SQL text)."""

    def test_schema_change_invalidates_cached_plan(self):
        cache = PlanCache()
        db = MemDatabase(plan_cache=cache)
        db.execute("CREATE TABLE t (a BIGINT, b DOUBLE)")
        db.execute("INSERT INTO t (a, b) VALUES (1, 2.0)")
        query = "SELECT a, b FROM t ORDER BY a"
        assert db.execute(query).rows == [(1, 2.0)]
        db.execute("DROP TABLE t")
        db.execute("CREATE TABLE t (a TEXT, b BIGINT)")
        db.execute("INSERT INTO t (a, b) VALUES ('x', 7)")
        before = cache.stats()["invalidations"]
        assert db.execute(query).rows == [("x", 7)]
        assert cache.stats()["invalidations"] == before + 1

    def test_stale_pushdown_attribution_is_recompiled(self):
        """The sharpest staleness case: the optimizer attributed a bare WHERE
        column to one table; after recreation the column lives in the *other*
        table.  Without the fingerprint the cached plan filters the wrong
        scan; with it the query recompiles and returns the right rows."""
        cache = PlanCache()
        db = MemDatabase(plan_cache=cache)
        db.execute("CREATE TABLE t1 (x BIGINT, y BIGINT)")
        db.execute("CREATE TABLE t2 (k BIGINT, z BIGINT)")
        db.execute("INSERT INTO t1 (x, y) VALUES (0, 1), (5, 2)")
        db.execute("INSERT INTO t2 (k, z) VALUES (1, 10), (2, 20)")
        query = "SELECT t1.y AS y, t2.z AS z FROM t1 JOIN t2 ON t2.k = t1.y WHERE x > 1 ORDER BY y"
        assert db.execute(query).rows == [(2, 20)]
        db.execute("DROP TABLE t1")
        db.execute("DROP TABLE t2")
        db.execute("CREATE TABLE t1 (y BIGINT)")
        db.execute("CREATE TABLE t2 (k BIGINT, z BIGINT, x BIGINT)")
        db.execute("INSERT INTO t1 (y) VALUES (1), (2)")
        db.execute("INSERT INTO t2 (k, z, x) VALUES (1, 10, 9), (2, 20, 0)")
        # x now belongs to t2: only (y=1, z=10) survives x > 1.
        assert db.execute(query).rows == [(1, 10)]

    def test_same_schema_recreation_still_hits(self):
        """Recreating an identical schema (the sweep pattern) must keep hitting."""
        cache = PlanCache()
        db = MemDatabase(plan_cache=cache)

        def build():
            db.execute("DROP TABLE IF EXISTS t")
            db.execute("CREATE TABLE t (a BIGINT)")
            db.execute("INSERT INTO t (a) VALUES (1), (2)")

        query = "SELECT a FROM t ORDER BY a"
        build()
        db.execute(query)
        hits_before = cache.stats()["hits"]
        build()
        db.execute(query)
        assert cache.stats()["hits"] > hits_before
        assert cache.stats()["invalidations"] == 0

    def test_fingerprint_is_validated_across_databases(self):
        """A shared cache must not leak plans between schema-divergent catalogs."""
        cache = PlanCache()
        db1 = MemDatabase(plan_cache=cache)
        db1.execute("CREATE TABLE t (a BIGINT)")
        db1.execute("INSERT INTO t (a) VALUES (1)")
        query = "SELECT a FROM t"
        assert db1.execute(query).rows == [(1,)]
        db2 = MemDatabase(plan_cache=cache)
        db2.execute("CREATE TABLE t (a TEXT, b BIGINT)")
        db2.execute("INSERT INTO t (a, b) VALUES ('q', 3)")
        assert db2.execute(query).rows == [("q",)]

    def test_mid_script_ddl_does_not_unfingerprint_earlier_reads(self):
        """A statement reading a table *before* the script drops/recreates it
        must still fingerprint the pre-script schema (regression)."""
        cache = PlanCache()
        db = MemDatabase(plan_cache=cache)
        db.execute("CREATE TABLE t1 (x BIGINT, y BIGINT)")
        db.execute("CREATE TABLE t2 (k BIGINT, z BIGINT)")
        db.execute("INSERT INTO t1 (x, y) VALUES (0, 1), (5, 2)")
        db.execute("INSERT INTO t2 (k, z) VALUES (1, 10), (2, 20)")
        script = (
            "SELECT t1.y AS y, t2.z AS z FROM t1 JOIN t2 ON t2.k = t1.y WHERE x > 1 ORDER BY y; "
            "DROP TABLE t1; DROP TABLE t2; "
            "CREATE TABLE t1 (y BIGINT); CREATE TABLE t2 (k BIGINT, z BIGINT, x BIGINT)"
        )
        db.execute(script)
        db.execute("INSERT INTO t1 (y) VALUES (1), (2)")
        db.execute("INSERT INTO t2 (k, z, x) VALUES (1, 10, 9), (2, 20, 0)")
        before = cache.stats()["invalidations"]
        db.execute(script)  # x moved to t2: stale attribution must recompile
        assert cache.stats()["invalidations"] == before + 1

"""Tests for the embedded columnar engine end to end (DDL, DML, queries)."""

import pytest

from repro.backends.memdb import MemDatabase
from repro.errors import SQLExecutionError


@pytest.fixture
def db():
    database = MemDatabase()
    database.execute("CREATE TABLE t (a BIGINT NOT NULL, b DOUBLE NOT NULL)")
    database.execute("INSERT INTO t (a, b) VALUES (1, 1.5), (2, 2.5), (3, 3.5), (2, 0.5)")
    return database


class TestCatalog:
    def test_create_and_row_count(self, db):
        assert db.has_table("t")
        assert db.row_count("t") == 4
        assert db.table_names() == ["t"]

    def test_duplicate_create_rejected(self, db):
        with pytest.raises(SQLExecutionError):
            db.execute("CREATE TABLE t (x BIGINT)")

    def test_drop(self, db):
        db.execute("DROP TABLE t")
        assert not db.has_table("t")
        db.execute("DROP TABLE IF EXISTS t")
        with pytest.raises(SQLExecutionError):
            db.execute("DROP TABLE t")

    def test_insert_requires_all_columns(self, db):
        with pytest.raises(SQLExecutionError):
            db.execute("INSERT INTO t (a) VALUES (9)")

    def test_estimated_bytes(self, db):
        assert db.estimated_bytes("t") > 0
        assert db.estimated_bytes() >= db.estimated_bytes("t")


class TestQueries:
    def test_projection_and_expression(self, db):
        result = db.execute("SELECT a * 2 AS twice, b FROM t ORDER BY twice")
        assert result.columns == ["twice", "b"]
        assert [row[0] for row in result.rows] == [2, 4, 4, 6]

    def test_where_filter(self, db):
        result = db.execute("SELECT a FROM t WHERE b > 1.0 ORDER BY a")
        assert [row[0] for row in result.rows] == [1, 2, 3]

    def test_group_by_sum(self, db):
        result = db.execute("SELECT a, SUM(b) AS total FROM t GROUP BY a ORDER BY a")
        assert result.rows == [(1, 1.5), (2, 3.0), (3, 3.5)]

    def test_aggregates_without_group_by(self, db):
        result = db.execute("SELECT COUNT(*), SUM(b), MIN(b), MAX(b), AVG(a) FROM t")
        count, total, minimum, maximum, average = result.rows[0]
        assert count == 4
        assert total == pytest.approx(8.0)
        assert minimum == pytest.approx(0.5)
        assert maximum == pytest.approx(3.5)
        assert average == pytest.approx(2.0)

    def test_aggregate_on_empty_table(self):
        db = MemDatabase()
        db.execute("CREATE TABLE empty (x BIGINT, y DOUBLE)")
        result = db.execute("SELECT COUNT(*), SUM(y) FROM empty")
        assert result.rows[0][0] == 0

    def test_having(self, db):
        result = db.execute("SELECT a, SUM(b) AS total FROM t GROUP BY a HAVING SUM(b) > 2 ORDER BY a")
        assert [row[0] for row in result.rows] == [2, 3]

    def test_join_on_expression(self):
        db = MemDatabase()
        db.execute("CREATE TABLE s (v BIGINT NOT NULL)")
        db.execute("INSERT INTO s (v) VALUES (0), (1), (2), (3)")
        db.execute("CREATE TABLE g (k BIGINT NOT NULL, label BIGINT NOT NULL)")
        db.execute("INSERT INTO g (k, label) VALUES (0, 10), (1, 11)")
        result = db.execute("SELECT s.v, g.label FROM s JOIN g ON g.k = (s.v & 1) ORDER BY s.v")
        assert result.rows == [(0, 10), (1, 11), (2, 10), (3, 11)]

    def test_bitwise_expressions(self, db):
        result = db.execute("SELECT (a & ~1) | 1 AS x, a << 2 AS y, a >> 1 AS z FROM t WHERE a = 3")
        assert result.rows[0] == (3, 12, 1)

    def test_order_by_desc_and_limit(self, db):
        result = db.execute("SELECT b FROM t ORDER BY b DESC LIMIT 2")
        assert [row[0] for row in result.rows] == [3.5, 2.5]

    def test_distinct(self, db):
        result = db.execute("SELECT DISTINCT a FROM t ORDER BY a")
        assert [row[0] for row in result.rows] == [1, 2, 3]

    def test_case_expression(self, db):
        result = db.execute("SELECT a, CASE WHEN b > 2 THEN 1 ELSE 0 END AS big FROM t ORDER BY a, big")
        assert (3, 1) in result.rows and (1, 0) in result.rows

    def test_with_cte_chain(self, db):
        result = db.execute(
            "WITH doubled AS (SELECT a * 2 AS a2, b FROM t), "
            "filtered AS (SELECT a2, b FROM doubled WHERE a2 > 2) "
            "SELECT COUNT(*) FROM filtered"
        )
        assert result.rows[0][0] == 3

    def test_create_table_as_and_delete(self, db):
        db.execute("CREATE TABLE big AS SELECT a, b FROM t WHERE b > 1")
        assert db.row_count("big") == 3
        result = db.execute("DELETE FROM big WHERE a = 2")
        assert result.rowcount == 1
        assert db.row_count("big") == 2

    def test_scalar_functions(self, db):
        result = db.execute("SELECT ABS(-2), SQRT(4.0), ROUND(2.7) FROM t LIMIT 1")
        assert result.rows[0] == (2, 2.0, 3.0)

    def test_unknown_table(self, db):
        with pytest.raises(SQLExecutionError):
            db.execute("SELECT * FROM nope")

    def test_unknown_column(self, db):
        with pytest.raises(SQLExecutionError):
            db.execute("SELECT nonexistent FROM t")

    def test_left_join_unsupported(self, db):
        db.execute("CREATE TABLE u (a BIGINT)")
        db.execute("INSERT INTO u (a) VALUES (1)")
        with pytest.raises(SQLExecutionError):
            db.execute("SELECT * FROM t LEFT JOIN u ON u.a = t.a")

    def test_non_equality_join_unsupported(self, db):
        db.execute("CREATE TABLE u (a BIGINT)")
        db.execute("INSERT INTO u (a) VALUES (1)")
        with pytest.raises(SQLExecutionError):
            db.execute("SELECT * FROM t JOIN u ON u.a > t.a")

    @pytest.mark.parametrize("aggregate", ["SUM", "AVG", "MIN"])
    def test_star_argument_only_counts(self, db, aggregate):
        # COUNT(*) is the only aggregate a star argument may feed.
        with pytest.raises(SQLExecutionError, match="not a valid aggregate"):
            db.execute(f"SELECT t.a AS a, {aggregate}(*) AS x FROM t GROUP BY t.a")


class TestResultVectorsAreReadOnly:
    """A pass-through projection returns the stored array; it must not be writable."""

    def test_write_to_a_result_vector_raises_and_the_table_is_unchanged(self):
        database = MemDatabase()
        database.execute("CREATE TABLE w (s BIGINT NOT NULL, name TEXT)")
        database.execute("INSERT INTO w (s, name) VALUES (1, 'a'), (2, 'b')")
        numbers, names = database.execute("SELECT s, name FROM w").vectors
        with pytest.raises(ValueError, match="read-only"):
            numbers[0] = 777
        with pytest.raises(ValueError, match="read-only"):
            getattr(names, "codes", names)[0] = 1
        assert database.execute("SELECT s, name FROM w").rows == [(1, "a"), (2, "b")]


class TestAgainstSQLiteReference:
    """The embedded engine must agree with SQLite on the query shapes Qymera generates."""

    @pytest.mark.parametrize(
        "query",
        [
            "SELECT a, SUM(b) AS s FROM t GROUP BY a ORDER BY a",
            "SELECT (a & 1) AS bit, SUM(b * b) AS p FROM t GROUP BY (a & 1) ORDER BY bit",
            "SELECT a FROM t WHERE (a >> 1) & 1 = 1 ORDER BY a",
            "SELECT COUNT(*) FROM t WHERE b < 3",
            "SELECT a * 2 + 1 AS x FROM t ORDER BY x DESC LIMIT 3",
        ],
    )
    def test_same_results_as_sqlite(self, query, db):
        import sqlite3

        reference = sqlite3.connect(":memory:")
        reference.execute("CREATE TABLE t (a INTEGER NOT NULL, b REAL NOT NULL)")
        reference.executemany("INSERT INTO t VALUES (?, ?)", [(1, 1.5), (2, 2.5), (3, 3.5), (2, 0.5)])
        expected = reference.execute(query).fetchall()
        got = db.execute(query).rows
        assert [tuple(row) for row in got] == pytest.approx(expected)


class TestSameNamedResultColumns:
    """Two projection items with one output name are still two result columns.

    Result vectors travel positionally: ``SELECT x.s, y.s`` used to return
    ``y.s`` twice because the second ``s`` overwrote the first in a dict
    keyed by output name.
    """

    SETUP = [
        "CREATE TABLE x (id BIGINT NOT NULL, s BIGINT NOT NULL)",
        "CREATE TABLE y (id BIGINT NOT NULL, s BIGINT NOT NULL)",
        "INSERT INTO x (id, s) VALUES (1, 10), (2, 20), (3, 30)",
        "INSERT INTO y (id, s) VALUES (1, 7), (2, 8), (3, 9)",
    ]

    @pytest.mark.parametrize(
        "query",
        [
            "SELECT x.s, y.s FROM x JOIN y ON x.id = y.id ORDER BY x.id",
            "SELECT x.s, y.s, x.s + y.s AS s FROM x JOIN y ON x.id = y.id ORDER BY x.id DESC LIMIT 2",
            "SELECT DISTINCT y.s, x.s FROM x JOIN y ON x.id = y.id",
            "SELECT x.s, y.s, COUNT(*) AS s FROM x JOIN y ON x.id = y.id GROUP BY x.s, y.s",
            "WITH j AS (SELECT x.s, y.s FROM x JOIN y ON x.id = y.id) SELECT j.s, j.s * 2 AS s FROM j",
            "SELECT s, s + 1 AS s FROM x ORDER BY id",
        ],
    )
    def test_matches_sqlite(self, query):
        import sqlite3

        from repro.backends.memdb.engine import PlanCache

        reference = sqlite3.connect(":memory:")
        database = MemDatabase(plan_cache=PlanCache(8))
        for statement in self.SETUP:
            reference.execute(statement)
            database.execute(statement)
        expected = reference.execute(query).fetchall()
        for _attempt in ("cold", "cached"):
            result = database.execute(query)
            assert sorted(result.rows) == sorted(expected)
            assert len(result.columns) == len(result.vectors) == len(expected[0])

    def test_issue_example(self):
        database = MemDatabase()
        for statement in self.SETUP:
            database.execute(statement)
        result = database.execute("SELECT x.s, y.s FROM x JOIN y ON x.id = y.id")
        assert result.columns == ["s", "s"]
        assert sorted(result.rows) == [(10, 7), (20, 8), (30, 9)]

    def test_create_table_as_rejects_duplicate_column_names(self):
        database = MemDatabase()
        for statement in self.SETUP:
            database.execute(statement)
        with pytest.raises(SQLExecutionError, match="duplicate column name"):
            database.execute("CREATE TABLE j AS SELECT x.s, y.s FROM x JOIN y ON x.id = y.id")
        assert not database.has_table("j")


class TestInsertTyping:
    """INSERT literals must respect declared column types instead of silently casting."""

    @pytest.fixture
    def typed(self):
        database = MemDatabase()
        database.execute("CREATE TABLE typed (n BIGINT NOT NULL, x DOUBLE NOT NULL, label TEXT)")
        return database

    def test_valid_rows_round_trip(self, typed):
        typed.execute("INSERT INTO typed (n, x, label) VALUES (1, 2.5, 'a'), (-3, 4, 'b')")
        rows = typed.execute("SELECT n, x, label FROM typed ORDER BY n").rows
        assert rows == [(-3, 4.0, "b"), (1, 2.5, "a")]

    def test_float_into_integer_column_rejected(self, typed):
        with pytest.raises(SQLExecutionError, match="integer column"):
            typed.execute("INSERT INTO typed (n, x, label) VALUES (1.5, 2.0, 'a')")
        assert typed.row_count("typed") == 0

    def test_string_into_real_column_rejected(self, typed):
        with pytest.raises(SQLExecutionError, match="real column"):
            typed.execute("INSERT INTO typed (n, x, label) VALUES (1, 'oops', 'a')")
        assert typed.row_count("typed") == 0

    def test_null_into_integer_column_rejected(self, typed):
        with pytest.raises(SQLExecutionError, match="integer column"):
            typed.execute("INSERT INTO typed (n, x, label) VALUES (NULL, 2.0, 'a')")

    def test_null_into_real_column_becomes_nan(self, typed):
        typed.execute("INSERT INTO typed (n, x, label) VALUES (1, NULL, 'a')")
        value = typed.execute("SELECT x FROM typed").rows[0][0]
        assert value != value  # NaN

    def test_object_column_preserves_values_on_empty_table(self, typed):
        typed.execute("INSERT INTO typed (n, x, label) VALUES (1, 1.0, 'first')")
        assert typed.table("typed").column("label").dtype == object
        assert typed.execute("SELECT label FROM typed").rows == [("first",)]

    def test_bad_row_leaves_table_unchanged(self, typed):
        typed.execute("INSERT INTO typed (n, x, label) VALUES (1, 1.0, 'ok')")
        with pytest.raises(SQLExecutionError):
            typed.execute("INSERT INTO typed (n, x, label) VALUES (2.5, 1.0, 'bad')")
        assert typed.row_count("typed") == 1

    def test_out_of_range_integer_rejected_cleanly(self, typed):
        with pytest.raises(SQLExecutionError, match="64-bit range"):
            typed.execute("INSERT INTO typed (n, x, label) VALUES (9223372036854775808, 1.0, 'big')")
        assert typed.row_count("typed") == 0

    def test_integral_float_into_integer_column_accepted(self, typed):
        typed.execute("INSERT INTO typed (n, x, label) VALUES (2.0, 1.0, 'a')")
        rows = typed.execute("SELECT n FROM typed").rows
        assert rows == [(2,)]

    def test_integer_strings_coerce_like_sqlite_affinity(self, typed):
        # Integer strings store losslessly (SQLite INTEGER affinity)...
        typed.execute("INSERT INTO typed (n, x, label) VALUES ('2', 0.5, 'a')")
        assert typed.execute("SELECT n, x FROM typed").rows == [(2, 0.5)]

    def test_numeric_string_into_real_column_rejected(self, typed):
        # ...but a numeric string into a DOUBLE column is a type error: the
        # old silent '1.5' -> 1.5 coercion violated declared-dtype
        # strictness (regression test for the float-column string leak).
        with pytest.raises(SQLExecutionError, match="real column"):
            typed.execute("INSERT INTO typed (n, x, label) VALUES (1, '1.5', 'a')")
        assert typed.row_count("typed") == 0

    def test_non_numeric_string_into_integer_column_rejected(self, typed):
        with pytest.raises(SQLExecutionError, match="integer column"):
            typed.execute("INSERT INTO typed (n, x, label) VALUES ('two', 1.0, 'a')")

    def test_large_integer_string_preserved_exactly(self, typed):
        # Above 2^53: a float round-trip would silently land on ...992.
        typed.execute("INSERT INTO typed (n, x, label) VALUES ('9007199254740993', 1.0, 'a')")
        assert typed.execute("SELECT n FROM typed").rows == [(9007199254740993,)]


class TestSelfJoin:
    def test_self_join_same_binding_still_executes(self, db):
        result = db.execute("SELECT t.a FROM t JOIN t ON t.a = t.a ORDER BY t.a")
        # 4 rows, values 1,2,2,3; each matches itself (and 2 matches both 2s).
        assert len(result.rows) == 6

    def test_self_join_with_aliases_compiles(self, db):
        result = db.execute(
            "SELECT p.a, q.a FROM t p JOIN t q ON q.a = p.a WHERE p.b < q.b ORDER BY p.a"
        )
        assert result.rows == [(2, 2)]


class TestPrepare:
    """prepare(): compile a query into the plan cache without executing it."""

    def _database(self):
        from repro.backends.memdb.engine import PlanCache

        cache = PlanCache()
        database = MemDatabase(plan_cache=cache)
        database.execute("CREATE TABLE t (a BIGINT NOT NULL, b DOUBLE NOT NULL)")
        database.execute("INSERT INTO t (a, b) VALUES (1, 1.5), (2, 2.5), (3, 3.5)")
        return database, cache

    def test_prepare_then_execute_hits_the_cache(self):
        database, cache = self._database()
        query = "SELECT a, SUM(b) AS total FROM t GROUP BY a ORDER BY a"
        assert database.prepare(query) == "prepared"
        planned = cache.stats()["planned"]
        assert planned >= 1
        hits_before = cache.stats()["hits"]
        result = database.execute(query)
        assert [row[0] for row in result.rows] == [1, 2, 3]
        stats = cache.stats()
        assert stats["planned"] == planned  # nothing recompiled
        assert stats["hits"] > hits_before

    def test_prepare_twice_reports_hit(self):
        database, _cache = self._database()
        query = "SELECT a FROM t ORDER BY a"
        assert database.prepare(query) == "prepared"
        assert database.prepare(query) == "hit"

    def test_prepare_never_executes(self):
        database, _cache = self._database()
        database.prepare("SELECT a FROM t ORDER BY a")
        # No result tables, no side effects: the catalog is untouched.
        assert database.table_names() == ["t"]
        assert database.row_count("t") == 3

    def test_prepare_rejects_non_query_statements(self):
        database, _cache = self._database()
        with pytest.raises(SQLExecutionError, match="prepare only supports"):
            database.prepare("DROP TABLE t")
        with pytest.raises(SQLExecutionError, match="prepare only supports"):
            database.prepare("INSERT INTO t (a, b) VALUES (9, 9.0)")
        assert database.row_count("t") == 3

    def test_prepared_plan_survives_table_recreation(self):
        """The sweep shape: drop + identically recreate, then re-bind the plan."""
        database, cache = self._database()
        query = "SELECT a, b FROM t ORDER BY a"
        database.prepare(query)
        planned = cache.stats()["planned"]
        database.execute("DROP TABLE t")
        database.execute("CREATE TABLE t (a BIGINT NOT NULL, b DOUBLE NOT NULL)")
        database.execute("INSERT INTO t (a, b) VALUES (7, 0.5)")
        result = database.execute(query)
        assert result.rows == [(7, 0.5)]
        assert cache.stats()["planned"] == planned

    def test_prepared_plan_invalidated_by_schema_change(self):
        database, cache = self._database()
        query = "SELECT a, b FROM t ORDER BY a"
        database.prepare(query)
        database.execute("DROP TABLE t")
        database.execute("CREATE TABLE t (a DOUBLE NOT NULL, b DOUBLE NOT NULL)")
        database.execute("INSERT INTO t (a, b) VALUES (1.25, 0.5)")
        result = database.execute(query)
        assert result.rows == [(1.25, 0.5)]
        assert cache.stats()["invalidations"] >= 1

    def test_prepare_with_cte_chain(self):
        database, _cache = self._database()
        query = (
            "WITH big AS (SELECT a, b FROM t WHERE b > 1.0) "
            "SELECT a, SUM(b) AS total FROM big GROUP BY a ORDER BY a"
        )
        assert database.prepare(query) == "prepared"
        result = database.execute(query)
        assert [row[0] for row in result.rows] == [1, 2, 3]


class TestConcurrentPlanCache:
    """Stress the thread-safe PlanCache.

    The supported concurrency model is one MemDatabase per worker sharing a
    process-wide PlanCache (the job service's EnginePool shape).  Workers
    hammer prepare/execute while interleaving DML that invalidates their
    statistics and DDL that changes a table's schema; the assertions are:
    every result is correct (no lost updates, no stale-schema rows), no
    worker deadlocks (joined with a timeout), and the cache's counters stay
    consistent.
    """

    def _worker(self, cache, worker_id, iterations, failures):
        from repro.backends.memdb.engine import MemDatabase

        try:
            database = MemDatabase(plan_cache=cache)
            database.execute(
                "CREATE TABLE w (a BIGINT NOT NULL, b DOUBLE NOT NULL)"
            )
            total_rows = 0
            query = "SELECT w.a, w.b FROM w ORDER BY w.b LIMIT 5"
            grouped = "SELECT w.a AS a, COUNT(*) AS n FROM w GROUP BY w.a ORDER BY a"
            database.prepare(query)
            for step in range(iterations):
                batch = [(step * 10 + offset, float(worker_id)) for offset in range(10)]
                values = ", ".join(f"({a}, {b!r})" for a, b in batch)
                database.execute(f"INSERT INTO w (a, b) VALUES {values}")  # invalidates stats
                total_rows += len(batch)
                result = database.execute(query)
                expected_rows = min(5, total_rows)
                if len(result.rows) != expected_rows:
                    failures.append((worker_id, "limit", len(result.rows), expected_rows))
                if any(row[1] != float(worker_id) for row in result.rows):
                    failures.append((worker_id, "cross-database row leak", result.rows))
                counted = database.execute(grouped)
                if sum(row[1] for row in counted.rows) != total_rows:
                    failures.append((worker_id, "lost update", counted.rows, total_rows))
                if step % 3 == 2:
                    # Schema churn under the shared cache: recreate with a
                    # different shape, run, then restore the original shape.
                    database.execute("DROP TABLE w")
                    database.execute("CREATE TABLE w (a DOUBLE NOT NULL, b DOUBLE NOT NULL)")
                    reshaped = database.execute(query)
                    if len(reshaped.rows) != 0:
                        failures.append((worker_id, "stale schema rows", reshaped.rows))
                    database.execute("DROP TABLE w")
                    database.execute("CREATE TABLE w (a BIGINT NOT NULL, b DOUBLE NOT NULL)")
                    total_rows = 0
        except Exception as error:  # pragma: no cover - surfaced via failures
            failures.append((worker_id, "exception", repr(error)))

    def test_concurrent_prepare_execute_dml(self):
        import threading

        from repro.backends.memdb.engine import PlanCache

        cache = PlanCache(maxsize=16)
        failures: list = []
        threads = [
            threading.Thread(target=self._worker, args=(cache, worker, 12, failures))
            for worker in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads), "worker deadlocked"
        assert not failures, failures
        stats = cache.stats()
        # Counter consistency: every lookup is exactly one hit or one miss.
        assert stats["hits"] > 0
        assert stats["misses"] > 0
        assert stats["size"] <= 2 * stats["maxsize"]

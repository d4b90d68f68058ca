"""Tests for the cost-based optimizer subsystem (stats, rewrites, cost, EXPLAIN)."""

import numpy as np
import pytest

from repro.backends.memdb import MemDatabase, PlanCache, parse_one
from repro.backends.memdb.ast_nodes import (
    BinaryOp,
    ColumnRef,
    Literal,
    Select,
    WithSelect,
)
from repro.backends.memdb.optimizer import CostModel, Optimizer, StatisticsCatalog
from repro.backends.memdb.optimizer.rewrite import fold_expression, rewrite_statement
from repro.backends.memdb.optimizer.stats import _column_stats
from repro.backends.memdb.planner import CompiledScript, compile_statement
from repro.errors import SQLExecutionError


def _expr(sql_expression: str):
    """Parse one scalar expression through the SELECT grammar."""
    statement = parse_one(f"SELECT {sql_expression} AS e")
    return statement.items[0].expression


def _where(sql_predicate: str):
    """Parse one predicate through the WHERE grammar."""
    return parse_one(f"SELECT 1 FROM d WHERE {sql_predicate}").where


def _gate_db() -> MemDatabase:
    db = MemDatabase(plan_cache=PlanCache())
    db.execute("CREATE TABLE T0 (s BIGINT NOT NULL, r DOUBLE NOT NULL, i DOUBLE NOT NULL)")
    db.execute(
        "INSERT INTO T0 (s, r, i) VALUES (0, 0.6, 0.0), (1, 0.8, 0.0), (2, 0.0, 0.6), (3, 0.0, -0.8)"
    )
    db.execute("CREATE TABLE G (in_s BIGINT NOT NULL, out_s BIGINT NOT NULL, r DOUBLE NOT NULL, i DOUBLE NOT NULL)")
    db.execute(
        "INSERT INTO G (in_s, out_s, r, i) VALUES "
        "(0, 0, 0.7071067811865476, 0.0), (0, 1, 0.7071067811865476, 0.0), "
        "(1, 0, 0.7071067811865476, 0.0), (1, 1, -0.7071067811865476, 0.0)"
    )
    return db


_GATE_STEP_SQL = (
    "SELECT ((T0.s & ~1) | G.out_s) AS s, "
    "SUM((T0.r * G.r) - (T0.i * G.i)) AS r, "
    "SUM((T0.r * G.i) + (T0.i * G.r)) AS i "
    "FROM T0 JOIN G ON G.in_s = (T0.s & 1) "
    "GROUP BY ((T0.s & ~1) | G.out_s)"
)


# ---------------------------------------------------------------------------
# Statistics catalog
# ---------------------------------------------------------------------------


class TestStatisticsCatalog:
    def test_analyze_computes_column_statistics(self):
        db = _gate_db()
        db.execute("ANALYZE T0")
        stats = db.statistics.get("T0")
        assert stats is not None
        assert stats.row_count == 4
        s = stats.column("s")
        assert (s.minimum, s.maximum, s.ndv, s.null_fraction) == (0.0, 3.0, 4, 0.0)

    def test_analyze_all_tables(self):
        db = _gate_db()
        result = db.execute("ANALYZE")
        assert result.rowcount == 2
        assert db.statistics.table_names() == ["G", "T0"]

    def test_analyze_unknown_table_raises(self):
        db = _gate_db()
        with pytest.raises(SQLExecutionError):
            db.execute("ANALYZE missing")

    def test_null_fraction_on_real_column(self):
        db = MemDatabase(plan_cache=PlanCache())
        db.execute("CREATE TABLE n (v DOUBLE)")
        db.execute("INSERT INTO n (v) VALUES (1.0), (NULL), (2.0), (NULL)")
        db.execute("ANALYZE n")
        column = db.statistics.get("n").column("v")
        assert column.null_fraction == pytest.approx(0.5)
        assert column.ndv == 2

    @pytest.mark.parametrize(
        "dml",
        [
            "INSERT INTO T0 (s, r, i) VALUES (9, 0.1, 0.0)",
            "DELETE FROM T0 WHERE s = 0",
            "DROP TABLE T0",
        ],
    )
    def test_dml_invalidates_statistics(self, dml):
        db = _gate_db()
        db.execute("ANALYZE T0")
        assert db.statistics.get("T0") is not None
        db.execute(dml)
        assert db.statistics.get("T0") is None
        assert db.statistics.invalidation_count >= 1

    def test_create_table_as_invalidates_stale_entry(self):
        db = _gate_db()
        db.execute("ANALYZE T0")
        db.execute("DROP TABLE T0")
        db.execute("CREATE TABLE T0 AS SELECT in_s AS s FROM G")
        assert db.statistics.get("T0") is None


class TestDistributionStatistics:
    def test_skewed_column_gets_mcv_entries(self):
        # 900 copies of 7, a hundred unique others: 7 must be an MCV.
        values = np.asarray([7] * 900 + list(range(100, 200)), dtype=np.int64)
        stats = _column_stats("x", values)
        assert stats.mcv and stats.mcv[0][0] == 7
        assert stats.mcv[0][1] == pytest.approx(900 / 1000)

    def test_uniform_column_gets_histogram_not_mcv(self):
        values = np.asarray([i % 64 for i in range(1024)], dtype=np.int64)
        stats = _column_stats("x", values)
        assert not stats.mcv
        assert len(stats.histogram) >= 2
        assert stats.histogram_fraction == pytest.approx(1.0)

    def test_eq_fraction_mcv_hit_and_miss(self):
        values = np.asarray([7] * 900 + list(range(100, 200)), dtype=np.int64)
        stats = _column_stats("x", values)
        assert stats.eq_fraction(7) == pytest.approx(0.9)
        # A non-MCV value: remaining mass spread over remaining NDV.
        miss = stats.eq_fraction(142)
        assert 0 < miss < 0.01

    def test_exhaustive_mcv_makes_unseen_value_empty(self):
        values = np.asarray([1] * 50 + [2] * 30, dtype=np.int64)
        stats = _column_stats("x", values)
        # ndv=2 <= both listed... when all distinct values are MCVs an
        # unseen literal matches nothing.
        if len(stats.mcv) == stats.ndv:
            assert stats.eq_fraction(99) == 0.0

    def test_histogram_range_fraction_beats_min_max_on_clustered_data(self):
        # Data clustered near 0 with one outlier at 1000: min/max
        # interpolation wildly overestimates "< 10"; the equi-depth
        # histogram does not.
        values = np.asarray(list(range(100)) + [100000], dtype=np.int64)
        stats = _column_stats("x", values)
        fraction = stats.range_fraction("<", 50)
        assert fraction == pytest.approx(50 / 101, abs=0.05)
        above = stats.range_fraction(">", 50)
        assert above == pytest.approx(51 / 101, abs=0.06)

    def test_range_fraction_none_without_distribution(self):
        values = np.asarray([], dtype=np.int64)
        stats = _column_stats("x", values)
        assert stats.range_fraction("<", 5) is None

    def test_nan_column_counts_as_nulls(self):
        values = np.asarray([1.0, np.nan, 2.0, np.nan], dtype=np.float64)
        stats = _column_stats("x", values)
        assert stats.null_fraction == pytest.approx(0.5)

    def test_object_column_mcv(self):
        values = np.empty(10, dtype=object)
        values[:] = ["hot"] * 8 + ["a", "b"]
        stats = _column_stats("x", values)
        assert stats.mcv and stats.mcv[0] == ("hot", pytest.approx(0.8))

    def test_selectivity_uses_mcv_through_cost_model(self):
        db = MemDatabase(plan_cache=PlanCache(0))
        db.execute("CREATE TABLE d (x BIGINT NOT NULL)")
        rows = ", ".join(["(7)"] * 90 + [f"({i})" for i in range(20, 30)])
        db.execute(f"INSERT INTO d (x) VALUES {rows}")
        db.execute("ANALYZE")
        model = CostModel(db._tables, db.statistics)
        assert model.selectivity(_where("x = 7"), "d") == pytest.approx(0.9)
        assert model.selectivity(_where("x != 7"), "d") == pytest.approx(0.1)
        assert model.selectivity(_where("x IN (7, 20)"), "d") == pytest.approx(0.91, abs=0.02)


# ---------------------------------------------------------------------------
# Rewrite rules
# ---------------------------------------------------------------------------


class TestConstantFolding:
    @pytest.mark.parametrize(
        "expression,expected",
        [
            ("~1", -2),
            ("-3", -3),
            ("2 + 3 * 4", 14),
            ("1 << 4", 16),
            ("12 & 10", 8),
            ("12 | 3", 15),
            ("-7 / 2", -3),  # SQL truncation toward zero
            ("7 / 2", 3),
            ("7.0 / 2", 3.5),
        ],
    )
    def test_folds_numeric_literals(self, expression, expected):
        folded, count = fold_expression(_expr(expression))
        assert count >= 1
        assert folded == Literal(expected)

    def test_zero_divisor_not_folded(self):
        folded, count = fold_expression(_expr("1 / 0"))
        assert count == 0
        assert isinstance(folded, BinaryOp)

    def test_overflowing_shift_not_folded(self):
        folded, count = fold_expression(_expr("1 << 200"))
        assert count == 0

    def test_folds_inside_column_expressions(self):
        folded, count = fold_expression(_expr("(s & ~1) | 0"))
        assert count == 1  # only the ~1 leaf is constant
        assert folded == BinaryOp(
            "|", BinaryOp("&", ColumnRef("s"), Literal(-2)), Literal(0)
        )

    def test_folded_query_results_unchanged(self):
        optimized = _gate_db()
        plain = MemDatabase(plan_cache=PlanCache(0), enable_optimizer=False)
        plain._tables = optimized._tables  # same data, optimizer off
        expected = plain.execute(_GATE_STEP_SQL).rows
        actual = optimized.execute(_GATE_STEP_SQL).rows
        assert len(actual) == len(expected)
        for left, right in zip(actual, expected):
            assert left[0] == right[0]
            assert left[1] == pytest.approx(right[1], abs=1e-12)
            assert left[2] == pytest.approx(right[2], abs=1e-12)


class TestPredicatePushdown:
    def test_single_table_conjuncts_move_to_scans(self):
        db = _gate_db()
        statement = parse_one(
            "SELECT T0.s, G.out_s FROM T0 JOIN G ON G.in_s = T0.s "
            "WHERE T0.r > 0.5 AND G.out_s = 1 AND T0.s + G.out_s < 9"
        )
        rewritten, log = rewrite_statement(statement, db._tables)
        assert log.predicates_pushed == 2
        assert rewritten.source.filter is not None
        assert rewritten.joins[0].source.filter is not None
        # The cross-table conjunct stays in WHERE.
        assert rewritten.where is not None
        assert {ref.table for ref in rewritten.where.column_refs} == {"T0", "G"}

    def test_pushdown_preserves_results(self):
        db = _gate_db()
        query = (
            "SELECT T0.s AS s, G.out_s AS o FROM T0 JOIN G ON G.in_s = (T0.s & 1) "
            "WHERE T0.r > 0.5 AND G.out_s = 1 ORDER BY s, o"
        )
        plain = MemDatabase(plan_cache=PlanCache(0), enable_optimizer=False)
        plain._tables = db._tables
        assert db.execute(query).rows == plain.execute(query).rows

    def test_filter_migrates_into_single_use_cte(self):
        db = _gate_db()
        statement = parse_one(
            "WITH agg AS (SELECT T0.s AS s, SUM(T0.r) AS total FROM T0 JOIN G ON G.in_s = T0.s GROUP BY T0.s), "
            "plain AS (SELECT agg.s AS s, agg.total AS total FROM agg JOIN G ON G.in_s = agg.s WHERE agg.s = 1) "
            "SELECT plain.s, plain.total FROM plain JOIN G ON G.in_s = plain.s ORDER BY plain.s"
        )
        rewritten, log = rewrite_statement(statement, db._tables)
        # `agg` has GROUP BY, so its filter cannot migrate; `plain` is
        # transparent but multiply constrained — assert at least the scan
        # pushdown happened and nothing was lost.
        assert log.predicates_pushed >= 1

    def test_join_free_consumer_filter_migrates_into_cte(self):
        """The common filtered-CTE shape — a single-source consumer with a
        WHERE on a non-inlinable CTE — must push the filter into the body."""
        statement = parse_one(
            "WITH c AS (SELECT a.k AS k, b.v AS v FROM a JOIN b ON b.j = a.j) "
            "SELECT v FROM c WHERE k = 1"
        )
        rewritten, log = rewrite_statement(statement, {})
        assert log.predicates_pushed == 1
        assert log.cte_filters_pushed == 1
        assert rewritten.ctes[0].query.where is not None
        assert rewritten.query.where is None
        assert rewritten.query.source.filter is None

    def test_duplicate_cte_names_back_off(self):
        """Duplicate CTE names (last definition wins) defeat name-keyed
        rewrites; WITH-level rules must back off (regression)."""
        db = MemDatabase(plan_cache=PlanCache(0))
        db.execute("CREATE TABLE t (k BIGINT)")
        db.execute("INSERT INTO t (k) VALUES (1)")
        db.execute("CREATE TABLE u (k2 BIGINT)")
        db.execute("INSERT INTO u (k2) VALUES (99)")
        query = "WITH x AS (SELECT k FROM t), x AS (SELECT k2 AS k FROM u) SELECT k FROM x"
        plain = MemDatabase(plan_cache=PlanCache(0), enable_optimizer=False)
        plain._tables = db._tables
        assert db.execute(query).rows == plain.execute(query).rows == [(99,)]

    def test_cte_pushdown_moves_predicate_inside_body(self):
        # A joined CTE body is not inlinable, so the filter must migrate.
        db = _gate_db()
        statement = parse_one(
            "WITH pick AS (SELECT T0.s AS s, T0.r AS r FROM T0 JOIN G ON G.in_s = T0.s) "
            "SELECT pick.s, G.out_s FROM pick JOIN G ON G.in_s = pick.s "
            "WHERE pick.r > 0.5 ORDER BY pick.s, G.out_s"
        )
        rewritten, log = rewrite_statement(statement, db._tables)
        assert log.predicates_pushed == 1
        assert log.cte_filters_pushed == 1
        body = rewritten.ctes[0].query
        assert body.where is not None
        # The main query no longer filters.
        assert rewritten.query.where is None
        assert rewritten.query.source.filter is None


class TestPushdownSafety:
    def test_self_join_same_binding_backs_off(self):
        """An unaliased self-join must not receive pushed filters (the
        predicate would attach to both scans bound to the same name)."""
        db = MemDatabase(plan_cache=PlanCache())
        db.execute("CREATE TABLE t (a BIGINT, b BIGINT)")
        db.execute("INSERT INTO t (a, b) VALUES (1, 1), (2, 1)")
        statement = parse_one("SELECT t.a FROM t JOIN t ON t.b = t.b WHERE a > 1 ORDER BY t.a")
        rewritten, log = rewrite_statement(statement, db._tables)
        assert log.predicates_pushed == 0
        assert rewritten.where is not None

    def test_catalog_table_shadowing_later_cte_name(self):
        """An earlier CTE body referencing a catalog table that shares a
        *later* CTE's name must not have rewrites misattributed to the CTE."""
        db = MemDatabase(plan_cache=PlanCache())
        db.execute("CREATE TABLE pick (a BIGINT, b BIGINT)")
        db.execute("INSERT INTO pick (a, b) VALUES (1, 10), (2, 20)")
        query = (
            "WITH first AS (SELECT pick.a AS a, pick.b AS b FROM pick WHERE pick.a > 0), "
            "pick AS (SELECT first.a AS a FROM first WHERE first.b > 15) "
            "SELECT pick.a AS a FROM pick ORDER BY a"
        )
        plain = MemDatabase(plan_cache=PlanCache(0), enable_optimizer=False)
        plain._tables = db._tables
        assert db.execute(query).rows == plain.execute(query).rows == [(2,)]


class TestInlineAliasShadowing:
    def test_consumer_order_by_alias_not_substituted(self):
        """ORDER BY on the consumer's own output alias must keep resolving to
        the alias, not to the CTE column of the same name (regression)."""
        db = MemDatabase(plan_cache=PlanCache(0))
        db.execute("CREATE TABLE t (a BIGINT, b BIGINT)")
        db.execute("INSERT INTO t (a, b) VALUES (1, 9), (2, 0), (3, 5)")
        query = "WITH c AS (SELECT a, b + 1 AS y FROM t) SELECT a AS y FROM c ORDER BY y"
        plain = MemDatabase(plan_cache=PlanCache(0), enable_optimizer=False)
        plain._tables = db._tables
        assert db.execute(query).rows == plain.execute(query).rows == [(1,), (2,), (3,)]


class TestPruningKeepsBodyOrderAliases:
    def test_cte_own_order_by_alias_survives(self):
        """A CTE output referenced only by the body's own ORDER BY must not be
        pruned (the alias resolves through the projection at run time)."""
        db = MemDatabase(plan_cache=PlanCache(0))
        db.execute("CREATE TABLE t (a BIGINT, b BIGINT)")
        db.execute("INSERT INTO t (a, b) VALUES (1, 9), (2, 0), (3, 5)")
        query = "WITH c AS (SELECT a, a + b AS s FROM t ORDER BY s) SELECT a FROM c"
        plain = MemDatabase(plan_cache=PlanCache(0), enable_optimizer=False)
        plain._tables = db._tables
        assert db.execute(query).rows == plain.execute(query).rows == [(2,), (3,), (1,)]

    def test_distinct_cte_never_pruned(self):
        """DISTINCT dedupes over the full projection: dropping a column would
        change the row count, so pruning must back off."""
        db = MemDatabase(plan_cache=PlanCache(0))
        db.execute("CREATE TABLE t (a BIGINT, b BIGINT)")
        db.execute("INSERT INTO t (a, b) VALUES (1, 1), (1, 2), (1, 2)")
        query = "WITH c AS (SELECT DISTINCT a, b FROM t) SELECT c.a AS a FROM c ORDER BY a"
        plain = MemDatabase(plan_cache=PlanCache(0), enable_optimizer=False)
        plain._tables = db._tables
        assert db.execute(query).rows == plain.execute(query).rows == [(1,), (1,)]


class TestCacheOptimizerFlagIsolation:
    def test_shared_cache_does_not_cross_optimizer_flags(self):
        """An optimizer-off database must never execute optimizer-rewritten
        plans cached by an optimizer-on database (and vice versa)."""
        cache = PlanCache()
        on = MemDatabase(plan_cache=cache)
        on.execute("CREATE TABLE u (a BIGINT)")
        on.execute("INSERT INTO u (a) VALUES (1)")
        query = "SELECT a + (1 + 1) AS v FROM u"
        assert on.execute(query).rows == [(3,)]
        off = MemDatabase(plan_cache=cache, enable_optimizer=False)
        off._tables = on._tables
        misses_before = cache.stats()["misses"]
        assert off.execute(query).rows == [(3,)]
        assert cache.stats()["misses"] == misses_before + 1

    def test_both_flavors_stay_warm_on_a_shared_cache(self):
        """The ablation pair must not thrash: each flavor keeps its own entry."""
        cache = PlanCache()
        on = MemDatabase(plan_cache=cache)
        on.execute("CREATE TABLE u (a BIGINT)")
        on.execute("INSERT INTO u (a) VALUES (1)")
        off = MemDatabase(plan_cache=cache, enable_optimizer=False)
        off._tables = on._tables
        query = "SELECT a FROM u"
        on.execute(query)
        off.execute(query)  # each flavor compiles once...
        hits_before = cache.stats()["hits"]
        for _ in range(2):
            on.execute(query)
            off.execute(query)
        assert cache.stats()["hits"] == hits_before + 4  # ...then always hits


class TestProjectionPruning:
    def test_dead_cte_columns_dropped(self):
        db = _gate_db()
        statement = parse_one(
            "WITH wide AS (SELECT T0.s AS s, T0.r AS r, T0.i AS i, T0.r * 2.0 AS dead FROM T0 JOIN G ON G.in_s = T0.s) "
            "SELECT wide.s AS s, wide.r AS r FROM wide JOIN G ON G.in_s = wide.s ORDER BY wide.s"
        )
        rewritten, log = rewrite_statement(statement, db._tables)
        assert log.columns_pruned == 2  # i and dead
        kept = [item.alias for item in rewritten.ctes[0].query.items]
        assert kept == ["s", "r"]

    def test_pruning_preserves_positional_output_names(self):
        """Dropping earlier items must not rename surviving ``col{N}``
        outputs (regression: downstream references broke after the shift)."""
        db = MemDatabase(plan_cache=PlanCache(0))
        db.execute("CREATE TABLE t (a BIGINT, b BIGINT)")
        db.execute("INSERT INTO t (a, b) VALUES (1, 2), (3, 3)")
        query = (
            "WITH c AS (SELECT a, b + 1 FROM t) "
            "SELECT c.col1 AS v FROM c JOIN t ON c.col1 = t.b ORDER BY v"
        )
        plain = MemDatabase(plan_cache=PlanCache(0), enable_optimizer=False)
        plain._tables = db._tables
        assert db.execute(query).rows == plain.execute(query).rows == [(3,)]

    def test_star_consumer_disables_pruning(self):
        db = _gate_db()
        statement = parse_one(
            "WITH wide AS (SELECT T0.s AS s, T0.r AS r FROM T0 JOIN G ON G.in_s = T0.s) "
            "SELECT * FROM wide ORDER BY s"
        )
        _rewritten, log = rewrite_statement(statement, db._tables)
        assert log.columns_pruned == 0


class TestCteInlining:
    def test_single_use_simple_cte_inlined(self):
        db = _gate_db()
        statement = parse_one(
            "WITH pick AS (SELECT T0.s AS s, T0.r AS r FROM T0 WHERE T0.r > 0.1) "
            "SELECT pick.s AS s, pick.r AS r FROM pick ORDER BY s"
        )
        rewritten, log = rewrite_statement(statement, db._tables)
        assert log.ctes_inlined == 1
        assert isinstance(rewritten, Select)  # the WITH disappeared entirely
        assert rewritten.source.name == "T0"
        assert rewritten.source.filter is not None  # body WHERE became a scan filter

    def test_inlined_results_match(self):
        db = _gate_db()
        query = (
            "WITH pick AS (SELECT T0.s AS s, T0.r AS r FROM T0 WHERE T0.r > 0.1) "
            "SELECT pick.s AS s, pick.r AS r FROM pick ORDER BY s"
        )
        plain = MemDatabase(plan_cache=PlanCache(0), enable_optimizer=False)
        plain._tables = db._tables
        assert db.execute(query).rows == plain.execute(query).rows

    def test_multi_use_cte_not_inlined(self):
        db = _gate_db()
        statement = parse_one(
            "WITH pick AS (SELECT T0.s AS s FROM T0), "
            "a AS (SELECT pick.s AS s FROM pick), "
            "b AS (SELECT pick.s AS s FROM pick) "
            "SELECT a.s FROM a JOIN b ON b.s = a.s ORDER BY a.s"
        )
        rewritten, log = rewrite_statement(statement, db._tables)
        names = [cte.name for cte in rewritten.ctes]
        assert "pick" in names  # referenced twice: must survive

    def test_inlined_bare_body_refs_qualified_in_joined_consumer(self):
        """A CTE body with bare column refs spliced into a multi-table
        consumer must qualify them with the source binding (regression:
        bare names are ambiguous after a join)."""
        db = MemDatabase(plan_cache=PlanCache(0))
        db.execute("CREATE TABLE t (a BIGINT, b BIGINT)")
        db.execute("INSERT INTO t (a, b) VALUES (1, 10), (2, 6), (3, 2)")
        db.execute("CREATE TABLE u (a BIGINT, c BIGINT)")
        db.execute("INSERT INTO u (a, c) VALUES (1, 100), (2, 200), (3, 400)")
        query = (
            "WITH w AS (SELECT a, b FROM t) "
            "SELECT w.b, u.c FROM w JOIN u ON u.a = w.a "
            "WHERE w.b > 5 AND u.c < 300 ORDER BY w.b"
        )
        plain = MemDatabase(plan_cache=PlanCache(0), enable_optimizer=False)
        plain._tables = db._tables
        assert db.execute(query).rows == plain.execute(query).rows == [(6, 200), (10, 100)]

    def test_shadowed_source_name_blocks_inlining(self):
        """The spliced-in table name must resolve identically in the
        consumer's scope; a CTE shadowing it there blocks inlining."""
        db = MemDatabase(plan_cache=PlanCache(0))
        db.execute("CREATE TABLE t (x BIGINT)")
        db.execute("INSERT INTO t (x) VALUES (1), (2), (3)")
        query = (
            "WITH a AS (SELECT x FROM t), t AS (SELECT x + 100 AS x FROM t) "
            "SELECT a.x FROM a ORDER BY a.x"
        )
        plain = MemDatabase(plan_cache=PlanCache(0), enable_optimizer=False)
        plain._tables = db._tables
        assert db.execute(query).rows == plain.execute(query).rows == [(1,), (2,), (3,)]

    def test_grouped_consumer_order_by_output_alias(self):
        """ORDER BY on an output alias of a grouped consumer must keep
        resolving against the aggregated outputs after inlining."""
        db = MemDatabase(plan_cache=PlanCache(0))
        db.execute("CREATE TABLE t (x BIGINT, z BIGINT)")
        db.execute("INSERT INTO t (x, z) VALUES (1, 10), (2, 20), (1, 5)")
        query = (
            "WITH a AS (SELECT t.x AS x, t.z AS z FROM t) "
            "SELECT a.x AS x, SUM(a.z) AS s FROM a GROUP BY a.x ORDER BY x"
        )
        plain = MemDatabase(plan_cache=PlanCache(0), enable_optimizer=False)
        plain._tables = db._tables
        assert db.execute(query).rows == plain.execute(query).rows == [(1, 15.0), (2, 20.0)]

    def test_distinct_consumer_order_by_output_alias(self):
        db = MemDatabase(plan_cache=PlanCache(0))
        db.execute("CREATE TABLE t (x BIGINT)")
        db.execute("INSERT INTO t (x) VALUES (2), (1), (2)")
        query = "WITH a AS (SELECT t.x AS x FROM t) SELECT DISTINCT a.x AS x FROM a ORDER BY x"
        plain = MemDatabase(plan_cache=PlanCache(0), enable_optimizer=False)
        plain._tables = db._tables
        assert db.execute(query).rows == plain.execute(query).rows == [(1,), (2,)]

    def test_grouped_cte_not_inlined(self):
        db = _gate_db()
        statement = parse_one(
            "WITH agg AS (SELECT T0.s AS s, SUM(T0.r) AS total FROM T0 GROUP BY T0.s) "
            "SELECT agg.s, agg.total FROM agg ORDER BY agg.s"
        )
        rewritten, log = rewrite_statement(statement, db._tables)
        assert log.ctes_inlined == 0
        assert isinstance(rewritten, WithSelect)


# ---------------------------------------------------------------------------
# Cost model: cardinalities and join ordering
# ---------------------------------------------------------------------------


def _three_table_db() -> MemDatabase:
    """big (4096 rows) -> mid (256) -> small (4): written order is worst."""
    db = MemDatabase(plan_cache=PlanCache())
    db.execute("CREATE TABLE big (k BIGINT NOT NULL, payload DOUBLE NOT NULL)")
    db.execute("CREATE TABLE mid (k BIGINT NOT NULL, v BIGINT NOT NULL)")
    db.execute("CREATE TABLE small (v BIGINT NOT NULL, w DOUBLE NOT NULL)")
    big_rows = ", ".join(f"({index % 64}, {index}.0)" for index in range(1024))
    db.execute(f"INSERT INTO big (k, payload) VALUES {big_rows}")
    mid_rows = ", ".join(f"({index % 64}, {index % 16})" for index in range(256))
    db.execute(f"INSERT INTO mid (k, v) VALUES {mid_rows}")
    db.execute("INSERT INTO small (v, w) VALUES (0, 1.0), (1, 2.0), (2, 3.0), (3, 4.0)")
    db.execute("ANALYZE")
    return db


class TestCardinalityEstimates:
    def test_table_rows_prefers_statistics(self):
        db = _three_table_db()
        model = CostModel(db._tables, db.statistics)
        assert model.table_rows("big") == 1024.0
        assert model.table_rows("unknown") == 1000.0  # default

    def test_key_frequency_uses_ndv(self):
        db = _three_table_db()
        model = CostModel(db._tables, db.statistics)
        # big.k has 64 distinct values over 1024 rows -> frequency 16.
        assert model.key_frequency("big", ColumnRef("k")) == pytest.approx(16.0)

    def test_join_upper_bound_is_pessimistic(self):
        # |L|=1024, f_L=16, |R|=256, f_R=4 -> min(1024*4, 256*16) = 4096.
        assert CostModel.join_upper_bound(1024, 16, 256, 4) == 4096

    def test_equality_selectivity_uses_ndv(self):
        db = _three_table_db()
        model = CostModel(db._tables, db.statistics)
        predicate = _expr("k = 3")
        assert model.selectivity(predicate, "big") == pytest.approx(1 / 64)

    def test_range_selectivity_interpolates_min_max(self):
        db = _three_table_db()
        model = CostModel(db._tables, db.statistics)
        # big.k spans [0, 63]; k < 16 covers about a quarter of the range.
        predicate = _expr("k < 16")
        assert model.selectivity(predicate, "big") == pytest.approx(16 / 63, rel=0.01)

    def test_estimates_never_underestimate_gate_join(self):
        db = _gate_db()
        db.execute("ANALYZE")
        model = CostModel(db._tables, db.statistics)
        statement = parse_one(_GATE_STEP_SQL)
        estimate = model.estimate_select_rows(statement)
        actual = len(db.execute(_GATE_STEP_SQL).rows)
        assert estimate >= actual


class TestJoinOrdering:
    _QUERY = (
        "SELECT small.w AS w, SUM(big.payload) AS total "
        "FROM big JOIN mid ON mid.k = big.k JOIN small ON small.v = mid.v "
        "WHERE small.w < 2.5 "
        "GROUP BY small.w"
    )

    def test_greedy_order_prefers_selective_join(self):
        db = _three_table_db()
        optimizer = Optimizer(db._tables, db.statistics)
        optimized, report, _cost = optimizer.optimize(parse_one(self._QUERY))
        decision = report.queries[0].join_order
        assert decision is not None
        # Written order joins mid (binding mid) first; the optimizer is free
        # to pick the cheaper order but must keep a connected join graph:
        # small joins on mid.v, so mid must come before small.
        assert decision.chosen.index("mid") < decision.chosen.index("small")
        assert len(decision.step_estimates) == 2

    def test_reordered_results_match_written_order(self):
        db = _three_table_db()
        plain = MemDatabase(plan_cache=PlanCache(0), enable_optimizer=False)
        plain._tables = db._tables
        expected = plain.execute(self._QUERY).rows
        actual = db.execute(self._QUERY).rows
        assert len(actual) == len(expected)
        for left, right in zip(sorted(actual), sorted(expected)):
            assert left[0] == right[0]
            assert left[1] == pytest.approx(right[1], rel=1e-12)

    def test_bare_star_disables_reordering(self):
        db = _three_table_db()
        optimizer = Optimizer(db._tables, db.statistics)
        statement = parse_one(
            "SELECT * FROM big JOIN mid ON mid.k = big.k JOIN small ON small.v = mid.v ORDER BY big.k"
        )
        _optimized, report, _cost = optimizer.optimize(statement)
        assert report.queries[0].join_order is None

    def test_unordered_ungrouped_query_not_reordered(self):
        db = _three_table_db()
        optimizer = Optimizer(db._tables, db.statistics)
        statement = parse_one(
            "SELECT big.payload FROM big JOIN mid ON mid.k = big.k JOIN small ON small.v = mid.v"
        )
        _optimized, report, _cost = optimizer.optimize(statement)
        assert report.queries[0].join_order is None


# ---------------------------------------------------------------------------
# Costed fusion choice + EXPLAIN
# ---------------------------------------------------------------------------


class TestFusionDecision:
    def test_gate_query_fuses_by_cost(self):
        db = _gate_db()
        db.execute("ANALYZE")
        optimizer = Optimizer(db._tables, db.statistics)
        optimized, _report, cost = optimizer.optimize(parse_one(_GATE_STEP_SQL))
        plan = compile_statement(optimized, cost)
        assert isinstance(plan, CompiledScript)
        decision = plan.query.fusion
        assert decision is not None and decision.eligible and decision.use_fused
        assert decision.fused_cost < decision.generic_cost
        assert plan.query.fused is not None

    def test_ineligible_shape_reports_no_fusion(self):
        db = _gate_db()
        plan = compile_statement(parse_one("SELECT T0.s FROM T0 ORDER BY T0.s"))
        assert plan.query.fusion is None


class TestExplain:
    def test_explain_shows_cost_based_fusion(self):
        db = _gate_db()
        db.execute("ANALYZE")
        text = "\n".join(row[0] for row in db.execute(f"EXPLAIN {_GATE_STEP_SQL}").rows)
        assert "fused join-aggregate [cost" in text
        assert "estimated rows" in text
        assert "plan cache:" in text

    def test_explain_does_not_execute(self):
        db = _gate_db()
        db.execute("EXPLAIN CREATE TABLE copy AS SELECT T0.s AS s FROM T0")
        assert not db.has_table("copy")

    def test_explain_analyze_executes_and_reports_actuals(self):
        db = _gate_db()
        rows = db.execute(f"EXPLAIN ANALYZE {_GATE_STEP_SQL}").rows
        text = "\n".join(row[0] for row in rows)
        assert "actual" in text
        assert "ms" in text

    def test_explain_analyze_create_materializes(self):
        db = _gate_db()
        db.execute("EXPLAIN ANALYZE CREATE TABLE copy AS SELECT T0.s AS s FROM T0")
        assert db.has_table("copy")
        assert db.row_count("copy") == 4

    def test_explain_interpreted_statement(self):
        db = _gate_db()
        text = "\n".join(
            row[0] for row in db.execute("EXPLAIN INSERT INTO T0 (s, r, i) VALUES (9, 0.0, 0.0)").rows
        )
        assert "interpreted statement" in text
        assert db.row_count("T0") == 4  # not executed

    def test_explain_cache_provenance(self):
        db = _gate_db()
        query = "SELECT T0.s FROM T0 ORDER BY T0.s"
        text = "\n".join(row[0] for row in db.execute(f"EXPLAIN {query}").rows)
        assert "plan cache: miss" in text
        db.execute(query)
        text = "\n".join(row[0] for row in db.execute(f"EXPLAIN {query}").rows)
        assert "plan cache: hit" in text

    def test_explain_statements_are_not_cached(self):
        db = _gate_db()
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
        text = "\n".join(lines)
        # Estimated AND actual cardinalities for every block of the chain.
        for label in ("s1:", "s2:", "s3:", "main:"):
            (header,) = [line for line in lines if line.startswith(label)]
            assert "estimated rows" in header, text
            assert "actual" in header, text

    def test_explain_analyze_executes_dml_like_postgres(self, db):
        db.execute("EXPLAIN ANALYZE DELETE FROM t WHERE a = 1")
        assert db.row_count("t") == 2

    def test_explain_reports_pre_limit_estimate(self, db):
        lines = [
            row[0]
            for row in db.execute("EXPLAIN SELECT t.a FROM t ORDER BY t.a LIMIT 1").rows
        ]
        (header,) = [line for line in lines if line.startswith("main:")]
        assert "pre-limit" in header


# ---------------------------------------------------------------------------
# Optimizer toggle
# ---------------------------------------------------------------------------


class TestOptimizerToggle:
    def test_disabled_optimizer_reports_no_rewrites(self):
        db = MemDatabase(plan_cache=PlanCache(0), enable_optimizer=False)
        db.execute("CREATE TABLE t (a BIGINT)")
        db.execute("INSERT INTO t (a) VALUES (1), (2)")
        db.execute("SELECT a + (1 + 1) AS b FROM t ORDER BY a")
        assert not any(db.engine_stats()["optimizer"]["counters"].values())

    def test_disabled_optimizer_explain_mentions_it(self):
        db = MemDatabase(plan_cache=PlanCache(0), enable_optimizer=False)
        db.execute("CREATE TABLE t (a BIGINT)")
        text = "\n".join(row[0] for row in db.execute("EXPLAIN SELECT a FROM t").rows)
        assert "optimizer: disabled" in text

    def test_enabled_optimizer_counts_activity(self):
        db = _gate_db()
        db.execute(_GATE_STEP_SQL)
        counters = db.engine_stats()["optimizer"]["counters"]
        assert counters["constant_folds"] >= 1

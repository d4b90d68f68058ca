"""Histogram/MCV statistics and the adaptive re-optimization feedback loop."""

import numpy as np
import pytest

from repro.backends.memdb import MemDatabase
from repro.backends.memdb.engine import PlanCache
from repro.backends.memdb.optimizer.cost import CostModel, select_shape
from repro.backends.memdb.optimizer.stats import StatisticsCatalog, _column_stats
from repro.backends.memdb.parser import parse_one


def _expr(sql: str):
    return parse_one(f"SELECT 1 FROM d WHERE {sql}").where


# ---------------------------------------------------------------------------
# Histogram / MCV collection
# ---------------------------------------------------------------------------


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
        assert model.selectivity(_expr("x = 7"), "d") == pytest.approx(0.9)
        assert model.selectivity(_expr("x != 7"), "d") == pytest.approx(0.1)
        assert model.selectivity(_expr("x IN (7, 20)"), "d") == pytest.approx(0.91, abs=0.02)


# ---------------------------------------------------------------------------
# Correction store
# ---------------------------------------------------------------------------


class TestCorrectionStore:
    def test_record_and_apply(self):
        catalog = StatisticsCatalog()
        factor = catalog.record_correction("t", "from:t|range(x)", 8.0)
        assert factor == pytest.approx(8.0)
        assert catalog.correction("t", "from:t|range(x)") == pytest.approx(8.0)
        assert catalog.correction("t", "other") == 1.0

    def test_corrections_compose_multiplicatively(self):
        catalog = StatisticsCatalog()
        catalog.record_correction("t", "s", 4.0)
        catalog.record_correction("t", "s", 2.0)
        assert catalog.correction("t", "s") == pytest.approx(8.0)

    def test_corrections_never_drop_below_one(self):
        catalog = StatisticsCatalog()
        catalog.record_correction("t", "s", 0.01)
        assert catalog.correction("t", "s") == 1.0

    def test_invalidation_drops_corrections(self):
        catalog = StatisticsCatalog()
        catalog.record_correction("t", "s", 5.0)
        catalog.record_correction("u", "s", 5.0)
        catalog.invalidate("t")
        assert catalog.correction("t", "s") == 1.0
        assert catalog.correction("u", "s") == pytest.approx(5.0)

    def test_analyze_drops_corrections_for_that_table(self):
        db = MemDatabase(plan_cache=PlanCache(0))
        db.execute("CREATE TABLE d (x BIGINT NOT NULL)")
        db.execute("INSERT INTO d (x) VALUES (1)")
        db.statistics.record_correction("d", "s", 5.0)
        db.execute("ANALYZE d")
        assert db.statistics.correction("d", "s") == 1.0

    def test_select_shape_elides_literals(self):
        a = parse_one("SELECT d.x FROM d WHERE d.x < 5")
        b = parse_one("SELECT d.x FROM d WHERE d.x < 99")
        c = parse_one("SELECT d.x FROM d WHERE d.x = 5")
        assert select_shape(a) == select_shape(b)
        assert select_shape(a) != select_shape(c)

    def test_correction_raises_estimates(self):
        db = MemDatabase(plan_cache=PlanCache(0))
        db.execute("CREATE TABLE d (x BIGINT NOT NULL)")
        db.execute("INSERT INTO d (x) VALUES " + ", ".join(f"({i})" for i in range(100)))
        statement = parse_one("SELECT d.x FROM d WHERE d.x < 5")
        model = CostModel(db._tables, db.statistics)
        baseline = model.estimate_select_rows(statement)
        db.statistics.record_correction("d", select_shape(statement), 3.0)
        assert model.estimate_select_rows(statement) == pytest.approx(baseline * 3.0)


# ---------------------------------------------------------------------------
# The feedback loop end to end
# ---------------------------------------------------------------------------


def _shifted_db(cache):
    """A database whose cached plan was compiled against 20 rows, then shifted."""
    db = MemDatabase(plan_cache=cache)
    db.execute("CREATE TABLE facts (x BIGINT NOT NULL, y DOUBLE NOT NULL)")
    db.execute(
        "INSERT INTO facts (x, y) VALUES "
        + ", ".join(f"({i % 5}, {i}.0)" for i in range(20))
    )
    return db


_SHIFT_QUERY = "SELECT facts.x, facts.y FROM facts ORDER BY facts.y LIMIT 10"


def _shift(db, rows=5000):
    db.execute(
        "INSERT INTO facts (x, y) VALUES "
        + ", ".join(f"({i % 5}, {i}.25)" for i in range(rows))
    )


class TestAdaptiveReplan:
    def test_distribution_shift_flags_replan(self):
        cache = PlanCache()
        db = _shifted_db(cache)
        db.execute(_SHIFT_QUERY)  # plan compiled at 20 rows (sort chosen)
        _shift(db)
        db.execute(_SHIFT_QUERY)  # stale plan executes; feedback fires
        stats = db.engine_stats()["adaptive"]
        assert stats["replans"] == 1
        assert stats["events"] and stats["events"][0]["q_error"] > 4
        assert cache.peek_state(_SHIFT_QUERY, db._tables, db.plan_flavor) == "replan"
        db.execute(_SHIFT_QUERY)  # re-plan happens on this lookup
        assert cache.stats()["replans"] == 1
        assert cache.peek_state(_SHIFT_QUERY, db._tables, db.plan_flavor) == "hit"

    def test_replanned_plan_switches_to_topk(self):
        cache = PlanCache()
        db = _shifted_db(cache)
        db.execute(_SHIFT_QUERY)
        _shift(db)
        db.execute(_SHIFT_QUERY)
        db.execute(_SHIFT_QUERY)  # replanned
        plan = "\n".join(row[0] for row in db.execute(f"EXPLAIN {_SHIFT_QUERY}").rows)
        assert "top-k (k=10)" in plan

    def test_replan_converges_no_thrash(self):
        cache = PlanCache()
        db = _shifted_db(cache)
        db.execute(_SHIFT_QUERY)
        _shift(db)
        for _ in range(5):
            db.execute(_SHIFT_QUERY)
        # One replan fixes the estimate; later executions must not re-flag.
        assert db.engine_stats()["adaptive"]["replans"] == 1
        assert cache.stats()["replans"] == 1

    def test_results_identical_across_replan(self):
        cache = PlanCache()
        db = _shifted_db(cache)
        db.execute(_SHIFT_QUERY)
        _shift(db)
        first = db.execute(_SHIFT_QUERY).rows
        second = db.execute(_SHIFT_QUERY).rows
        assert first == second

    def test_disabled_adaptive_keeps_stale_plan(self):
        cache = PlanCache()
        db = MemDatabase(plan_cache=cache, enable_adaptive=False)
        db.execute("CREATE TABLE facts (x BIGINT NOT NULL, y DOUBLE NOT NULL)")
        db.execute(
            "INSERT INTO facts (x, y) VALUES "
            + ", ".join(f"({i % 5}, {i}.0)" for i in range(20))
        )
        db.execute(_SHIFT_QUERY)
        _shift(db)
        db.execute(_SHIFT_QUERY)
        db.execute(_SHIFT_QUERY)
        assert db.engine_stats()["adaptive"]["replans"] == 0
        assert cache.stats()["replans"] == 0

    def test_correlated_predicate_records_correction(self):
        # a == b always: independence multiplies the selectivities and
        # underestimates ~50x even with fresh statistics, so the residual
        # error must be captured as a sticky correction factor.
        db = MemDatabase(plan_cache=PlanCache())
        db.execute("CREATE TABLE c (a BIGINT NOT NULL, b BIGINT NOT NULL)")
        db.execute(
            "INSERT INTO c (a, b) VALUES "
            + ", ".join(f"({i % 50}, {i % 50})" for i in range(5000))
        )
        db.execute("ANALYZE")
        query = "SELECT c.a FROM c WHERE c.a = 3 AND c.b = 3 ORDER BY c.a LIMIT 100"
        db.execute(query)
        corrections = db.statistics.corrections()
        assert corrections, "expected a correction for the correlated shape"
        ((key, factor),) = list(corrections.items())
        assert key[0] == "c"
        assert factor > 4
        # The corrected re-plan estimates ~actual: a second run stays quiet.
        db.execute(query)
        db.execute(query)
        assert db.engine_stats()["adaptive"]["replans"] == 1

    def test_explain_analyze_feeds_the_loop(self):
        # EXPLAIN ANALYZE re-optimizes fresh, so pure staleness (live row
        # counts) shows no error — but a correlated predicate's residual
        # misestimate is fed back exactly like a normal execution's.
        db = MemDatabase(plan_cache=PlanCache())
        db.execute("CREATE TABLE c (a BIGINT NOT NULL, b BIGINT NOT NULL)")
        db.execute(
            "INSERT INTO c (a, b) VALUES "
            + ", ".join(f"({i % 50}, {i % 50})" for i in range(5000))
        )
        db.execute("ANALYZE")
        db.execute("EXPLAIN ANALYZE SELECT c.a FROM c WHERE c.a = 3 AND c.b = 3")
        assert db.statistics.corrections()
        assert db.engine_stats()["adaptive"]["replans"] == 1


# ---------------------------------------------------------------------------
# EXPLAIN / EXPLAIN ANALYZE coverage (satellite)
# ---------------------------------------------------------------------------


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


class TestBackendSurfacing:
    def test_executable_provenance_carries_adaptive_stats(self):
        from repro.backends import MemDBBackend
        from repro.backends.memdb.engine import PlanCache
        from repro.circuits import ghz_circuit

        backend = MemDBBackend(plan_cache=PlanCache(maxsize=16))
        bound = backend.compile(ghz_circuit(3)).bind()
        bound.execute()
        adaptive = bound.executable.provenance["last_execution"]["adaptive"]
        assert adaptive["enabled"] is True
        assert "replans" in adaptive and "corrections" in adaptive

    @pytest.mark.parametrize(
        "options",
        [
            {},
            {"enable_adaptive": False},
            {"enable_parallel": True, "parallel_workers": 2, "parallel_threshold_rows": 1000},
        ],
        ids=["defaults", "no-adaptive", "parallel"],
    )
    def test_backend_engine_stats_same_before_and_after_first_run(self, options):
        # No environment is pinned: under REPRO_MEMDB_PARALLEL / REPRO_TRACE
        # the document must still describe the engine the run will use.
        from repro.backends import MemDBBackend
        from repro.circuits import ghz_circuit
        from repro.obs import flatten_counters

        def configuration(stats: dict) -> tuple:
            return (
                stats["optimizer"]["enabled"],
                stats["adaptive"]["enabled"],
                stats["adaptive"]["threshold"],
                stats["parallel"]["enabled"],
                stats["parallel"]["workers"],
                stats["parallel"]["threshold_rows"],
                stats["tracing"]["enabled"],
            )

        backend = MemDBBackend(plan_cache=PlanCache(maxsize=16), **options)
        before = backend.engine_stats()
        backend.run(ghz_circuit(3))
        after = backend.engine_stats()
        assert set(flatten_counters(before)) == set(flatten_counters(after))
        assert configuration(before) == configuration(after)
        assert before["adaptive"]["enabled"] is options.get("enable_adaptive", True)


class TestFeedbackHygiene:
    def test_cte_sourced_blocks_replan_without_sticky_corrections(self):
        # A grouped (non-inlinable) CTE consumer: the consumer block scans
        # the CTE by name.  CTE names never reach invalidate(), so no
        # correction may be recorded under them — the block only re-plans.
        db = MemDatabase(plan_cache=PlanCache())
        db.execute("CREATE TABLE base (g BIGINT NOT NULL, x BIGINT NOT NULL)")
        db.execute(
            "INSERT INTO base (g, x) VALUES "
            + ", ".join(f"({i % 10}, {i % 10})" for i in range(3000))
        )
        db.execute("ANALYZE")
        query = (
            "WITH c AS (SELECT base.g AS g, base.x AS x, COUNT(*) AS n "
            "FROM base GROUP BY base.g, base.x) "
            "SELECT c.g FROM c WHERE c.g = c.x"
        )
        db.execute(query)
        db.execute(query)
        assert all(key[0] != "c" for key in db.statistics.corrections())

    def test_clear_resets_adaptive_events(self):
        cache = PlanCache()
        db = _shifted_db(cache)
        db.execute(_SHIFT_QUERY)
        _shift(db)
        db.execute(_SHIFT_QUERY)
        assert db.engine_stats()["adaptive"]["events"]
        db.clear()
        assert db.engine_stats()["adaptive"]["events"] == []


# ---------------------------------------------------------------------------
# Correction decay / aging (PR 5)
# ---------------------------------------------------------------------------


class TestCorrectionDecay:
    def test_decay_needs_consecutive_observations(self):
        catalog = StatisticsCatalog()
        catalog.record_correction("t", "s", 16.0)
        # Two gross overestimates, then one accurate execution: streak resets.
        assert catalog.observe_correction("t", "s", 0.01, threshold=4.0) is None
        assert catalog.observe_correction("t", "s", 0.01, threshold=4.0) is None
        assert catalog.observe_correction("t", "s", 0.9, threshold=4.0) is None
        assert catalog.correction("t", "s") == pytest.approx(16.0)
        # Three consecutive gross overestimates decay the factor.
        assert catalog.observe_correction("t", "s", 0.01, threshold=4.0) is None
        assert catalog.observe_correction("t", "s", 0.01, threshold=4.0) is None
        decayed = catalog.observe_correction("t", "s", 0.01, threshold=4.0)
        assert decayed == pytest.approx(1.0)  # 16 * 0.01 clamps to 1
        assert catalog.correction("t", "s") == pytest.approx(1.0)
        assert catalog.decay_count == 1

    def test_decay_reanchors_to_observed_level(self):
        catalog = StatisticsCatalog()
        catalog.record_correction("t", "s", 100.0)
        for _ in range(2):
            assert catalog.observe_correction("t", "s", 0.1, threshold=4.0) is None
        # factor * ratio = 100 * 0.1 = 10: still > 1, so it survives partially.
        assert catalog.observe_correction("t", "s", 0.1, threshold=4.0) == pytest.approx(10.0)
        assert catalog.correction("t", "s") == pytest.approx(10.0)

    def test_observation_without_correction_is_noop(self):
        catalog = StatisticsCatalog()
        assert catalog.observe_correction("t", "s", 0.001, threshold=4.0) is None
        assert catalog.correction("t", "s") == 1.0
        assert catalog.decay_count == 0

    def test_in_band_ratio_keeps_factor(self):
        catalog = StatisticsCatalog()
        catalog.record_correction("t", "s", 8.0)
        # Within a threshold factor of the actual: the correction is useful.
        for _ in range(10):
            assert catalog.observe_correction("t", "s", 0.5, threshold=4.0) is None
        assert catalog.correction("t", "s") == pytest.approx(8.0)

    def test_record_correction_resets_streak(self):
        catalog = StatisticsCatalog()
        catalog.record_correction("t", "s", 8.0)
        catalog.observe_correction("t", "s", 0.01, threshold=4.0)
        catalog.observe_correction("t", "s", 0.01, threshold=4.0)
        catalog.record_correction("t", "s", 1.0)  # growth observation
        # The streak restarted: two more overestimates do not decay yet.
        assert catalog.observe_correction("t", "s", 0.01, threshold=4.0) is None
        assert catalog.observe_correction("t", "s", 0.01, threshold=4.0) is None
        assert catalog.correction("t", "s") == pytest.approx(8.0)

    def test_invalidation_drops_streaks(self):
        catalog = StatisticsCatalog()
        catalog.record_correction("t", "s", 8.0)
        catalog.observe_correction("t", "s", 0.01, threshold=4.0)
        catalog.invalidate("t")
        assert catalog._overestimate_streaks == {}

    def _correlated_db(self):
        """512 rows with perfectly correlated x == y (independence fails)."""
        db = MemDatabase(plan_cache=PlanCache(maxsize=8))
        db.execute("CREATE TABLE w (x BIGINT NOT NULL, y BIGINT NOT NULL)")
        db.execute(
            "INSERT INTO w (x, y) VALUES "
            + ", ".join(f"({i % 64}, {i % 64})" for i in range(512))
        )
        return db

    def test_shrink_then_grow_workload_recovers(self):
        """Literal drift both ways: the correction ages out, then re-learns.

        No DML ever touches the table, so invalidation never fires — decay
        is the only way back.  The workload first hits a dense region (the
        correction is learned from the correlated underestimate), then
        drifts to a sparse region (three consecutive gross overestimates
        decay the factor to 1), then back to a dense region (a fresh
        correction is learned).
        """
        db = self._correlated_db()
        dense = "SELECT w.x AS x FROM w WHERE w.x >= 0 AND w.y >= 0"
        shape = select_shape(parse_one(dense))

        db.execute(dense)  # underestimate observed -> correction recorded
        learned = db.statistics.correction("w", shape)
        assert learned > 4.0

        sparse = "SELECT w.x AS x FROM w WHERE w.x >= 63 AND w.y >= 63"
        assert select_shape(parse_one(sparse)) == shape
        for _ in range(3):
            db.execute(sparse)
        assert db.statistics.correction("w", shape) == pytest.approx(1.0)
        stats = db.engine_stats()["adaptive"]
        assert stats["decays"] == 1
        assert any("decay" in event for event in stats["events"])

        # The workload drifts back: a fresh dense query (factor 1 at compile)
        # underestimates again and re-learns a correction.
        db.execute("SELECT w.x AS x FROM w WHERE w.x >= 1 AND w.y >= 1")
        assert db.statistics.correction("w", shape) > 4.0

    def test_shrink_then_grow_table_via_dml_recovers(self):
        """The complementary path: DML invalidation clears corrections.

        A table that literally shrinks (DELETE) drops its corrections with
        its statistics; regrowing it re-learns them from fresh feedback —
        the two recovery mechanisms (invalidation for data changes, decay
        for workload drift) cover both directions.
        """
        db = self._correlated_db()
        dense = "SELECT w.x AS x FROM w WHERE w.x >= 0 AND w.y >= 0"
        shape = select_shape(parse_one(dense))
        db.execute(dense)
        assert db.statistics.correction("w", shape) > 4.0

        db.execute("DELETE FROM w WHERE w.x >= 8")  # shrink
        assert db.statistics.correction("w", shape) == 1.0

        db.execute(
            "INSERT INTO w (x, y) VALUES "
            + ", ".join(f"({i % 64}, {i % 64})" for i in range(512))
        )  # grow again
        db.execute("SELECT w.x AS x FROM w WHERE w.x >= 2 AND w.y >= 2")
        assert db.statistics.correction("w", shape) > 4.0

    def test_decay_flags_replan(self):
        """A decayed factor re-plans the flagged text on its next lookup."""
        db = self._correlated_db()
        dense = "SELECT w.x AS x FROM w WHERE w.x >= 0 AND w.y >= 0"
        sparse = "SELECT w.x AS x FROM w WHERE w.x >= 63 AND w.y >= 63"
        db.execute(dense)
        for _ in range(2):
            db.execute(sparse)
        assert db.plan_cache.peek_state(sparse, db._tables, db.plan_flavor) == "hit"
        db.execute(sparse)  # third consecutive overestimate -> decay + replan
        assert db.plan_cache.peek_state(sparse, db._tables, db.plan_flavor) == "replan"
        # Results stay identical across the re-plan.
        before = db.execute(sparse).rows
        after = db.execute(sparse).rows
        assert before == after

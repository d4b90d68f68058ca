"""Tests for the morsel-driven parallel execution subsystem.

The contract under test is strict: a parallel engine must return results
*byte-identical* to serial execution — same values, same bits, same order —
for every operator (filters, joins, group-by, top-k), because parallelism is
a costed physical plan choice, never a semantic one.  The differential tests
therefore compare raw rows with an exact matcher (NaN-aware, type-aware)
against a serial engine and, where affordable, against an optimizer-off
engine that compiles the statements exactly as written.
"""

from __future__ import annotations

import math
import os
import threading
import time

import numpy as np
import pytest

from repro.backends import MemDBBackend
from repro.backends.memdb.engine import MemDatabase, PlanCache
from repro.backends.memdb.executor import ExpressionEvaluator, apply_filter, join_indices
from repro.backends.memdb.optimizer.cost import CostModel, ParallelDecision
from repro.backends.memdb.parallel import (
    WorkerPool,
    morsel_ranges,
    parallel_apply_filter,
    parallel_join_indices,
    shared_worker_pool,
)
from repro.backends.memdb.parallel.pool import PARALLEL_ENV_VAR
from repro.backends.memdb.parser import parse_sql
from repro.errors import SQLExecutionError
from repro.service.session import QymeraSession


def _exact_equal(left, right) -> bool:
    """Row-for-row equality that distinguishes NaN-vs-value and types."""
    if len(left) != len(right):
        return False
    for row_a, row_b in zip(left, right):
        if len(row_a) != len(row_b):
            return False
        for a, b in zip(row_a, row_b):
            if isinstance(a, float) and isinstance(b, float):
                if math.isnan(a) != math.isnan(b):
                    return False
                if not math.isnan(a) and a != b:
                    return False
            elif a != b or type(a) is not type(b):
                return False
    return True


def assert_rows_identical(actual, expected, context=""):
    assert _exact_equal(actual, expected), f"{context}\nexpected {expected}\nactual   {actual}"


# ---------------------------------------------------------------------------
# Morsel partitioning
# ---------------------------------------------------------------------------


class TestMorselRanges:
    def test_covers_input_contiguously(self):
        for length in (0, 1, 7, 2_048, 65_537, 1_000_000):
            ranges = morsel_ranges(length, workers=4)
            assert sum(stop - start for start, stop in ranges) == length
            position = 0
            for start, stop in ranges:
                assert start == position and stop > start
                position = stop

    def test_large_input_gets_at_least_one_morsel_per_worker(self):
        ranges = morsel_ranges(1_000_000, workers=4)
        assert len(ranges) >= 4

    def test_tiny_input_stays_single_morsel(self):
        assert len(morsel_ranges(100, workers=4)) == 1

    def test_empty_input(self):
        assert morsel_ranges(0, workers=4) == []


# ---------------------------------------------------------------------------
# Worker pool
# ---------------------------------------------------------------------------


class TestWorkerPool:
    def test_map_preserves_order(self):
        pool = WorkerPool(3)
        try:
            assert pool.map(lambda x: x * x, list(range(20))) == [x * x for x in range(20)]
        finally:
            pool.shutdown()

    def test_exception_propagates_and_pool_stays_usable(self):
        pool = WorkerPool(3)
        try:
            def boom(x):
                if x == 5:
                    raise SQLExecutionError("morsel failure")
                return x

            with pytest.raises(SQLExecutionError, match="morsel failure"):
                pool.map(boom, list(range(10)))
            assert pool.stats()["errors"] == 1
            # The pool survives a failed batch.
            assert pool.map(lambda x: x + 1, [1, 2, 3]) == [2, 3, 4]
        finally:
            pool.shutdown()

    def test_shutdown_degrades_to_inline_execution(self):
        pool = WorkerPool(3)
        pool.shutdown()
        pool.shutdown()  # idempotent
        assert pool.map(lambda x: x * 2, [1, 2, 3]) == [2, 4, 6]
        stats = pool.stats()
        assert not stats["active"]
        assert stats["inline_batches"] >= 1

    def test_single_item_runs_inline(self):
        pool = WorkerPool(3)
        try:
            assert pool.map(lambda x: x, [7]) == [7]
            assert pool.stats()["batches"] == 0
        finally:
            pool.shutdown()

    def test_shared_pool_is_replaced_after_shutdown(self):
        pool = shared_worker_pool()
        assert shared_worker_pool() is pool
        pool.shutdown()
        replacement = shared_worker_pool()
        assert replacement is not pool and replacement.active


# ---------------------------------------------------------------------------
# Operator-level byte identity
# ---------------------------------------------------------------------------


def _select_of(sql: str):
    (statement,) = parse_sql(sql)
    return statement


class TestOperatorParity:
    def setup_method(self):
        self.pool = WorkerPool(3)
        rng = np.random.default_rng(7)
        n = 9_000
        self.frame = {
            "t.id": np.arange(n, dtype=np.int64),
            "t.v": np.round(rng.normal(size=n), 3),
            "t.k": rng.integers(-5, 5, n),
        }
        # NaNs sprinkled in to exercise NULL semantics.
        self.frame["t.v"][rng.integers(0, n, 200)] = np.nan
        self.length = n

    def teardown_method(self):
        self.pool.shutdown()

    def test_parallel_filter_identical(self):
        predicate = _select_of("SELECT t.id FROM t WHERE t.v > 0 AND t.k != 2").where
        serial_frame, serial_length = apply_filter(dict(self.frame), self.length, predicate)
        par_frame, par_length = parallel_apply_filter(dict(self.frame), self.length, predicate, self.pool)
        assert par_length == serial_length
        for key in serial_frame:
            np.testing.assert_array_equal(
                par_frame[key], serial_frame[key], strict=True
            )

    def test_parallel_join_indices_identical(self):
        rng = np.random.default_rng(11)
        left = rng.integers(0, 500, 8_000)
        right = rng.integers(0, 500, 3_000)
        serial = join_indices(left, right)
        parallel = parallel_join_indices(left, right, self.pool)
        np.testing.assert_array_equal(parallel[0], serial[0], strict=True)
        np.testing.assert_array_equal(parallel[1], serial[1], strict=True)

    def test_parallel_join_with_nan_keys_identical(self):
        rng = np.random.default_rng(13)
        left = rng.integers(0, 60, 4_000).astype(np.float64)
        right = rng.integers(0, 60, 4_000).astype(np.float64)
        left[rng.integers(0, 4_000, 300)] = np.nan
        right[rng.integers(0, 4_000, 300)] = np.nan
        serial = join_indices(left, right)
        parallel = parallel_join_indices(left, right, self.pool)
        np.testing.assert_array_equal(parallel[0], serial[0], strict=True)
        np.testing.assert_array_equal(parallel[1], serial[1], strict=True)

    def test_filter_error_propagates_from_worker(self):
        predicate = _select_of("SELECT t.id FROM t WHERE t.missing > 0").where
        with pytest.raises(SQLExecutionError, match="unknown column"):
            parallel_apply_filter(dict(self.frame), self.length, predicate, self.pool)


# ---------------------------------------------------------------------------
# Engine-level differential: parallel == serial, row for row
# ---------------------------------------------------------------------------


def _build_pair(rows: int = 4_000, seed: int = 3):
    """Parallel, serial and unoptimized engines over identical data.

    The parallel engine forces the costed decision to parallel on any
    non-empty input (threshold 0) so the operators are exercised even on
    test-sized tables.  The unoptimized engine compiles every statement as
    written, with no rewrites and no plan cache.
    """
    pool = WorkerPool(3)
    parallel = MemDatabase(
        plan_cache=PlanCache(maxsize=64),
        enable_parallel=True,
        parallel_threshold_rows=0,
        worker_pool=pool,
    )
    serial = MemDatabase(plan_cache=PlanCache(maxsize=64), enable_parallel=False)
    unoptimized = MemDatabase(plan_cache=PlanCache(0), enable_optimizer=False)

    rng = np.random.default_rng(seed)
    ids = np.arange(rows, dtype=np.int64)
    # Tie-heavy values, NaNs for NULL semantics, negative keys for hashing.
    values = np.round(rng.normal(size=rows) * 4, 1)
    values[rng.integers(0, rows, rows // 20)] = np.nan
    keys = rng.integers(-7, 7, rows)
    groups = rng.integers(0, 12, rows)
    dim_ids = np.arange(-7, 13, dtype=np.int64)
    weights = np.round(np.linspace(-2.0, 2.0, len(dim_ids)), 2)

    for db in (parallel, serial, unoptimized):
        db.load_table("t", {"id": ids, "v": values.copy(), "k": keys, "g": groups})
        db.load_table("d", {"id": dim_ids, "w": weights})
    return parallel, serial, unoptimized, pool


_DIFFERENTIAL_QUERIES = [
    # scans + filters + projections
    "SELECT t.id AS id, t.v * 2 + 1 AS e FROM t WHERE t.v > 0.5 ORDER BY t.id",
    "SELECT t.id AS id, t.v AS v FROM t WHERE t.k IN (1, -3, 5) AND t.v <= 1.5 ORDER BY t.id",
    # NULL handling through filters and projections
    "SELECT t.id AS id, t.v AS v FROM t WHERE t.v IS NOT NULL ORDER BY t.id",
    "SELECT t.id AS id, CASE WHEN t.v > 0 THEN t.v ELSE -t.v END AS a FROM t ORDER BY t.id",
    # joins (duplicate keys on both sides, NULL keys never match)
    "SELECT t.id AS id, d.w AS w FROM t JOIN d ON t.k = d.id ORDER BY t.id",
    "SELECT t.id AS id, t.v + d.w AS s FROM t JOIN d ON t.g = d.id WHERE d.w > -1 ORDER BY t.id",
    # group-by: sums over ties and NaNs must merge bit-identically
    "SELECT t.g AS g, SUM(t.v) AS sv, COUNT(*) AS n FROM t GROUP BY t.g",
    "SELECT t.k AS k, MIN(t.v) AS mn, MAX(t.v) AS mx, AVG(t.v) AS av FROM t GROUP BY t.k",
    "SELECT t.g AS g, SUM(t.v * t.v) AS s2 FROM t WHERE t.k > 0 GROUP BY t.g",
    # fused join-aggregate shape (the paper's hot path)
    "SELECT t.g AS g, SUM(t.v * d.w) AS s, COUNT(*) AS n FROM t JOIN d ON t.k = d.id GROUP BY t.g",
    # grouped shapes the partitioned path must *decline* (HAVING, multi-key)
    "SELECT t.g AS g, COUNT(*) AS n FROM t GROUP BY t.g HAVING COUNT(*) > 300",
    "SELECT t.g AS g, t.k AS k, SUM(t.v) AS s FROM t GROUP BY t.g, t.k",
    # order/limit tails over parallel blocks (top-k)
    "SELECT t.id AS id, t.v AS v FROM t WHERE t.v IS NOT NULL ORDER BY t.v ASC, t.id ASC LIMIT 25",
    "SELECT t.id AS id, t.v AS v FROM t ORDER BY t.v DESC, t.id ASC LIMIT 10 OFFSET 5",
    # CTE chains: every block gets its own parallel decision
    "WITH c AS (SELECT t.id AS id, t.v AS v, t.g AS g FROM t WHERE t.v > -1) "
    "SELECT c.g AS g, SUM(c.v) AS s FROM c GROUP BY c.g",
    "WITH c AS (SELECT t.k AS k, SUM(t.v) AS s FROM t GROUP BY t.k) "
    "SELECT c.k AS k, c.s + d.w AS e FROM c JOIN d ON c.k = d.id ORDER BY c.k",
]


class TestParallelSerialDifferential:
    def test_queries_byte_identical_across_engines(self):
        parallel, serial, unoptimized, pool = _build_pair()
        try:
            for sql in _DIFFERENTIAL_QUERIES:
                expected = serial.execute(sql).rows
                assert_rows_identical(parallel.execute(sql).rows, expected, sql)
                assert_rows_identical(unoptimized.execute(sql).rows, expected, sql)
                # Warm (plan-cached) execution must match the cold one.
                assert_rows_identical(parallel.execute(sql).rows, expected, sql + " [warm]")
            # The parallel engine really did run parallel plans.
            stats = parallel.engine_stats()["parallel"]
            assert stats["parallel_plan_executions"] > 0
            assert stats["pool"]["tasks"] > 0
        finally:
            pool.shutdown()

    def test_dml_between_executions_stays_identical(self):
        parallel, serial, _unoptimized, pool = _build_pair(rows=2_000)
        try:
            sql = "SELECT t.g AS g, SUM(t.v) AS s, COUNT(*) AS n FROM t GROUP BY t.g"
            assert_rows_identical(parallel.execute(sql).rows, serial.execute(sql).rows)
            for db in (parallel, serial):
                db.execute("DELETE FROM t WHERE t.k = 3")
                db.execute("INSERT INTO t (id, v, k, g) VALUES (100000, 0.125, 3, 1), (100001, -0.25, 3, 2)")
            assert_rows_identical(parallel.execute(sql).rows, serial.execute(sql).rows)
        finally:
            pool.shutdown()

    def test_text_columns_group_and_join_identically(self):
        pool = WorkerPool(3)
        parallel = MemDatabase(
            plan_cache=PlanCache(maxsize=8),
            enable_parallel=True,
            parallel_threshold_rows=0,
            worker_pool=pool,
        )
        serial = MemDatabase(plan_cache=PlanCache(maxsize=8), enable_parallel=False)
        names = np.array(["ab", "a", "", "zz", "é", "b"] * 300, dtype=object)
        ids = np.arange(len(names), dtype=np.int64)
        try:
            for db in (parallel, serial):
                db.load_table("s", {"id": ids, "name": names.copy()})
            for sql in [
                "SELECT s.id AS id, s.name AS name FROM s ORDER BY s.name DESC, s.id ASC LIMIT 9",
                "SELECT s.id AS id, s.name || '!' AS tagged FROM s WHERE s.id < 100 ORDER BY s.id",
            ]:
                assert_rows_identical(parallel.execute(sql).rows, serial.execute(sql).rows, sql)
        finally:
            pool.shutdown()


# ---------------------------------------------------------------------------
# Cost gate
# ---------------------------------------------------------------------------


class TestParallelCostGate:
    def test_disabled_model_is_ineligible(self):
        decision = CostModel(enable_parallel=False).parallel_decision(
            _select_of("SELECT t.id FROM t")
        )
        assert isinstance(decision, ParallelDecision)
        assert not decision.eligible and not decision.use_parallel

    def test_single_worker_is_ineligible(self):
        decision = CostModel(enable_parallel=True, parallel_workers=1).parallel_decision(
            _select_of("SELECT t.id FROM t")
        )
        assert not decision.eligible

    def test_small_input_chooses_serial_large_chooses_parallel(self):
        small = MemDatabase(plan_cache=PlanCache(), enable_parallel=True, parallel_workers=4)
        small.load_table("t", {"id": np.arange(100, dtype=np.int64)})
        select = _select_of("SELECT t.id AS id FROM t WHERE t.id > 3")
        model = small._optimizer().cost_model()
        decision = model.parallel_decision(select)
        assert decision.eligible and not decision.use_parallel

        big = MemDatabase(plan_cache=PlanCache(), enable_parallel=True, parallel_workers=4)
        big.load_table("t", {"id": np.arange(1_000_000, dtype=np.int64)})
        decision = big._optimizer().cost_model().parallel_decision(select)
        assert decision.use_parallel
        assert decision.parallel_cost < decision.serial_cost

    def test_explain_shows_the_decision(self):
        db = MemDatabase(plan_cache=PlanCache(), enable_parallel=True, parallel_workers=4)
        db.load_table("t", {"id": np.arange(1_000_000, dtype=np.int64)})
        plan = "\n".join(
            row[0] for row in db.execute("EXPLAIN SELECT t.id AS id FROM t WHERE t.id > 5").rows
        )
        assert "morsel-parallel (4 workers)" in plan

        serial_db = MemDatabase(plan_cache=PlanCache(), enable_parallel=True, parallel_workers=4)
        serial_db.load_table("t", {"id": np.arange(10, dtype=np.int64)})
        plan = "\n".join(
            row[0] for row in serial_db.execute("EXPLAIN SELECT t.id AS id FROM t WHERE t.id > 5").rows
        )
        assert "serial [cost" in plan

    def test_invalid_star_aggregates_raise_like_serial(self):
        # SUM(*)/AVG(*) are errors on the serial path; the partitioned
        # aggregation must decline them (falling back to the serial code
        # that raises), never silently return COUNT semantics.
        parallel, serial, _unoptimized, pool = _build_pair(rows=500)
        try:
            for sql in (
                "SELECT t.g AS g, SUM(*) AS s FROM t GROUP BY t.g",
                "SELECT t.g AS g, AVG(*) AS a FROM t GROUP BY t.g",
                "SELECT t.g AS g, MIN(*) AS m FROM t GROUP BY t.g",
            ):
                with pytest.raises(SQLExecutionError, match="not a valid aggregate"):
                    serial.execute(sql)
                with pytest.raises(SQLExecutionError, match="not a valid aggregate"):
                    parallel.execute(sql)
        finally:
            pool.shutdown()

    def test_shared_cache_keeps_parallel_flavors_distinct(self):
        # Plans bake their costed ParallelDecision, so engines with
        # different parallel configurations sharing one cache must compile
        # their own entries instead of re-binding each other's.
        cache = PlanCache(maxsize=8)
        serial = MemDatabase(plan_cache=cache, enable_parallel=False)
        pool = WorkerPool(2)
        parallel = MemDatabase(
            plan_cache=cache, enable_parallel=True, parallel_threshold_rows=0, worker_pool=pool
        )
        data = {"id": np.arange(2_000, dtype=np.int64), "g": np.arange(2_000) % 5}
        serial.load_table("t", dict(data))
        parallel.load_table("t", dict(data))
        sql = "SELECT t.g AS g, COUNT(*) AS n FROM t GROUP BY t.g"
        try:
            expected = serial.execute(sql).rows
            assert parallel.engine_stats()["parallel"]["parallel_plan_executions"] == 0
            # Despite the shared cache, the parallel engine compiles its own
            # flavor and actually executes the parallel operators.
            assert_rows_identical(parallel.execute(sql).rows, expected)
            assert parallel.engine_stats()["parallel"]["parallel_plan_executions"] == 1
            assert serial.plan_flavor != parallel.plan_flavor
            # Both flavors are now warm: each engine re-binds its own entry.
            hits_before = cache.stats()["hits"]
            serial.execute(sql)
            parallel.execute(sql)
            assert cache.stats()["hits"] == hits_before + 2
        finally:
            pool.shutdown()

    def test_parallel_plan_runs_serially_without_a_pool(self):
        # Plans hold only the decision, never threads: executing a
        # parallel-decided compiled script with pool=None runs serially
        # and returns identical rows.
        db = MemDatabase(
            plan_cache=PlanCache(maxsize=8),
            enable_parallel=True,
            parallel_threshold_rows=0,
            parallel_workers=2,
        )
        db.load_table("t", {"id": np.arange(500, dtype=np.int64)})
        from repro.backends.memdb.planner import compile_statement

        statement = _select_of("SELECT t.id AS id FROM t WHERE t.id >= 250 ORDER BY t.id")
        plan = compile_statement(statement, db._optimizer().cost_model())
        assert plan.uses_parallel()
        pool = WorkerPool(2)
        try:
            with_pool = plan.execute(db._tables, pool=pool)
            without_pool = plan.execute(db._tables, pool=None)
            np.testing.assert_array_equal(with_pool[1][0], without_pool[1][0], strict=True)
        finally:
            pool.shutdown()


# ---------------------------------------------------------------------------
# Lifecycle and stress
# ---------------------------------------------------------------------------


class TestPoolLifecycle:
    def test_queries_survive_concurrent_pool_shutdown(self):
        pool = WorkerPool(3)
        db = MemDatabase(
            plan_cache=PlanCache(maxsize=8),
            enable_parallel=True,
            parallel_threshold_rows=0,
            worker_pool=pool,
        )
        rng = np.random.default_rng(5)
        db.load_table(
            "t",
            {
                "id": np.arange(30_000, dtype=np.int64),
                "v": rng.normal(size=30_000),
                "g": rng.integers(0, 16, 30_000),
            },
        )
        sql = "SELECT t.g AS g, SUM(t.v) AS s FROM t GROUP BY t.g"
        expected = db.execute(sql).rows

        errors: list[BaseException] = []

        def hammer():
            try:
                for _ in range(10):
                    assert_rows_identical(db.execute(sql).rows, expected)
            except BaseException as exc:  # noqa: BLE001 — collected for the assert
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        time.sleep(0.02)
        pool.shutdown()  # mid-flight: later batches run inline
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors
        # And the engine keeps answering after the pool is gone.
        assert_rows_identical(db.execute(sql).rows, expected)

    def test_worker_exception_leaves_engine_consistent(self):
        pool = WorkerPool(3)
        db = MemDatabase(
            plan_cache=PlanCache(maxsize=8),
            enable_parallel=True,
            parallel_threshold_rows=0,
            worker_pool=pool,
        )
        try:
            db.load_table(
                "t", {"id": np.arange(5_000, dtype=np.int64), "name": np.array(["x"] * 5_000, dtype=object)}
            )
            # Comparing text to text with '<' works; sqrt of text raises
            # inside the morsel workers and must surface unchanged.
            with pytest.raises(Exception):
                db.execute("SELECT sqrt(t.name) AS b FROM t")
            result = db.execute("SELECT t.id AS id FROM t WHERE t.id < 3 ORDER BY t.id")
            assert [row[0] for row in result.rows] == [0, 1, 2]
        finally:
            pool.shutdown()


# ---------------------------------------------------------------------------
# Configuration plumbing
# ---------------------------------------------------------------------------


class TestParallelPlumbing:
    def test_env_variable_enables_parallel(self, monkeypatch):
        monkeypatch.setenv(PARALLEL_ENV_VAR, "1")
        assert MemDatabase(plan_cache=PlanCache()).enable_parallel
        monkeypatch.setenv(PARALLEL_ENV_VAR, "0")
        assert not MemDatabase(plan_cache=PlanCache()).enable_parallel
        monkeypatch.delenv(PARALLEL_ENV_VAR)
        assert not MemDatabase(plan_cache=PlanCache()).enable_parallel

    def test_explicit_flag_overrides_env(self, monkeypatch):
        monkeypatch.setenv(PARALLEL_ENV_VAR, "1")
        assert not MemDatabase(plan_cache=PlanCache(), enable_parallel=False).enable_parallel

    def test_engine_parallel_stats_shape(self):
        db = MemDatabase(plan_cache=PlanCache(), enable_parallel=False)
        stats = db.engine_stats()["parallel"]
        assert stats["enabled"] is False
        assert stats["pool"] == {}
        assert stats["parallel_plan_executions"] == 0

    def test_backend_and_session_expose_parallel_stats(self):
        backend = MemDBBackend(enable_parallel=True, parallel_workers=2)
        assert backend.engine_stats()["parallel"]["enabled"] is True

        session = QymeraSession()
        from repro.circuits import ghz_circuit

        session.circuits.add_circuit(ghz_circuit(3), "ghz")
        session.simulations.run("ghz", "memdb", enable_parallel=True, parallel_workers=2)
        stats = session.simulations.engine_stats(enable_parallel=True, parallel_workers=2)["parallel"]
        assert stats["enabled"] is True and stats["workers"] == 2

    def test_executable_provenance_carries_parallel_stats(self):
        from repro.circuits import ghz_circuit

        backend = MemDBBackend(enable_parallel=True, parallel_workers=2)
        executable = backend.compile(ghz_circuit(3))
        executable.bind().execute()
        provenance = executable.provenance
        assert provenance["last_execution"]["parallel"]["enabled"] is True

    def test_load_table_rejects_duplicates(self):
        db = MemDatabase(plan_cache=PlanCache())
        db.load_table("t", {"id": np.arange(3, dtype=np.int64)})
        assert db.row_count("t") == 3
        with pytest.raises(SQLExecutionError, match="already exists"):
            db.load_table("t", {"id": np.arange(3, dtype=np.int64)})

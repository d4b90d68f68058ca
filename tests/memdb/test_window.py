"""Window-function edge audit: handwritten adversarial shapes vs sqlite3.

The differential fuzzer (tests/properties/test_sql_fuzz.py) covers the
grammar breadth; this suite pins the named edge cases — empty/degenerate
partitions, all-NULL ORDER BY keys, rank vs dense_rank tie ladders,
lag/lead defaults past frame edges, unicode text partition keys — plus the
physical-layer contract that EXPLAIN surfaces the window operator.
"""

import sqlite3

import pytest

from repro.backends.memdb import MemDatabase
from repro.backends.memdb.engine import PlanCache
from repro.errors import SQLExecutionError

# ---------------------------------------------------------------------------
# Differential helper
# ---------------------------------------------------------------------------

#: One tie-and-NULL-heavy document table used by most cases below.  The
#: unicode partition keys ("Ω" > "é" > ASCII in code points) force the
#: dictionary's collation order through the partition/sort key space.
_TREE_DDL = [
    "CREATE TABLE doc (id BIGINT NOT NULL, part TEXT, k DOUBLE, v DOUBLE)",
    "INSERT INTO doc (id, part, k, v) VALUES "
    "(0, 'a', 1.0, 10.0), "
    "(1, 'a', 1.0, 20.0), "
    "(2, 'a', 2.0, NULL), "
    "(3, 'é', NULL, 1.0), "
    "(4, 'é', NULL, 2.0), "
    "(5, 'Ω', 5.0, NULL), "
    "(6, NULL, 1.0, 3.0), "
    "(7, NULL, 1.0, 4.0), "
    "(8, '', 0.0, 5.0)",
]


def _norm(rows):
    out = []
    for row in rows:
        values = []
        for value in row:
            if isinstance(value, float) and value != value:
                value = None  # NaN encodes NULL in memdb results
            elif isinstance(value, (int, float)) and not isinstance(value, bool):
                value = round(float(value), 7)
            values.append(value)
        out.append(tuple(values))
    return out


def assert_matches_sqlite(statements, sql):
    """Run ``sql`` on sqlite3 and every memdb flavor; all must agree."""
    reference = sqlite3.connect(":memory:")
    for statement in statements:
        reference.execute(statement)
    expected = _norm(reference.execute(sql).fetchall())
    reference.close()

    flavors = {
        "optimizer": MemDatabase(plan_cache=PlanCache(maxsize=8)),
        "plain": MemDatabase(plan_cache=PlanCache(maxsize=8), enable_optimizer=False),
    }
    for label, engine in flavors.items():
        for statement in statements:
            engine.execute(statement)
        for attempt in ("cold", "warm"):
            actual = _norm(engine.execute(sql).rows)
            assert actual == expected, (
                f"memdb[{label}][{attempt}] diverged on:\n{sql}\n"
                f"expected {expected}\nactual   {actual}"
            )
    return expected


# ---------------------------------------------------------------------------
# Ranking: ties, NULL keys, degenerate partitions
# ---------------------------------------------------------------------------


class TestRankingEdges:
    def test_rank_vs_dense_rank_tie_ladder(self):
        assert_matches_sqlite(
            _TREE_DDL,
            "SELECT id, rank() OVER (PARTITION BY part ORDER BY k) AS r, "
            "dense_rank() OVER (PARTITION BY part ORDER BY k) AS d "
            "FROM doc ORDER BY id",
        )

    def test_all_null_order_keys_are_one_peer_group(self):
        # Partition 'é' orders by an all-NULL key: every row is rank 1.
        rows = assert_matches_sqlite(
            _TREE_DDL,
            "SELECT id, rank() OVER (PARTITION BY part ORDER BY k) AS r "
            "FROM doc WHERE part = 'é' ORDER BY id",
        )
        assert [row[1] for row in rows] == [1, 1]

    def test_null_partition_key_forms_its_own_partition(self):
        rows = assert_matches_sqlite(
            _TREE_DDL,
            "SELECT id, count(*) OVER (PARTITION BY part) AS n FROM doc ORDER BY id",
        )
        assert rows[6][1] == 2 and rows[7][1] == 2  # the two NULL-part rows

    def test_rank_without_order_by_is_all_ones(self):
        assert_matches_sqlite(
            _TREE_DDL,
            "SELECT id, rank() OVER (PARTITION BY part) AS r, "
            "dense_rank() OVER () AS d FROM doc ORDER BY id",
        )

    def test_descending_order_places_nulls_last(self):
        assert_matches_sqlite(
            _TREE_DDL,
            "SELECT id, rank() OVER (ORDER BY k DESC) AS r FROM doc ORDER BY id",
        )

    def test_row_number_over_empty_table(self):
        assert_matches_sqlite(
            ["CREATE TABLE empty (id BIGINT NOT NULL, x DOUBLE)"],
            "SELECT id, row_number() OVER (ORDER BY x, id) AS rn, "
            "sum(x) OVER (PARTITION BY x) AS s FROM empty ORDER BY id",
        ) == []

    def test_single_row_partitions(self):
        assert_matches_sqlite(
            _TREE_DDL,
            "SELECT id, row_number() OVER (PARTITION BY id ORDER BY id) AS rn, "
            "sum(v) OVER (PARTITION BY id) AS s FROM doc ORDER BY id",
        )


# ---------------------------------------------------------------------------
# lag / lead: defaults past frame edges
# ---------------------------------------------------------------------------


class TestLagLeadEdges:
    def test_defaults_past_partition_edges(self):
        assert_matches_sqlite(
            _TREE_DDL,
            "SELECT id, lag(v) OVER (PARTITION BY part ORDER BY id) AS a, "
            "lead(v) OVER (PARTITION BY part ORDER BY id) AS b, "
            "lag(v, 2, -1.0) OVER (PARTITION BY part ORDER BY id) AS c, "
            "lead(v, 2, -1.0) OVER (PARTITION BY part ORDER BY id) AS d "
            "FROM doc ORDER BY id",
        )

    def test_default_only_fills_missing_rows_not_null_values(self):
        # Row 2's v IS NULL: lag onto it yields NULL, never the default.
        rows = assert_matches_sqlite(
            _TREE_DDL,
            "SELECT id, lag(v, 1, 99.0) OVER (PARTITION BY part ORDER BY id) AS a "
            "FROM doc WHERE part = 'a' ORDER BY id",
        )
        assert [row[1] for row in rows] == [99.0, 10.0, 20.0]

    def test_offset_zero_is_identity(self):
        assert_matches_sqlite(
            _TREE_DDL,
            "SELECT id, lag(v, 0) OVER (ORDER BY id) AS a, "
            "lead(v, 0, 7.0) OVER (ORDER BY id) AS b FROM doc ORDER BY id",
        )

    def test_offset_beyond_any_partition(self):
        assert_matches_sqlite(
            _TREE_DDL,
            "SELECT id, lag(v, 100) OVER (PARTITION BY part ORDER BY id) AS a, "
            "lead(v, 100, 0.5) OVER (PARTITION BY part ORDER BY id) AS b "
            "FROM doc ORDER BY id",
        )

    def test_text_values_and_text_defaults(self):
        assert_matches_sqlite(
            _TREE_DDL,
            "SELECT id, lag(part) OVER (ORDER BY id) AS a, "
            "lead(part, 1, '<none>') OVER (ORDER BY id) AS b FROM doc ORDER BY id",
        )


# ---------------------------------------------------------------------------
# Frames and running aggregates
# ---------------------------------------------------------------------------


class TestFrameEdges:
    def test_default_frame_includes_order_by_peers(self):
        # Rows 0 and 1 tie on k: SQLite's default frame (RANGE ... CURRENT
        # ROW) includes the whole peer group in both running sums.
        rows = assert_matches_sqlite(
            _TREE_DDL,
            "SELECT id, sum(v) OVER (PARTITION BY part ORDER BY k) AS s "
            "FROM doc WHERE part = 'a' ORDER BY id",
        )
        assert rows[0][1] == rows[1][1] == 30.0

    def test_empty_frames_yield_null_and_count_zero(self):
        # At the partition head, 3 PRECEDING..1 PRECEDING selects nothing.
        assert_matches_sqlite(
            _TREE_DDL,
            "SELECT id, sum(v) OVER (ORDER BY id ROWS BETWEEN 3 PRECEDING AND 1 PRECEDING) AS s, "
            "count(v) OVER (ORDER BY id ROWS BETWEEN 3 PRECEDING AND 1 PRECEDING) AS c, "
            "min(k) OVER (ORDER BY id ROWS BETWEEN 2 FOLLOWING AND 3 FOLLOWING) AS m "
            "FROM doc ORDER BY id",
        )

    def test_frames_clip_to_partition_bounds(self):
        assert_matches_sqlite(
            _TREE_DDL,
            "SELECT id, sum(v) OVER (PARTITION BY part ORDER BY id "
            "ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS s, "
            "max(v) OVER (PARTITION BY part ORDER BY id "
            "ROWS BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING) AS m "
            "FROM doc ORDER BY id",
        )

    def test_all_null_input_aggregates(self):
        assert_matches_sqlite(
            _TREE_DDL,
            "SELECT id, sum(v) OVER (PARTITION BY part) AS s, "
            "avg(v) OVER (PARTITION BY part) AS a, count(v) OVER (PARTITION BY part) AS c "
            "FROM doc WHERE part = 'Ω' ORDER BY id",
        )

    def test_count_star_vs_count_column_over_nulls(self):
        assert_matches_sqlite(
            _TREE_DDL,
            "SELECT id, count(*) OVER (ORDER BY id) AS a, count(v) OVER (ORDER BY id) AS b "
            "FROM doc ORDER BY id",
        )


# ---------------------------------------------------------------------------
# Unicode partitions, composition, misuse
# ---------------------------------------------------------------------------


class TestPartitionAndComposition:
    def test_unicode_text_partition_keys(self):
        assert_matches_sqlite(
            _TREE_DDL,
            "SELECT id, part, row_number() OVER (PARTITION BY part ORDER BY id) AS rn, "
            "rank() OVER (ORDER BY part) AS r FROM doc ORDER BY id",
        )

    def test_window_over_cte_output(self):
        assert_matches_sqlite(
            _TREE_DDL,
            "WITH filtered AS (SELECT id, part, v FROM doc WHERE v > 1.0) "
            "SELECT id, sum(v) OVER (PARTITION BY part ORDER BY id) AS s "
            "FROM filtered ORDER BY id",
        )

    def test_multiple_specs_share_one_query(self):
        assert_matches_sqlite(
            _TREE_DDL,
            "SELECT id, row_number() OVER (PARTITION BY part ORDER BY id) AS a, "
            "rank() OVER (ORDER BY k, id) AS b, "
            "sum(v) OVER (ORDER BY id ROWS BETWEEN 1 PRECEDING AND CURRENT ROW) AS c "
            "FROM doc ORDER BY id",
        )

    def test_window_with_limit_tail(self):
        assert_matches_sqlite(
            _TREE_DDL,
            "SELECT id, row_number() OVER (ORDER BY k, id) AS rn "
            "FROM doc ORDER BY id DESC LIMIT 4 OFFSET 2",
        )


class TestWindowMisuse:
    @pytest.fixture()
    def db(self):
        engine = MemDatabase()
        for statement in _TREE_DDL:
            engine.execute(statement)
        return engine

    @pytest.mark.parametrize("optimizer", [True, False], ids=["optimizer", "plain"])
    def test_window_in_where_rejected_identically(self, optimizer):
        engine = MemDatabase(enable_optimizer=optimizer)
        for statement in _TREE_DDL:
            engine.execute(statement)
        with pytest.raises(SQLExecutionError, match="only allowed in the SELECT list"):
            engine.execute("SELECT id FROM doc WHERE row_number() OVER () = 1")

    def test_window_with_group_by_rejected(self, db):
        with pytest.raises(SQLExecutionError, match="GROUP BY"):
            db.execute("SELECT part, count(*), rank() OVER () FROM doc GROUP BY part")

    def test_window_with_star_rejected(self, db):
        with pytest.raises(SQLExecutionError, match="'\\*' projection"):
            db.execute("SELECT *, row_number() OVER () FROM doc")

    def test_unknown_window_function(self, db):
        with pytest.raises(SQLExecutionError, match="unknown window function"):
            db.execute("SELECT ntile(4) OVER (ORDER BY id) FROM doc")

    def test_text_window_aggregate_rejected(self, db):
        with pytest.raises(SQLExecutionError, match="text columns"):
            db.execute("SELECT min(part) OVER () FROM doc")


# ---------------------------------------------------------------------------
# Physical layer: EXPLAIN rendering
# ---------------------------------------------------------------------------


_WINDOW_SQL = (
    "SELECT id, part, rank() OVER (PARTITION BY part ORDER BY k, id) AS r, "
    "sum(v) OVER (PARTITION BY part ORDER BY id) AS s FROM doc ORDER BY id"
)


class TestWindowPhysical:
    def test_optimizer_on_and_off_results_byte_identical(self):
        optimized = MemDatabase(plan_cache=PlanCache(maxsize=8))
        unoptimized = MemDatabase(plan_cache=PlanCache(0), enable_optimizer=False)
        for statement in _TREE_DDL:
            optimized.execute(statement)
            unoptimized.execute(statement)
        expected = unoptimized.execute(_WINDOW_SQL).rows
        assert expected
        for _attempt in ("cold", "warm"):
            rows = optimized.execute(_WINDOW_SQL).rows
            assert len(rows) == len(expected)
            for left, right in zip(rows, expected):
                for a, b in zip(left, right):
                    both_nan = (
                        isinstance(a, float) and isinstance(b, float) and a != a and b != b
                    )
                    assert both_nan or (a == b and type(a) is type(b))

    def test_explain_shows_window_operator(self):
        db = MemDatabase()
        for statement in _TREE_DDL:
            db.execute(statement)
        plan = "\n".join(row[0] for row in db.execute(f"EXPLAIN {_WINDOW_SQL}").rows)
        assert "-> window" in plan

    def test_explain_analyze_window_traces_rows(self):
        db = MemDatabase()
        for statement in _TREE_DDL:
            db.execute(statement)
        plan = "\n".join(row[0] for row in db.execute(f"EXPLAIN ANALYZE {_WINDOW_SQL}").rows)
        assert "-> window" in plan and "actual" in plan

    def test_plan_cache_flavors_unchanged_by_windows(self):
        # Windowed statements ride the same per-flavor cache as everything
        # else: one optimizer-on entry, one optimizer-off entry.
        cache = PlanCache(maxsize=8)
        db = MemDatabase(plan_cache=cache)
        for statement in _TREE_DDL:
            db.execute(statement)
        db.execute(_WINDOW_SQL)
        first = db.execute(_WINDOW_SQL)
        assert _norm(first.rows) == _norm(db.execute(_WINDOW_SQL).rows)

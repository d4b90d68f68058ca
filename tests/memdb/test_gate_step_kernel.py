"""The per-gate hot loop: expression kernels, CTE edges, join and grouped-SUM kernels.

Five contracts are pinned here:

* bitwise operators propagate NULL exactly like SQLite (they used to cast
  NaN to an arbitrary int64), and literal-only subtrees evaluate to the same
  rows whether or not a FROM clause broadcasts them;
* a CTE result handed to the next block as bare column vectors gives the
  rows a stored table gave, and ``CREATE TABLE AS`` never aliases the table
  it read;
* direct-address grouping and sort-based grouping return byte-identical
  group structure — and therefore bit-identical SUMs — on every int64 key
  column;
* the direct-address join and the sort + ``searchsorted`` join return the
  same index pairs on every pair of integer key columns, and only integer
  keys are ever addressed directly;
* what the fused step evaluates below the join and gathers is what the
  generic pipeline evaluates over the joined rows, bit for bit.
"""

from __future__ import annotations

import sqlite3
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.backends.memdb import MemDatabase, parse_one
from repro.backends.memdb import executor as executor_module
from repro.backends.memdb import planner as planner_module
from repro.backends.memdb.ast_nodes import BinaryOp, ColumnRef
from repro.backends.memdb.column import DictArray, encoded_codes
from repro.backends.memdb.engine import PlanCache
from repro.backends.memdb.executor import factorize_codes, join_indices

_SETTINGS = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def _sqlite_rows(setup: list[str], sql: str) -> list[tuple]:
    connection = sqlite3.connect(":memory:")
    try:
        for statement in setup:
            connection.execute(statement)
        return connection.execute(sql).fetchall()
    finally:
        connection.close()


def _null_normalized(rows) -> list[tuple]:
    """memdb encodes a NULL in a numeric column as NaN, SQLite as None."""
    return [
        tuple(None if isinstance(v, float) and v != v else v for v in row) for row in rows
    ]


def _engines() -> list[tuple[str, MemDatabase]]:
    return [("memdb", MemDatabase(plan_cache=PlanCache(maxsize=16)))]


# ---------------------------------------------------------------------------
# Expression kernels
# ---------------------------------------------------------------------------


class TestBitwiseNullPropagation:
    SETUP = [
        "CREATE TABLE t (id BIGINT NOT NULL, x DOUBLE, y DOUBLE)",
        "INSERT INTO t (id, x, y) VALUES (0, 1.5, 2.0), (1, NULL, 3.0), (2, -2.0, NULL), "
        "(3, 6.75, 1.0), (4, NULL, NULL)",
    ]

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT t.id, t.x & 1, ~t.x, t.x << 1, t.x >> 1, t.x | t.y FROM t ORDER BY t.id",
            "SELECT t.id, t.id & t.x, 6 | t.y, (t.x & 3) + 1 FROM t ORDER BY t.id",
            "SELECT (t.x & 1) AS k, COUNT(*) AS n FROM t GROUP BY (t.x & 1) ORDER BY k",
            "SELECT t.id FROM t WHERE (t.x & 1) = 0 ORDER BY t.id",
            "SELECT NULL & 1, ~NULL, 1 | NULL, 1.7 & 1, ~2.9",
        ],
    )
    def test_matches_sqlite_without_cast_warnings(self, sql):
        expected = _sqlite_rows(self.SETUP, sql)
        for label, db in _engines():
            for statement in self.SETUP:
                db.execute(statement)
            with warnings.catch_warnings():
                # The old evaluator cast NaN to int64: garbage plus a
                # "invalid value encountered in cast" RuntimeWarning.
                warnings.simplefilter("error")
                rows = db.execute(sql).rows
            assert _null_normalized(rows) == expected, f"{label}: {sql}"

    def test_null_rows_do_not_join_group_zero(self):
        db = MemDatabase(plan_cache=PlanCache(maxsize=4))
        for statement in self.SETUP:
            db.execute(statement)
        rows = db.execute(
            "SELECT (t.x & 1) AS k, COUNT(*) AS n FROM t GROUP BY (t.x & 1) ORDER BY k"
        ).rows
        assert _null_normalized(rows) == [(None, 2), (0, 2), (1, 1)]

    def test_integer_operands_keep_integer_results(self):
        db = MemDatabase(plan_cache=PlanCache(maxsize=4))
        for statement in self.SETUP:
            db.execute(statement)
        rows = db.execute("SELECT t.id & 1, ~t.id, t.id << 2, t.id | 8 FROM t ORDER BY t.id").rows
        assert rows[3] == (1, -4, 12, 11)
        assert all(type(value) is int for row in rows for value in row)


class TestScalarSubtrees:
    """Constant subtrees stay scalar until the one top-level broadcast."""

    @pytest.mark.parametrize(
        "items",
        ["5 & 3", "~1", "5 & -3, 6 | -1", "1 << 3, 256 >> 2, 7 | 8", "(2 + 3) * 4, 7 / 2, -7 % 3", "1.5 * 2, 7.0 / 2"],
    )
    def test_literal_only_items_with_and_without_from(self, items):
        setup = ["CREATE TABLE t (id BIGINT NOT NULL)", "INSERT INTO t (id) VALUES (0), (1), (2)"]
        for label, db in _engines():
            for statement in setup:
                db.execute(statement)
            for sql in (f"SELECT {items}", f"SELECT {items} FROM t"):
                expected = _sqlite_rows(setup, sql)
                rows = db.execute(sql).rows
                assert rows == expected, f"{label}: {sql}"
                assert [tuple(map(type, row)) for row in rows] == [
                    tuple(map(type, row)) for row in expected
                ], f"{label}: {sql}"

    def test_grouped_constant_items(self):
        db = MemDatabase(plan_cache=PlanCache(maxsize=4))
        db.execute("CREATE TABLE t (g BIGINT NOT NULL, v DOUBLE NOT NULL)")
        db.execute("INSERT INTO t (g, v) VALUES (1, 0.5), (1, 1.5), (2, 4.0)")
        rows = db.execute(
            "SELECT t.g AS g, 7, SUM(t.v) * 2 + 1, COUNT(*) & 1 FROM t GROUP BY t.g ORDER BY g"
        ).rows
        assert rows == [(1, 7, 5.0, 0), (2, 7, 9.0, 1)]

    def test_int64_column_is_not_copied_on_its_way_to_the_kernels(self):
        codes = np.arange(8, dtype=np.int64)
        assert encoded_codes(codes) is codes


# ---------------------------------------------------------------------------
# CTE edges
# ---------------------------------------------------------------------------


class TestCteEdges:
    SETUP = [
        "CREATE TABLE T0 (s BIGINT NOT NULL, r DOUBLE NOT NULL, i DOUBLE NOT NULL)",
        "INSERT INTO T0 (s, r, i) VALUES (0, 0.5, 0.0), (1, 0.0, -0.5), (2, 0.5, 0.5), (3, -0.5, 0.0)",
    ]

    @pytest.mark.parametrize(
        "sql",
        [
            # pass-through CTE: every column is the stored table's own vector
            "WITH a AS (SELECT s, r, i FROM T0) SELECT a.s, a.r + a.i FROM a ORDER BY a.s",
            # one CTE scanned twice under two bindings
            "WITH a AS (SELECT T0.s AS s, T0.r * 2 AS r FROM T0) "
            "SELECT x.s AS xs, y.s AS ys, x.r + y.r AS t FROM a AS x JOIN a AS y ON y.s = (x.s & 1) "
            "ORDER BY xs, ys",
            # a text literal a block computes reaches the next block as text
            "WITH a AS (SELECT T0.s AS s, 'q' AS tag FROM T0) "
            "SELECT a.s, a.tag || '!' FROM a WHERE a.tag = 'q' ORDER BY a.s",
            # chained blocks, the middle one empty
            "WITH a AS (SELECT s, r FROM T0 WHERE s > 9), b AS (SELECT a.s AS s FROM a) "
            "SELECT COUNT(*), SUM(b.s) FROM b",
        ],
    )
    def test_rows_match_sqlite_compiled_and_interpreted(self, sql):
        expected = _sqlite_rows(self.SETUP, sql)
        for label, db in _engines():
            for statement in self.SETUP:
                db.execute(statement)
            for attempt in ("cold", "warm"):
                rows = _null_normalized(db.execute(sql).rows)
                assert rows == expected, f"{label}[{attempt}]: {sql}"

    def test_create_table_as_does_not_alias_its_source(self):
        db = MemDatabase(plan_cache=PlanCache(maxsize=8))
        for statement in self.SETUP:
            db.execute(statement)
        before = db.execute("SELECT s, r, i FROM T0 ORDER BY s").rows
        db.execute("CREATE TABLE x AS WITH a AS (SELECT s, r, i FROM T0) SELECT s, r, i FROM a")
        for column in ("s", "r", "i"):
            assert not np.shares_memory(db.table("x").column(column), db.table("T0").column(column))
        db.execute("INSERT INTO x (s, r, i) VALUES (9, 9.0, 9.0)")
        db.execute("DELETE FROM x WHERE s < 2")
        assert db.execute("SELECT s, r, i FROM x ORDER BY s").rows == before[2:] + [(9, 9.0, 9.0)]
        assert db.execute("SELECT s, r, i FROM T0 ORDER BY s").rows == before
        # ... and the other direction: DML on the source leaves the copy alone.
        db.execute("DELETE FROM T0")
        assert db.execute("SELECT COUNT(*) FROM x").rows == [(3,)]

    def test_stored_result_is_a_real_table(self):
        db = MemDatabase(plan_cache=PlanCache(maxsize=8))
        for statement in self.SETUP:
            db.execute(statement)
        db.execute("CREATE TABLE x AS WITH a AS (SELECT s, r FROM T0) SELECT s, r FROM a")
        assert db.table("x").schema_signature() == (("s", "int64"), ("r", "float64"))
        assert db.table("x").storage_stats()["rows"] == 4


# ---------------------------------------------------------------------------
# Grouping kernels
# ---------------------------------------------------------------------------


def _reference_factorize(codes: np.ndarray):
    _unique, first_indices, inverse = np.unique(codes, return_index=True, return_inverse=True)
    return first_indices, inverse.ravel(), len(first_indices)


def _grouped_columns(codes: np.ndarray, weights: np.ndarray, factorize) -> list[bytes]:
    """The fused operator's ``(key, SUM, COUNT)`` columns, as raw bytes."""
    first_indices, inverse, num_groups = factorize(codes)
    return [
        codes[first_indices].tobytes(),
        np.bincount(inverse, weights=weights, minlength=num_groups).tobytes(),
        np.bincount(inverse, minlength=num_groups).astype(np.int64).tobytes(),
    ]


_INT64 = np.iinfo(np.int64)


@st.composite
def _key_columns(draw) -> np.ndarray:
    """int64 key columns on both sides of the span-vs-rows selection."""
    shape = draw(st.sampled_from(["dense", "offset", "sparse", "extremes", "tiny"]))
    if shape == "tiny":
        values = draw(st.lists(st.integers(_INT64.min, _INT64.max), min_size=0, max_size=1))
    elif shape == "extremes":
        # Spans that do not fit int64: computing them must not wrap.
        pool = [_INT64.min, _INT64.min + 1, -1, 0, 1, _INT64.max - 1, _INT64.max]
        values = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
    else:
        base = draw(
            st.sampled_from([0, -7, 1 << 40, -(1 << 50), _INT64.max - 300, _INT64.min])
        )
        width = {"dense": 16, "offset": 256, "sparse": 1 << 30}[shape]
        base = min(base, _INT64.max - width + 1)
        values = [
            base + draw(st.integers(0, width - 1))
            for _ in range(draw(st.integers(min_value=1, max_value=48)))
        ]
        # Duplicated keys in shuffled order: first-row and accumulation
        # order are what must survive.
        values = draw(st.permutations(values + values[: len(values) // 2]))
    return np.array(values, dtype=np.int64)


class TestGroupingKernelEquivalence:
    @given(codes=_key_columns(), seed=st.integers(0, 2**16))
    @_SETTINGS
    def test_direct_address_and_sort_grouping_are_byte_identical(self, codes, seed):
        weights = np.random.default_rng(seed).normal(size=len(codes)) * 1e3
        expected = _grouped_columns(codes, weights, _reference_factorize)
        assert _grouped_columns(codes, weights, factorize_codes) == expected
        first_indices, inverse, _groups = factorize_codes(codes)
        assert first_indices.dtype == np.int64 and inverse.dtype == np.int64
        # Forcing the sort path on the same keys changes nothing either.
        with mock.patch.object(executor_module, "_DENSE_SLOTS_PER_ROW", 0):
            assert _grouped_columns(codes, weights, factorize_codes) == expected

    def test_selection_follows_span_relative_to_rows(self):
        dense = np.array([5, 3, 4, 3, 5, 6], dtype=np.int64)
        wide = np.array([0, 1 << 48], dtype=np.int64)
        extremes = np.array([_INT64.min, _INT64.max], dtype=np.int64)
        with mock.patch.object(
            executor_module.np, "unique", side_effect=AssertionError("sort path taken")
        ):
            first_indices, inverse, num_groups = factorize_codes(dense)
        assert (first_indices.tolist(), inverse.tolist(), num_groups) == (
            [1, 2, 0, 5],
            [2, 0, 1, 0, 2, 3],
            4,
        )
        for codes in (wide, extremes):
            with mock.patch.object(
                executor_module.np, "unique", wraps=np.unique
            ) as sort_path:
                assert factorize_codes(codes)[2] == 2
            assert sort_path.call_count == 1

    def test_empty_input(self):
        first_indices, inverse, num_groups = factorize_codes(np.empty(0, dtype=np.int64))
        assert (len(first_indices), len(inverse), num_groups) == (0, 0, 0)


# ---------------------------------------------------------------------------
# Join kernels
# ---------------------------------------------------------------------------


def _pairs(left_idx, right_idx, left_rows: int) -> tuple[list[int], list[int]]:
    """Index pairs as lists; the identity ``slice(None)`` spelled out."""
    if isinstance(left_idx, slice):
        assert left_idx == slice(None) and len(right_idx) == left_rows
        left_idx = np.arange(left_rows)
    assert left_idx.dtype == np.int64 and right_idx.dtype == np.int64
    return left_idx.tolist(), right_idx.tolist()


def _reference_pairs(left: np.ndarray, right: np.ndarray) -> tuple[list[int], list[int]]:
    """Nested loops: left-row order, ties in right-row order."""
    pairs = [
        (l, r)
        for l, key in enumerate(left.tolist())
        for r, other in enumerate(right.tolist())
        if key == other
    ]
    return [l for l, _ in pairs], [r for _, r in pairs]


@st.composite
def _join_sides(draw) -> tuple[np.ndarray, np.ndarray]:
    """Integer ``(probe, build)`` key columns with a build side narrow enough to address."""
    base = draw(
        st.sampled_from([0, -3, 1 << 40, -(1 << 50), _INT64.min, _INT64.max - 40])
    )
    width = draw(st.integers(min_value=1, max_value=40))
    build = [
        base + draw(st.integers(0, width - 1))
        for _ in range(draw(st.integers(min_value=1, max_value=12)))
    ]
    # Probe keys: inside the build span (its gaps included), just below and
    # above it, and at both ends of int64, where ``key - low`` wraps.
    outside = [base - 1, base - 7, base + width, base + width + 9, _INT64.min, _INT64.max, 0]
    inside = [base + offset for offset in range(width)]
    pool = [key for key in inside + outside if _INT64.min <= key <= _INT64.max]
    probe = draw(st.lists(st.sampled_from(pool), min_size=0, max_size=24))
    if draw(st.booleans()):
        # A probe side that hits every build row exactly once or not at all.
        probe = draw(st.permutations(sorted(set(build))))
    return np.array(probe, dtype=np.int64), np.array(build, dtype=np.int64)


class TestJoinKernelEquivalence:
    @given(sides=_join_sides())
    @_SETTINGS
    def test_direct_address_and_sort_join_return_the_same_pairs(self, sides):
        probe, build = sides
        low = int(build.min())
        span = int(build.max()) - low + 1
        expected = _reference_pairs(probe, build)
        direct = executor_module._join_direct(probe, build, low, span)
        assert _pairs(*direct, len(probe)) == expected
        assert _pairs(*executor_module._join_sorted(probe, build), len(probe)) == expected
        assert _pairs(*join_indices(probe, build), len(probe)) == expected

    def test_selection_follows_the_build_side_span(self):
        probe = np.array([3, 0, 2, 3, 9, -1], dtype=np.int64)
        gate_like = np.array([0, 1, 2, 3], dtype=np.int64)
        with mock.patch.object(
            executor_module, "_join_sorted", side_effect=AssertionError("sort kernel taken")
        ):
            left_idx, right_idx = join_indices(probe, gate_like)
        assert (left_idx.tolist(), right_idx.tolist()) == ([0, 1, 2, 3], [3, 0, 2, 3])
        for build in (
            np.array([0, 1 << 48], dtype=np.int64),
            np.array([_INT64.min, _INT64.max], dtype=np.int64),
            np.empty(0, dtype=np.int64),
        ):
            with mock.patch.object(
                executor_module, "_join_direct", side_effect=AssertionError("addressed directly")
            ):
                left_idx, right_idx = join_indices(np.array([0, _INT64.max]), build)
            assert _pairs(left_idx, right_idx, 2) == _reference_pairs(
                np.array([0, _INT64.max]), build
            )

    @pytest.mark.parametrize(
        "left, right, expected",
        [
            pytest.param(
                np.array([1.0, np.nan, 2.0, 0.0]), np.array([0, 1, 2, 2]),
                ([0, 2, 2, 3], [1, 2, 3, 0]), id="float-probe",
            ),
            pytest.param(
                np.array([1, 0, 3]), np.array([np.nan, 1.0, 0.0]),
                ([0, 1], [1, 2]), id="null-bearing-build",
            ),
            pytest.param(
                np.asarray(["a", None, "b", "a"], dtype=object), np.asarray(["a", "c", None], dtype=object),
                ([0, 3], [0, 0]), id="object-text",
            ),
            pytest.param(
                DictArray.from_values(np.asarray(["b", "a", None], dtype=object)),
                DictArray.from_values(np.asarray(["a", "b", "b"], dtype=object)),
                ([0, 0, 1], [1, 2, 0]), id="dict-array",
            ),
            pytest.param(
                np.array([0, 1, 2]), np.asarray(["0", "1"], dtype=object),
                ([], []), id="number-vs-text",
            ),
            pytest.param(
                np.array([2**63, 2**63 + 1, 5], dtype=np.uint64),
                np.array([2**63 + 1, 2**63], dtype=np.uint64),
                ([0, 1], [1, 0]), id="unsigned-past-int64",
            ),
        ],
    )
    def test_everything_but_integer_keys_takes_the_code_space_kernel(self, left, right, expected):
        with mock.patch.object(
            executor_module, "_join_direct", side_effect=AssertionError("addressed directly")
        ):
            left_idx, right_idx = join_indices(left, right)
        assert _pairs(left_idx, right_idx, len(left)) == expected

    def test_one_match_per_left_row_is_the_identity_not_an_arange(self):
        swap_like = np.array([0, 2, 1, 3], dtype=np.int64)
        probe = np.array([1, 3, 0, 0, 2], dtype=np.int64)
        for kernel in (join_indices, executor_module._join_sorted):
            left_idx, right_idx = kernel(probe, swap_like)
            assert left_idx == slice(None)
            assert right_idx.tolist() == [2, 3, 0, 0, 1]
        # One left row without a partner: indices again.
        left_idx, _right_idx = join_indices(np.append(probe, 7), swap_like)
        assert left_idx.tolist() == [0, 1, 2, 3, 4]


_FUSED_STEP = (
    "SELECT ((T0.s & ~1) | G.out_s) AS s, "
    "SUM((T0.r * G.r) - (T0.i * G.i)) AS r, SUM((T0.r * G.i) + (T0.i * G.r)) AS i, "
    "COUNT(*) AS n FROM T0 JOIN G ON G.in_s = (T0.s & 1) GROUP BY ((T0.s & ~1) | G.out_s)"
)

_H_LIKE = {
    "in_s": np.array([0, 0, 1, 1], dtype=np.int64),
    "out_s": np.array([0, 1, 0, 1], dtype=np.int64),
    "r": np.array([0.6, 0.8, 0.8, -0.6]),
    "i": np.array([0.0, 0.1, -0.1, 0.0]),
}
#: One row per ``in_s``: every state row finds exactly one partner.
_X_LIKE = {
    "in_s": np.array([1, 0], dtype=np.int64),
    "out_s": np.array([0, 1], dtype=np.int64),
    "r": np.array([0.6, -0.8]),
    "i": np.array([0.8, 0.6]),
}


def _state(states: np.ndarray) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(11)
    return {"s": states, "r": rng.normal(size=len(states)), "i": rng.normal(size=len(states))}


def _exact(result) -> list[tuple[str, bytes]]:
    """A result's columns as (dtype, raw bytes): equal means bit-identical."""
    return [(str(np.asarray(v).dtype), np.ascontiguousarray(v).tobytes()) for v in result.vectors]


def _unfused():
    """Compile every block onto the generic join -> group pipeline."""
    return mock.patch.object(planner_module, "_compile_fused", return_value=None)


class TestFusedStepKernelAgreement:
    """The fused gate step on both sides of the join and grouping selections."""

    @pytest.mark.parametrize("gate", [_H_LIKE, _X_LIKE], ids=["two-per-key", "one-per-key"])
    @pytest.mark.parametrize(
        "states",
        [
            pytest.param(np.arange(256, dtype=np.int64), id="dense-domain"),
            pytest.param(np.arange(64, dtype=np.int64) << 40, id="wide-domain"),
            pytest.param(np.array([0, 1 << 47], dtype=np.int64), id="ghz-like"),
            pytest.param(np.array([5, 2, 2, 7, 0], dtype=np.int64), id="unordered-repeats"),
        ],
    )
    def test_rows_identical(self, states, gate):
        fused = MemDatabase(plan_cache=PlanCache(maxsize=8))
        forced_sort = MemDatabase(plan_cache=PlanCache(maxsize=8))
        generic = MemDatabase(plan_cache=PlanCache(maxsize=8))
        for db in (fused, forced_sort, generic):
            db.load_table("T0", _state(states))
            db.load_table("G", gate)
        result = fused.execute(_FUSED_STEP)
        expected = result.rows
        assert sum(row[3] for row in expected) == len(states) * len(gate["in_s"]) // 2
        with mock.patch.object(executor_module, "_DENSE_SLOTS_PER_ROW", 0):
            # Neither grouping nor the join addresses anything directly.
            assert _exact(forced_sort.execute(_FUSED_STEP)) == _exact(result)
        with _unfused():
            assert _exact(generic.execute(_FUSED_STEP)) == _exact(result)
        assert [row[0] for row in expected] == sorted(row[0] for row in expected)

    def test_identity_left_side_equals_the_gathered_columns(self):
        """``slice(None)`` for the left rows changes no bit of any output column."""
        states = np.arange(128, dtype=np.int64)[::-1].copy()
        identity = MemDatabase(plan_cache=PlanCache(maxsize=4))
        gathered = MemDatabase(plan_cache=PlanCache(maxsize=4))
        for db in (identity, gathered):
            db.load_table("T0", _state(states))
            db.load_table("G", _X_LIKE)
        seen = []
        join = planner_module.join_indices

        def spelled_out(left_keys, right_keys):
            left_idx, right_idx = join(left_keys, right_keys)
            seen.append(left_idx)
            return np.arange(len(right_idx), dtype=np.int64), right_idx

        with mock.patch.object(planner_module, "join_indices", spelled_out):
            expected = _exact(gathered.execute(_FUSED_STEP))
        assert seen == [slice(None)]
        assert _exact(identity.execute(_FUSED_STEP)) == expected

    def test_sum_skips_null_arguments(self):
        """SUM over the joined rows skips NULL products; an all-NULL group is NULL."""
        setup = [
            "CREATE TABLE T0 (s BIGINT NOT NULL, r DOUBLE, i DOUBLE)",
            "INSERT INTO T0 (s, r, i) VALUES (0, 0.5, 0.25), (1, NULL, 0.5), (2, 1.0, NULL), "
            "(7, 1.0, 1.0), (5, 2.0, 1.0), (1, 3.0, 1.0)",
            "CREATE TABLE G (in_s BIGINT NOT NULL, out_s BIGINT NOT NULL, r DOUBLE, i DOUBLE)",
            "INSERT INTO G (in_s, out_s, r, i) VALUES (0, 0, 0.5, 0.0), (0, 1, 0.5, 0.0), "
            "(1, 0, 0.5, NULL), (1, 1, -0.5, 0.25)",
        ]
        sql = _FUSED_STEP + " ORDER BY s"
        expected = _sqlite_rows(setup, sql)
        assert [row[1] for row in expected].count(None) == 4
        for label, db in _engines():
            for statement in setup:
                db.execute(statement)
            assert _null_normalized(db.execute(sql).rows) == expected, label


#: Fused shapes whose group key and SUM arguments mix the two join sides in
#: every position the side split distinguishes.
_SPLIT_SHAPES = {
    "gate-step": (
        "((T.s & ~6) | ((((G.out_s >> 0) & 1) << 1) | (((G.out_s >> 1) & 1) << 2)))",
        ["(T.r * G.r) - (T.i * G.i)", "(T.r * G.i) + (T.i * G.r)"],
    ),
    "mixed-under-every-operator": (
        "(((T.s >> 1) & G.out_s) + ((T.s | 8) * (G.out_s + 1)))",
        ["(T.r + G.r) * (T.i - G.i)", "((T.s & 3) * G.r) + (T.r * (G.out_s << 2))"],
    ),
    "literal-only-key": ("(3 | 4)", ["T.r * G.r", "1 + 2"]),
    "one-sided-key-and-arguments": ("(T.s >> 1)", ["T.r * T.i", "G.r - G.i", "T.r"]),
    "column-in-key-and-sum": ("(T.s & ~1)", ["T.s * G.r", "(T.s & 1) + G.out_s"]),
    "constants-beside-mixed-operands": (
        "(((T.s & 1) | G.out_s) + (2 * 3))",
        ["((T.r * G.r) * 2) - 0.5", "(0 - (T.s + G.in_s))"],
    ),
}


class TestEvaluationBelowTheJoin:
    @staticmethod
    def _sql(shape: str, join_on: str = "G.in_s = (T.s & 3)") -> str:
        key, arguments = _SPLIT_SHAPES[shape]
        sums = ", ".join(f"SUM({argument}) AS a{n}" for n, argument in enumerate(arguments))
        return (
            f"SELECT {key} AS k, {sums}, COUNT(*) AS n FROM T0 AS T JOIN G0 AS G "
            f"ON {join_on} GROUP BY {key}"
        )

    @staticmethod
    def _database() -> MemDatabase:
        db = MemDatabase(plan_cache=PlanCache(maxsize=4))
        db.load_table("T0", _state(np.array([9, 4, 4, 7, 0, 13, 2, 6, 11], dtype=np.int64)))
        rng = np.random.default_rng(5)
        db.load_table(
            "G0",
            {
                "in_s": np.array([0, 1, 1, 3, 3, 3], dtype=np.int64),
                "out_s": np.array([1, 0, 3, 2, 2, 1], dtype=np.int64),
                "r": rng.normal(size=6),
                "i": rng.normal(size=6),
            },
        )
        return db

    @pytest.mark.parametrize("shape", sorted(_SPLIT_SHAPES))
    def test_fused_equals_joined_row_evaluation(self, shape):
        sql = self._sql(shape)
        fused = self._database()
        result = fused.execute(sql)
        plan = "\n".join(row[0] for row in fused.execute(f"EXPLAIN {sql}").rows)
        assert "fused join-aggregate" in plan, plan
        with _unfused():
            assert _exact(self._database().execute(sql)) == _exact(result)

    def test_one_table_under_two_bindings(self):
        sql = (
            "SELECT ((A.s & ~1) | (B.s & 1)) AS k, SUM((A.r * B.r) - (A.i * B.i)) AS a0, "
            "SUM(A.s + B.s) AS a1 FROM T0 AS A JOIN T0 AS B ON B.s = (A.s >> 1) "
            "GROUP BY ((A.s & ~1) | (B.s & 1))"
        )
        result = self._database().execute(sql)
        assert len(result.rows) > 1
        with _unfused():
            assert _exact(self._database().execute(sql)) == _exact(result)

    def test_only_the_mixing_operators_are_rebuilt(self):
        select = parse_one(self._sql("gate-step"))
        fused = planner_module._compile_fused(select)
        key = select.group_by[0]
        # ``(T.s & ~6)`` and the whole deposit are evaluated on their base
        # rows: the parts are the AST's own nodes, not copies ...
        # (a replaced part is keyed ``#n``, the n-th part of the block)
        assert fused.left_keys == ("T.r", "T.i", "#4")
        assert fused.right_keys == ("G.r", "G.i", "#5")
        assert fused.left_parts[2] is key.left and fused.right_parts[2] is key.right
        assert fused.left_parts[0] is select.items[1].expression.arguments[0].left.left
        # ... the joined rows see the one ``|`` that mixes the sides, over
        # their results, and a SUM argument of bare columns is not rebuilt.
        assert fused.key_expr == BinaryOp("|", ColumnRef("#4"), ColumnRef("#5"))
        assert fused.outputs[1][2] is select.items[1].expression.arguments[0]

"""Edge audit for LIMIT/OFFSET and the top-k (LIMIT below ORDER BY) operator.

The satellite checklist for the top-k operator: LIMIT 0, OFFSET beyond the
row count, negative LIMIT/OFFSET, and ties under ORDER BY with
non-deterministic input order must all match SQLite's semantics — and the
partition-based top-k path must return byte-identical rows to the full
sort-then-slice path it replaces (memdb's tie order is the stable input
order, a valid choice SQLite permits).
"""

import sqlite3

import numpy as np
import pytest

from repro.backends.memdb import MemDatabase, executor
from repro.backends.memdb.engine import PlanCache
from repro.backends.memdb.executor import order_vectors, top_k_indices
from repro.backends.memdb.parser import parse_one


def _db(rows=()):
    db = MemDatabase(plan_cache=PlanCache(maxsize=8))
    db.execute("CREATE TABLE t (id BIGINT NOT NULL, k BIGINT NOT NULL, v DOUBLE NOT NULL)")
    if rows:
        values = ", ".join(f"({i}, {k}, {v!r})" for i, (k, v) in enumerate(rows))
        db.execute(f"INSERT INTO t (id, k, v) VALUES {values}")
    return db


def _sqlite(rows):
    connection = sqlite3.connect(":memory:")
    connection.execute("CREATE TABLE t (id BIGINT NOT NULL, k BIGINT NOT NULL, v DOUBLE NOT NULL)")
    connection.executemany("INSERT INTO t VALUES (?, ?, ?)", [(i, k, v) for i, (k, v) in enumerate(rows)])
    return connection


def _sorted_prefixes(query, frame, limit):
    """The first ``limit`` rows of ``frame`` under ``query``'s ORDER BY, twice.

    Returns ``(full sort, top-k)``.  The full sort is ``order_vectors(...,
    prefix=None)`` — the stable sort the top-k selection must reproduce
    exactly, ties included.
    """
    order_by = parse_one(query).order_by
    vectors = list(frame.values())
    length = len(vectors[0])
    full, topk = (
        order_vectors(vectors, order_by, length, frame, prefix=prefix) for prefix in (None, limit)
    )
    return (
        list(zip(*(values[:limit].tolist() for values in full))),
        list(zip(*(values.tolist() for values in topk))),
    )


#: Tie-heavy rows in deliberately scrambled (non-sorted) input order.
_ROWS = [(3, 0.5), (1, 2.5), (3, 1.5), (2, 0.5), (1, 0.5), (2, 2.5), (1, 1.5), (3, 2.5), (2, 1.5), (0, 9.0)]


class TestLimitOffsetSemantics:
    """LIMIT/OFFSET must follow SQLite: negative limit = all, negative offset = 0."""

    @pytest.mark.parametrize(
        "tail",
        [
            "LIMIT 0",
            "LIMIT 3",
            "LIMIT 3 OFFSET 2",
            "LIMIT 3 OFFSET 100",     # offset beyond the row count -> empty
            "LIMIT 100 OFFSET 8",     # limit beyond the remaining rows
            "LIMIT -1",               # negative limit = unlimited
            "LIMIT -1 OFFSET 4",
            "LIMIT 2 OFFSET -5",      # negative offset = 0
            "LIMIT 0 OFFSET 0",
        ],
    )
    def test_matches_sqlite_with_total_order(self, tail):
        query = f"SELECT id, k, v FROM t ORDER BY k, v, id {tail}"
        expected = _sqlite(_ROWS).execute(query).fetchall()
        actual = _db(rows=_ROWS).execute(query).rows
        assert actual == expected

    def test_offset_without_order_by(self):
        # LIMIT/OFFSET applies to whatever order the pipeline produced; memdb
        # scans in insertion order, same as SQLite's rowid order here.
        query = "SELECT id FROM t LIMIT 4 OFFSET 3"
        expected = _sqlite(_ROWS).execute(query).fetchall()
        assert _db(rows=_ROWS).execute(query).rows == expected

    def test_offset_requires_limit_keyword(self):
        # Bare OFFSET without LIMIT is not part of the supported grammar.
        from repro.errors import SQLParseError

        with pytest.raises(SQLParseError):
            _db(rows=_ROWS).execute("SELECT id FROM t OFFSET 2")


class TestTopKTies:
    """Ties resolved identically by top-k and full sort, acceptably by SQLite."""

    def test_topk_equals_sort_then_slice_under_ties(self):
        rows = _ROWS * 30
        query = "SELECT id, k FROM t ORDER BY k LIMIT 4"
        db = _db(rows=rows)
        assert "top-k (k=4)" in "\n".join(row[0] for row in db.execute(f"EXPLAIN {query}").rows)
        frame = {"id": np.arange(len(rows)), "k": np.array([k for k, _v in rows])}
        full, topk = _sorted_prefixes(query, frame, 4)
        assert db.execute(query).rows == topk == full
        # Which tied ids survive is implementation-defined; the keys are not.
        assert [k for _id, k in full] == [k for _id, k in _sqlite(rows).execute(query).fetchall()]

    def test_tied_key_values_match_sqlite(self):
        # Which tied row survives the cut is implementation-defined, but the
        # multiset of ORDER BY key values in the prefix is not.
        query = "SELECT k FROM t ORDER BY k LIMIT 5"
        expected = sorted(row[0] for row in _sqlite(_ROWS).execute(query).fetchall())
        actual = sorted(row[0] for row in _db(rows=_ROWS).execute(query).rows)
        assert actual == expected

    def test_tie_resolution_is_input_order_stable(self):
        # memdb's tie resolution is the stable input order: after the single
        # k=0 row, the k=1 rows appear in insertion order (ids 1, 4, ...).
        result = _db(rows=_ROWS).execute("SELECT id FROM t ORDER BY k LIMIT 3").rows
        assert [row[0] for row in result] == [9, 1, 4]

    def test_desc_with_offset_matches_sqlite(self):
        query = "SELECT id, k, v FROM t ORDER BY v DESC, id LIMIT 3 OFFSET 1"
        expected = _sqlite(_ROWS).execute(query).fetchall()
        assert _db(rows=_ROWS).execute(query).rows == expected


class TestTopKIndicesUnit:
    def _keys(self, *columns):
        return [np.asarray(column, dtype=np.float64) for column in columns]

    def test_matches_full_lexsort_prefix(self):
        rng = np.random.default_rng(7)
        secondary = rng.integers(0, 5, size=500).astype(np.float64)
        primary = rng.integers(0, 20, size=500).astype(np.float64)
        keys = [secondary, primary]
        for k in (0, 1, 7, 100, 499, 500, 600):
            expected = np.lexsort(keys)[:k]
            assert np.array_equal(top_k_indices(keys, k), expected)

    def test_nan_cutoff_degrades_to_full_sort(self):
        primary = np.asarray([np.nan, 1.0, np.nan, 0.0])
        keys = [primary]
        for k in (1, 2, 3, 4):
            assert np.array_equal(top_k_indices(keys, k), np.lexsort(keys)[:k])

    def test_heavily_tied_primary_key(self):
        primary = np.zeros(64)
        secondary = np.arange(64, dtype=np.float64)[::-1]
        keys = [secondary, primary]
        assert np.array_equal(top_k_indices(keys, 5), np.lexsort(keys)[:5])

    def test_string_keys(self):
        primary = np.asarray(["b", "a", "c", "a", "b"], dtype=str)
        keys = [primary]
        assert np.array_equal(top_k_indices(keys, 3), np.lexsort(keys)[:3])


def _explain(db, query) -> str:
    return "\n".join(row[0] for row in db.execute(f"EXPLAIN {query}").rows)


class TestTopKDecision:
    """Top-k is chosen at run time: whenever LIMIT + OFFSET is below the input length."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []

        def spy(keys, k):
            seen.append(k)
            return top_k_indices(keys, k)

        monkeypatch.setattr(executor, "top_k_indices", spy)
        return seen

    def test_large_input_small_k_chooses_topk(self, calls):
        db = _db(rows=_ROWS * 30)
        rows = db.execute("SELECT id FROM t ORDER BY k, v, id LIMIT 5").rows
        assert calls == [5]
        assert rows == _sqlite(_ROWS * 30).execute("SELECT id FROM t ORDER BY k, v, id LIMIT 5").fetchall()

    def test_limit_at_or_above_the_row_count_sorts(self, calls):
        db = _db(rows=_ROWS)
        db.execute(f"SELECT id FROM t ORDER BY k LIMIT {len(_ROWS)}")
        assert calls == []

    def test_no_limit_means_no_decision(self):
        assert "top-k" not in _explain(_db(), "SELECT t.id FROM t ORDER BY t.k")

    def test_negative_limit_means_no_decision(self):
        assert "top-k" not in _explain(_db(), "SELECT t.id FROM t ORDER BY t.k LIMIT -1")

    def test_offset_extends_k(self):
        assert "top-k (k=12)" in _explain(_db(), "SELECT t.id FROM t ORDER BY t.k LIMIT 5 OFFSET 7")

    def test_explain_reports_topk(self):
        db = _db(rows=_ROWS * 30)
        assert "top-k (k=3)" in _explain(db, "SELECT id FROM t ORDER BY k LIMIT 3")


class TestLimitLiteralValidation:
    def test_non_integral_limit_rejected_like_sqlite(self):
        from repro.errors import SQLParseError

        db = _db(rows=_ROWS)
        with pytest.raises(SQLParseError, match="datatype mismatch"):
            db.execute("SELECT id FROM t ORDER BY k LIMIT 2.5")
        with pytest.raises(SQLParseError, match="datatype mismatch"):
            db.execute("SELECT id FROM t ORDER BY k LIMIT 2 OFFSET 1.5")

    def test_integral_float_limit_accepted_like_sqlite(self):
        db = _db(rows=_ROWS)
        result = db.execute("SELECT id FROM t ORDER BY k, v, id LIMIT 2.0")
        assert len(result.rows) == 2


# ---------------------------------------------------------------------------
# DESC text keys via the reverse-collation partition key (PR 5)
# ---------------------------------------------------------------------------


_TEXT_ROWS = [
    "a", "ab", "", "b", "a", "Z", "zz", "ab", "abc", "z",
    "A", "aB", " ", "a ", "é", "e", "0", "00", "~", "ß",
]


def _text_db():
    db = MemDatabase(plan_cache=PlanCache(maxsize=8))
    db.execute("CREATE TABLE s (id BIGINT NOT NULL, name TEXT NOT NULL)")
    values = ", ".join(f"({i}, '{text}')" for i, text in enumerate(_TEXT_ROWS))
    db.execute(f"INSERT INTO s (id, name) VALUES {values}")
    return db


def _text_sqlite():
    connection = sqlite3.connect(":memory:")
    connection.execute("CREATE TABLE s (id INTEGER, name TEXT)")
    connection.executemany("INSERT INTO s VALUES (?, ?)", list(enumerate(_TEXT_ROWS)))
    return connection


class TestDescTextOrdering:
    """ORDER BY <text> DESC matches SQLite (byte-wise collation) exactly.

    The audit covers the reverse-collation edge cases: empty strings,
    proper prefixes ("a" vs "ab" vs "abc"), case (byte order, not locale),
    spaces, non-ASCII code points (UTF-8 byte order equals code-point
    order), and ties resolved by a secondary key.
    """

    @pytest.mark.parametrize(
        "tail",
        [
            "ORDER BY s.name DESC, s.id ASC",
            "ORDER BY s.name DESC, s.id DESC",
            "ORDER BY s.name DESC, s.id ASC LIMIT 5",
            "ORDER BY s.name DESC, s.id ASC LIMIT 7 OFFSET 3",
            "ORDER BY s.name DESC, s.id DESC LIMIT 4 OFFSET 11",
            "ORDER BY s.name ASC, s.id ASC LIMIT 6",
            "ORDER BY s.id % 3 ASC, s.name DESC, s.id ASC",
        ],
    )
    def test_matches_sqlite(self, tail):
        db = _text_db()
        connection = _text_sqlite()
        sql = f"SELECT s.id AS id, s.name AS name FROM s {tail}"
        expected = connection.execute(f"SELECT s.id, s.name FROM s {tail}").fetchall()
        assert db.execute(sql).rows == expected

    def test_topk_identical_to_sort_then_slice(self):
        sql = "SELECT s.id AS id, s.name AS name FROM s ORDER BY s.name DESC, s.id ASC LIMIT 6"
        frame = {"s.id": np.arange(len(_TEXT_ROWS)), "s.name": np.array(_TEXT_ROWS, dtype=object)}
        full, topk = _sorted_prefixes(sql, frame, 6)
        expected = _text_sqlite().execute(
            "SELECT s.id, s.name FROM s ORDER BY s.name DESC, s.id ASC LIMIT 6"
        ).fetchall()
        assert _text_db().execute(sql).rows == topk == full == expected

    def test_topk_decision_applies_to_desc_text(self):
        db = MemDatabase(plan_cache=PlanCache(maxsize=8))
        db.execute("CREATE TABLE s (id BIGINT NOT NULL, name TEXT NOT NULL)")
        rows = ", ".join(f"({i}, 'n{i % 97:02d}')" for i in range(4000))
        db.execute(f"INSERT INTO s (id, name) VALUES {rows}")
        plan = "\n".join(
            row[0]
            for row in db.execute(
                "EXPLAIN SELECT s.id AS id, s.name AS name FROM s "
                "ORDER BY s.name DESC, s.id ASC LIMIT 5"
            ).rows
        )
        assert "top-k (k=5)" in plan
        # And the operator's rows match SQLite on the large tied input.
        connection = sqlite3.connect(":memory:")
        connection.execute("CREATE TABLE s (id INTEGER, name TEXT)")
        connection.executemany(
            "INSERT INTO s VALUES (?, ?)", [(i, f"n{i % 97:02d}") for i in range(4000)]
        )
        expected = connection.execute(
            "SELECT s.id, s.name FROM s ORDER BY s.name DESC, s.id ASC LIMIT 5"
        ).fetchall()
        actual = db.execute(
            "SELECT s.id AS id, s.name AS name FROM s ORDER BY s.name DESC, s.id ASC LIMIT 5"
        ).rows
        assert actual == expected

    def test_reverse_collation_is_injective_at_the_top_of_the_code_space(self):
        # U+10FFFE and U+10FFFF must stay distinct under the flip — a clamp
        # there would collapse them and diverge from SQLite's byte order.
        from repro.backends.memdb.executor import _reverse_collation

        values = np.array(["\U0010FFFE", "\U0010FFFF", "a"], dtype=object)
        keys = _reverse_collation(values.astype(str))
        order = np.argsort(keys, kind="stable")
        # Ascending transformed order == descending original order.
        assert [values[i] for i in order] == ["\U0010FFFF", "\U0010FFFE", "a"]

    def test_desc_text_ties_keep_stable_input_order(self):
        db = MemDatabase(plan_cache=PlanCache(maxsize=8))
        db.execute("CREATE TABLE s (id BIGINT NOT NULL, name TEXT NOT NULL)")
        db.execute(
            "INSERT INTO s (id, name) VALUES (0, 'x'), (1, 'x'), (2, 'y'), (3, 'x'), (4, 'y')"
        )
        rows = db.execute("SELECT s.id AS id FROM s ORDER BY s.name DESC LIMIT 4").rows
        # 'y' ties first (input order 2, 4), then 'x' ties (0, 1).
        assert [row[0] for row in rows] == [2, 4, 0, 1]

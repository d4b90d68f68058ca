"""Columnar storage v2 edge cases: dictionary encoding, validity bitmaps.

Targeted regressions for the encoded storage layer — the shapes most likely
to silently diverge from SQLite:

* empty strings are values, NULL is absent — the two must never merge in
  filters, grouping, DISTINCT or COUNT;
* collation of non-ASCII text must match SQLite's (UTF-8 byte order equals
  code-point order, which equals the sorted-``<U``-dictionary code order);
* dictionary growth across INSERTs remaps every stored chunk and is
  observable in the storage counters, while plan caches keyed on logical
  schema signatures must not be invalidated by it.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro.backends.memdb import MemDatabase
from repro.backends.memdb.column import DictArray
from repro.backends.memdb.engine import PlanCache


def _fresh(**kwargs) -> MemDatabase:
    return MemDatabase(plan_cache=PlanCache(maxsize=16), **kwargs)


def _sqlite_rows(statements, query):
    connection = sqlite3.connect(":memory:")
    for statement in statements:
        connection.execute(statement)
    rows = connection.execute(query).fetchall()
    connection.close()
    return rows


@pytest.fixture
def engine() -> MemDatabase:
    return _fresh()


class TestEmptyStringVersusNull:
    SETUP = [
        "CREATE TABLE t (id BIGINT NOT NULL, s TEXT)",
        "INSERT INTO t (id, s) VALUES (0, ''), (1, NULL), (2, 'a'), (3, ''), (4, NULL)",
    ]

    def _run(self, engine, query):
        for statement in self.SETUP:
            engine.execute(statement)
        return engine.execute(query).rows

    def test_equality_excludes_null(self, engine):
        query = "SELECT t.id AS id FROM t WHERE t.s = '' ORDER BY t.id"
        assert self._run(engine, query) == _sqlite_rows(self.SETUP, query) == [(0,), (3,)]

    def test_is_null_excludes_empty_string(self, engine):
        query = "SELECT t.id AS id FROM t WHERE t.s IS NULL ORDER BY t.id"
        assert self._run(engine, query) == _sqlite_rows(self.SETUP, query) == [(1,), (4,)]

    def test_count_skips_null_not_empty(self, engine):
        query = "SELECT COUNT(t.s) AS n, COUNT(*) AS total FROM t"
        assert self._run(engine, query) == _sqlite_rows(self.SETUP, query) == [(3, 5)]

    def test_group_by_separates_null_and_empty(self, engine):
        query = "SELECT t.s AS s, COUNT(*) AS n FROM t GROUP BY t.s"
        assert self._run(engine, query) == _sqlite_rows(self.SETUP, query) == [
            (None, 2),
            ("", 2),
            ("a", 1),
        ]

    def test_distinct_keeps_null_and_empty_apart(self, engine):
        query = "SELECT DISTINCT t.s AS s FROM t"
        rows = self._run(engine, query)
        assert sorted(rows, key=lambda r: (r[0] is not None, r[0] or "")) == [
            (None,),
            ("",),
            ("a",),
        ]


class TestUnicodeCollationParity:
    #: Adversarial collation pool: ASCII, Latin-1, combining-vs-precomposed,
    #: astral plane, and prefixes of each other.
    VALUES = ["", "a", "A", "ab", "à", "à", "z", "zz", "é", "ß", "Ω", "\U0001F600", "0", " "]

    def _setup(self):
        values = ", ".join(f"({i}, {v!r})" for i, v in enumerate(self.VALUES))
        return [
            "CREATE TABLE t (id BIGINT NOT NULL, s TEXT NOT NULL)",
            f"INSERT INTO t (id, s) VALUES {values}",
        ]

    @pytest.mark.parametrize("direction", ["ASC", "DESC"])
    def test_order_by_matches_sqlite(self, engine, direction):
        setup = self._setup()
        query = f"SELECT t.s AS s FROM t ORDER BY t.s {direction}, t.id ASC"
        for statement in setup:
            engine.execute(statement)
        assert engine.execute(query).rows == _sqlite_rows(setup, query)

    def test_range_predicates_match_sqlite(self, engine):
        setup = self._setup()
        for statement in setup:
            engine.execute(statement)
        for literal in ["a", "à", "é", "z", ""]:
            for operator in ["<", "<=", ">", ">=", "=", "!="]:
                query = (
                    f"SELECT t.id AS id FROM t WHERE t.s {operator} {literal!r} ORDER BY t.id"
                )
                assert engine.execute(query).rows == _sqlite_rows(setup, query), (
                    operator,
                    literal,
                )

    def test_min_max_match_sqlite(self, engine):
        setup = self._setup()
        query = "SELECT MIN(t.s) AS lo, MAX(t.s) AS hi FROM t"
        for statement in setup:
            engine.execute(statement)
        assert engine.execute(query).rows == _sqlite_rows(setup, query)


class TestDictionaryGrowth:
    def test_append_rows_grows_dictionary_and_remaps(self):
        db = _fresh()
        db.execute("CREATE TABLE t (id BIGINT NOT NULL, s TEXT)")
        db.execute("INSERT INTO t (id, s) VALUES (0, 'm'), (1, 'z')")
        before = db.table("t").storage_stats()["columns"]["s"]
        assert before["kind"] == "dict"
        assert before["dictionary_size"] == 2
        # 'a' sorts before every existing entry: every stored code shifts.
        db.execute("INSERT INTO t (id, s) VALUES (2, 'a'), (3, NULL), (4, 'm')")
        after = db.table("t").storage_stats()["columns"]["s"]
        assert after["dictionary_size"] == 3
        assert after["dictionary_rebuilds"] >= 1
        assert after["null_count"] == 1
        rows = db.execute("SELECT t.id AS id, t.s AS s FROM t ORDER BY t.s ASC, t.id ASC").rows
        assert rows == [(3, None), (2, "a"), (0, "m"), (4, "m"), (1, "z")]
        column = db.table("t").encoded_column("s").materialize()
        assert isinstance(column, DictArray)
        assert list(column.dictionary) == ["a", "m", "z"]

    def test_growth_does_not_change_logical_signature(self):
        db = _fresh()
        db.execute("CREATE TABLE t (id BIGINT NOT NULL, s TEXT)")
        db.execute("INSERT INTO t (id, s) VALUES (0, 'm')")
        signature = db.table("t").schema_signature()
        db.execute("INSERT INTO t (id, s) VALUES (1, 'a'), (2, 'zz')")
        assert db.table("t").schema_signature() == signature

    def test_delete_keeps_results_exact(self):
        db = _fresh()
        db.execute("CREATE TABLE t (id BIGINT NOT NULL, s TEXT)")
        db.execute(
            "INSERT INTO t (id, s) VALUES (0, 'a'), (1, 'b'), (2, NULL), (3, 'a'), (4, 'c')"
        )
        db.execute("DELETE FROM t WHERE t.s = 'a'")
        rows = db.execute("SELECT t.id AS id, t.s AS s FROM t ORDER BY t.id").rows
        assert rows == [(1, "b"), (2, None), (4, "c")]
        stats = db.table("t").storage_stats()["columns"]["s"]
        assert stats["rows"] == 3
        assert stats["null_count"] == 1

    def test_ctas_preserves_encoding(self):
        db = _fresh()
        db.execute("CREATE TABLE t (id BIGINT NOT NULL, s TEXT)")
        db.execute("INSERT INTO t (id, s) VALUES (0, 'x'), (1, NULL), (2, 'y')")
        db.execute("CREATE TABLE c AS SELECT t.id AS id, t.s AS s FROM t WHERE t.id >= 1")
        stats = db.table("c").storage_stats()["columns"]["s"]
        assert stats["kind"] == "dict"
        assert db.execute("SELECT c.s AS s FROM c ORDER BY c.id").rows == [(None,), ("y",)]

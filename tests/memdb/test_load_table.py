"""``MemDatabase.load_table`` is ``CREATE TABLE`` + ``INSERT`` without the text.

The bulk load must leave the catalog exactly as the equivalent SQL script
does — schema signature, storage accounting, query results, statistics
invalidation — in both text-storage modes, while never touching the
tokenizer, the parser or the plan cache.
"""

import numpy as np
import pytest

from repro.backends.memdb import MemDatabase
from repro.backends.memdb.engine import PlanCache
from repro.backends.memdb.table import Table
from repro.errors import SQLExecutionError

_IDS = [5, -3, 2**62 - 1, 0, 7]
_VALUES = [0.5, float("nan"), -2.25, 1e-300, 3.0]
_NAMES = ["b", None, "a", "b", "zeta"]

_SCRIPT = [
    "CREATE TABLE t (id BIGINT NOT NULL, v DOUBLE, name TEXT)",
    "INSERT INTO t (id, v, name) VALUES "
    f"(5, 0.5, 'b'), (-3, NULL, NULL), ({2**62 - 1}, -2.25, 'a'), (0, 1e-300, 'b'), (7, 3.0, 'zeta')",
]

_QUERIES = [
    "SELECT id, v, name FROM t ORDER BY id",
    "SELECT name, COUNT(*) AS n, SUM(v) AS total FROM t GROUP BY name ORDER BY name",
    "SELECT id FROM t WHERE name = 'b' AND v IS NOT NULL ORDER BY id DESC",
    "SELECT t.id AS id, u.id AS other FROM t JOIN t AS u ON u.name = t.name ORDER BY id, other",
]


def _columns() -> dict[str, np.ndarray]:
    names = np.empty(len(_NAMES), dtype=object)
    names[:] = _NAMES
    return {
        "id": np.array(_IDS, dtype=np.int64),
        "v": np.array(_VALUES, dtype=np.float64),
        "name": names,
    }


def _rows(db: MemDatabase, query: str) -> list[tuple]:
    """Result rows with NaN (a NULL double) made comparable."""
    return [
        tuple(None if isinstance(value, float) and value != value else value for value in row)
        for row in db.execute(query).rows
    ]


def _pair() -> tuple[MemDatabase, MemDatabase]:
    loaded = MemDatabase(plan_cache=PlanCache(32))
    scripted = MemDatabase(plan_cache=PlanCache(32))
    loaded.load_table("t", _columns())
    for statement in _SCRIPT:
        scripted.execute(statement)
    return loaded, scripted


class TestEquivalentToTheSqlText:
    def test_same_catalog(self):
        loaded, scripted = _pair()
        assert loaded.table("t").schema_signature() == scripted.table("t").schema_signature()
        assert loaded.engine_stats()["storage"] == scripted.engine_stats()["storage"]
        assert loaded.table("t").storage_stats()["columns"]["name"]["kind"] == "dict"
        assert loaded.row_count("t") == scripted.row_count("t") == 5
        assert loaded.estimated_bytes() == scripted.estimated_bytes()

    def test_same_query_results(self):
        loaded, scripted = _pair()
        for query in _QUERIES:
            assert _rows(loaded, query) == _rows(scripted, query), query
        top = loaded.execute("SELECT id FROM t ORDER BY id DESC LIMIT 1").rows
        assert top == [(2**62 - 1,)]

    def test_later_dml_behaves_the_same(self):
        loaded, scripted = _pair()
        for db in (loaded, scripted):
            db.execute("INSERT INTO t (id, v, name) VALUES (9, 1.5, 'alpha')")
            db.execute("DELETE FROM t WHERE id = 0")
        assert loaded.engine_stats()["storage"] == scripted.engine_stats()["storage"]
        assert _rows(loaded, _QUERIES[0]) == _rows(scripted, _QUERIES[0])

    def test_statistics_are_invalidated(self):
        loaded = MemDatabase(plan_cache=PlanCache(8))
        scripted = MemDatabase(plan_cache=PlanCache(8))
        for db in (loaded, scripted):
            # Statistics left under the name by an earlier table of another shape.
            db.statistics.analyze(Table("t", {"id": np.arange(3)}))
            assert db.statistics.table_names() == ["t"]
        loaded.load_table("t", _columns())
        for statement in _SCRIPT:
            scripted.execute(statement)
        assert loaded.statistics.table_names() == scripted.statistics.table_names() == []
        assert loaded.statistics.summary() == scripted.statistics.summary()
        for db in (loaded, scripted):
            db.execute("ANALYZE")
        assert loaded.statistics.summary() == scripted.statistics.summary()
        assert loaded.statistics.summary()["tables"]["t"]["rows"] == 5


def test_load_never_touches_parser_or_plan_cache(monkeypatch):
    cache = PlanCache(32)
    db = MemDatabase(plan_cache=cache)
    monkeypatch.setattr(
        "repro.backends.memdb.engine.parse_sql",
        lambda sql: pytest.fail(f"load_table parsed {sql!r}"),
    )
    before = cache.stats()
    db.load_table("t", _columns())
    assert cache.stats() == before
    assert db.row_count("t") == 5


def test_input_arrays_are_copied():
    db = MemDatabase(plan_cache=PlanCache(8))
    columns = _columns()
    db.load_table("t", columns)
    expected = _rows(db, _QUERIES[0])
    columns["id"][:] = 0
    columns["v"][:] = 99.0
    columns["name"][:] = "changed"
    assert _rows(db, _QUERIES[0]) == expected


def test_narrow_and_text_dtypes_store_as_column_types():
    db = MemDatabase(plan_cache=PlanCache(8))
    db.load_table(
        "t",
        {
            "small": np.array([1, 2], dtype=np.int32),
            "half": np.array([0.5, 1.5], dtype=np.float32),
            "word": np.array(["x", "yy"]),
        },
    )
    assert db.table("t").schema_signature() == (
        ("small", "int64"),
        ("half", "float64"),
        ("word", "object"),
    )
    assert db.execute("SELECT small, half, word FROM t ORDER BY small").rows == [
        (1, 0.5, "x"),
        (2, 1.5, "yy"),
    ]


class TestRejections:
    @pytest.fixture
    def db(self):
        db = MemDatabase(plan_cache=PlanCache(8))
        db.load_table("kept", {"id": np.array([1, 2], dtype=np.int64)})
        return db

    def _assert_unchanged(self, db):
        assert db.table_names() == ["kept"]
        assert db.execute("SELECT id FROM kept ORDER BY id").rows == [(1,), (2,)]

    def test_existing_name(self, db):
        with pytest.raises(SQLExecutionError, match="already exists"):
            db.load_table("kept", {"id": np.array([9], dtype=np.int64)})
        self._assert_unchanged(db)

    def test_ragged_columns(self, db):
        with pytest.raises(SQLExecutionError, match="lengths differ"):
            db.load_table("t", {"a": np.arange(3), "b": np.arange(2)})
        self._assert_unchanged(db)

    @pytest.mark.parametrize(
        "values",
        [
            np.array([1, 2.5, None], dtype=object),  # numbers in an object array
            np.array([1 + 2j]),
            np.array(["2020-01-01"], dtype="datetime64[D]"),
            np.array([7], dtype=np.uint64),
            np.array([True, False]),
            np.zeros((2, 2)),
        ],
        ids=["object-in-numeric", "complex", "datetime", "unsigned", "bool", "2-d"],
    )
    def test_unsupported_values(self, db, values):
        with pytest.raises(SQLExecutionError, match="cannot load"):
            db.load_table("t", {"ok": np.arange(len(values)), "bad": values})
        self._assert_unchanged(db)

"""End-to-end trace-span tests: tree shape, timing, row-count parity.

The acceptance invariant: a traced run's per-block ``rows`` attributes must
match the *pre-limit actual* cardinalities EXPLAIN ANALYZE reports for the
same query — both read the same execution observation, so a traced star join
is exactly as truthful as EXPLAIN ANALYZE, at a fraction of the cost.
"""

import re

import pytest

from repro.backends.memdb import MemDatabase, tokenize
from repro.backends.memdb.engine import PlanCache
from repro.obs import MetricsRegistry, SlowQueryLog, TraceRingBuffer, Tracer

_STAR_QUERY = (
    "SELECT c.k AS k, SUM(a.payload * b.scale) AS total "
    "FROM a JOIN b ON b.j = a.j JOIN c ON c.k = a.k "
    "WHERE c.sel = 1 GROUP BY c.k ORDER BY k"
)

_CTE_QUERY = (
    "WITH j1 AS (SELECT a.k AS k, a.payload * b.scale AS v FROM a JOIN b ON b.j = a.j) "
    "SELECT c.k AS k, SUM(j1.v) AS total FROM j1 JOIN c ON c.k = j1.k "
    "WHERE c.sel = 1 GROUP BY c.k ORDER BY k"
)

#: A pass-through CTE (the stored table's own vectors cross the edge) scanned
#: twice under two bindings; CTE edges carry bare column vectors, and their
#: ``rows`` still come from the same observation EXPLAIN ANALYZE prints.
_CTE_EDGE_QUERY = (
    "WITH p AS (SELECT k, j, payload FROM a), "
    "q AS (SELECT x.k AS k, x.payload + y.payload AS v FROM p AS x JOIN p AS y ON y.j = x.k) "
    "SELECT q.k AS k, SUM(q.v) AS total FROM q GROUP BY q.k ORDER BY k LIMIT 5"
)

_ACTUAL_LINE = re.compile(r"^(\w+): actual rows (\d+)")


def _make_tracer(threshold_s: float = 10.0) -> Tracer:
    return Tracer(
        registry=MetricsRegistry(),
        ring=TraceRingBuffer(64),
        slow_log=SlowQueryLog(threshold_s=threshold_s),
    )


def _load_star_schema(db: MemDatabase) -> None:
    db.execute("CREATE TABLE a (k INTEGER, j INTEGER, payload DOUBLE)")
    db.execute("CREATE TABLE b (j INTEGER, scale DOUBLE)")
    db.execute("CREATE TABLE c (k INTEGER, sel INTEGER)")
    a_rows = ", ".join(f"({i % 40}, {i % 12}, {i * 0.5})" for i in range(600))
    b_rows = ", ".join(f"({j}, {j * 0.1})" for j in range(12))
    c_rows = ", ".join(f"({k}, {k % 2})" for k in range(40))
    db.execute(f"INSERT INTO a VALUES {a_rows}")
    db.execute(f"INSERT INTO b VALUES {b_rows}")
    db.execute(f"INSERT INTO c VALUES {c_rows}")


def _explain_analyze_actuals(db: MemDatabase, sql: str) -> dict[str, int]:
    """Per-block pre-limit actual cardinalities parsed from EXPLAIN ANALYZE."""
    actuals: dict[str, int] = {}
    for (line,) in db.execute("EXPLAIN ANALYZE " + sql).rows:
        match = _ACTUAL_LINE.match(line)
        if match:
            actuals[match.group(1)] = int(match.group(2))
    return actuals


@pytest.fixture
def traced_db():
    tracer = _make_tracer()
    db = MemDatabase(plan_cache=PlanCache(maxsize=64), tracer=tracer)
    _load_star_schema(db)
    tracer.ring.drain()  # drop the DDL/INSERT traces; tests read query traces
    return db, tracer


class TestTraceShape:
    def test_cold_query_has_full_stage_chain(self, traced_db):
        db, tracer = traced_db
        db.execute(_STAR_QUERY)
        root = tracer.recent_traces()[-1]
        assert root["name"] == "query"
        assert root["attrs"]["cache"] == "miss"
        stages = [child["name"] for child in root["children"]]
        assert stages == ["parse", "optimize", "plan", "execute"]

    def test_parse_span_sizes_the_text_it_was_handed(self, traced_db):
        db, tracer = traced_db
        script = f"{_STAR_QUERY} ;  -- trailing comment\nSELECT 1"
        db.execute(script)
        parse = tracer.recent_traces()[-1]["children"][0]
        assert parse["name"] == "parse"
        # END is a sentinel, not a token of the text.
        assert parse["attrs"] == {
            "chars": len(script),
            "tokens": len(tokenize(script)) - 1,
            "statements": 2,
        }

    def test_warm_query_skips_compile_stages(self, traced_db):
        db, tracer = traced_db
        db.execute(_STAR_QUERY)
        db.execute(_STAR_QUERY)
        root = tracer.recent_traces()[-1]
        assert root["attrs"]["cache"] == "hit"
        stages = [child["name"] for child in root["children"]]
        assert stages == ["execute"]

    def test_execute_contains_blocks_and_operators(self, traced_db):
        db, tracer = traced_db
        db.execute(_CTE_QUERY)
        root = tracer.recent_traces()[-1]
        execute = next(c for c in root["children"] if c["name"] == "execute")
        blocks = [c for c in execute["children"] if c["name"] == "block"]
        assert [b["attrs"]["block"] for b in blocks] == ["j1", "main"]
        operators = [c["name"] for b in blocks for c in b["children"]]
        assert "operator" in operators

    def test_timing_monotonicity(self, traced_db):
        db, tracer = traced_db
        db.execute(_CTE_QUERY)
        root = tracer.recent_traces()[-1]

        def check(span: dict) -> None:
            assert span["duration_s"] >= 0.0
            children = span["children"]
            for child in children:
                assert child["start_s"] >= span["start_s"]
                assert child["duration_s"] <= span["duration_s"] + 1e-6
                check(child)
            for earlier, later in zip(children, children[1:]):
                assert later["start_s"] >= earlier["start_s"]
            if children:
                assert sum(c["duration_s"] for c in children) <= span["duration_s"] + 1e-6

        check(root)

    def test_root_attrs_record_result_size(self, traced_db):
        db, tracer = traced_db
        result = db.execute(_STAR_QUERY)
        root = tracer.recent_traces()[-1]
        assert root["attrs"]["rows"] == len(result.rows)
        assert root["attrs"]["sql"].startswith("SELECT c.k")

    def test_metrics_recorded_per_query(self, traced_db):
        db, tracer = traced_db
        db.execute(_STAR_QUERY)
        db.execute(_STAR_QUERY)
        snapshot = tracer.registry.snapshot()
        assert snapshot["counters"]["engine.queries"] >= 2
        assert snapshot["histograms"]["engine.query_seconds"]["count"] >= 2

    def test_untraced_engine_produces_no_spans(self):
        # enable_tracing=False opts out even under REPRO_TRACE=1 (the CI
        # leg that runs the whole suite with env tracing forced on).
        db = MemDatabase(plan_cache=PlanCache(maxsize=8), enable_tracing=False)
        _load_star_schema(db)
        assert db.tracer is None
        result = db.execute(_STAR_QUERY)
        assert len(result.rows) > 0
        assert db.engine_stats()["tracing"] == {"enabled": False}


class TestRowParity:
    """Block-span rows must equal EXPLAIN ANALYZE's pre-limit actuals."""

    @staticmethod
    def _block_rows(trace: dict) -> dict[str, int]:
        execute = next(c for c in trace["children"] if c["name"] == "execute")
        return {
            b["attrs"]["block"]: b["attrs"]["rows"]
            for b in execute["children"]
            if b["name"] == "block"
        }

    @pytest.mark.parametrize("sql", [_STAR_QUERY, _CTE_QUERY, _CTE_EDGE_QUERY])
    def test_serial_block_rows_match_actuals(self, traced_db, sql):
        db, tracer = traced_db
        actuals = _explain_analyze_actuals(db, sql)
        assert actuals, "EXPLAIN ANALYZE reported no per-block actuals"
        db.execute(sql)
        block_rows = self._block_rows(tracer.recent_traces()[-1])
        assert block_rows == actuals

    @pytest.mark.parametrize("sql", [_STAR_QUERY, _CTE_QUERY, _CTE_EDGE_QUERY])
    def test_warm_block_rows_match_actuals(self, traced_db, sql):
        db, tracer = traced_db
        actuals = _explain_analyze_actuals(db, sql)
        db.execute(sql)
        db.execute(sql)  # re-binds the cached plan
        trace = tracer.recent_traces()[-1]
        assert trace["attrs"]["cache"] == "hit"
        assert self._block_rows(trace) == actuals


class TestSlowQueryLogEndToEnd:
    def test_star_join_captured_with_plan_snapshot(self):
        tracer = _make_tracer(threshold_s=0.0)  # everything is "slow"
        db = MemDatabase(plan_cache=PlanCache(maxsize=64), tracer=tracer)
        _load_star_schema(db)
        result = db.execute(_STAR_QUERY)
        entries = [e for e in tracer.slow_queries() if e["sql"].startswith("SELECT c.k")]
        assert entries, "the star join never reached the slow-query log"
        entry = entries[-1]
        assert entry["rows"] == len(result.rows)
        assert entry["seconds"] > 0
        assert entry["trace"]["name"] == "query"
        # The lazily rendered plan snapshot is the EXPLAIN-style rendering.
        plan_text = "\n".join(entry["plan"])
        assert "physical" in plan_text
        assert "plan cache" in plan_text

    def test_fast_queries_stay_out_of_the_log(self, traced_db):
        db, tracer = traced_db
        db.execute(_STAR_QUERY)
        assert tracer.slow_queries() == []
        assert tracer.slow_log.stats()["captured"] == 0


class TestSimulateLifecycleSpans:
    """``simulate`` is accounted for by translate -> load -> query -> state."""

    @staticmethod
    def _simulate(tracer: Tracer, run) -> "Span":
        with tracer.span("request") as request:
            run()
        (simulate,) = [child for child in request.children if child.name == "simulate"]
        return simulate

    def test_sweep_point_has_no_dark_gap(self):
        from repro.backends.memdb_backend import MemDBBackend
        from repro.circuits import hardware_efficient_ansatz

        tracer = _make_tracer()
        template = hardware_efficient_ansatz(8, reps=1, rotation_gates=("ry",))
        names = sorted(parameter.name for parameter in template.parameters)
        backend = MemDBBackend(plan_cache=PlanCache(maxsize=8), tracer=tracer)
        executable = backend.compile(template)
        # compile() planned the representative binding, whose equal angles
        # share one RY table; the first real point plans the 16-table text.
        executable.bind({name: 0.05 * (k + 1) for k, name in enumerate(names)}).execute()
        coverage = []
        for attempt in range(5):
            point = {name: 0.1 * (attempt + 1) * (k + 1) for k, name in enumerate(names)}
            simulate = self._simulate(tracer, lambda: executable.bind(point).execute())
            children = simulate.children
            assert [child.name for child in children] == ["translate", "load", "query", "state"]
            translate, load, query, state = children
            assert translate.attrs["gates"] == template.size()
            # 16 distinct RY tables + CX, and T0; 4 rows per rotation, 4 for CX, 1 for T0.
            assert load.attrs == {"tables": 18, "rows": 16 * 4 + 4 + 1}
            assert query.attrs["cache"] == "hit"
            assert state.attrs["rows"] == query.attrs["rows"] == 256
            for earlier, later in zip(children, children[1:]):
                assert later.start_s >= earlier.start_s + earlier.duration_s - 1e-9
            coverage.append(sum(child.duration_s for child in children) / simulate.duration_s)
        # Connect, disconnect and the bookkeeping between the spans are what
        # is left; a scheduling hiccup can land there, so judge the best run.
        assert max(coverage) >= 0.85

    def test_cached_translation_skips_the_translate_span(self):
        from repro.backends.memdb_backend import MemDBBackend
        from repro.circuits import qft_circuit

        tracer = _make_tracer()
        backend = MemDBBackend(plan_cache=PlanCache(maxsize=8), tracer=tracer, mode="materialized")
        executable = backend.compile(qft_circuit(3))
        simulate = self._simulate(tracer, lambda: executable.bind().execute())
        names = [child.name for child in simulate.children]
        assert names[0] == "load" and names[-1] == "state"
        assert set(names[1:-1]) == {"query"}  # one per CREATE TABLE AS / DROP / final SELECT
        assert simulate.children[-1].attrs["rows"] == 8

    def test_sql_text_backends_get_the_same_lifecycle_spans(self):
        from repro.backends.sqlite_backend import SQLiteBackend
        from repro.circuits import ghz_circuit

        tracer = _make_tracer()
        simulate = self._simulate(tracer, lambda: SQLiteBackend().run(ghz_circuit(3)))
        assert [child.name for child in simulate.children] == ["load", "state"]
        assert simulate.children[0].attrs == {"tables": 3, "rows": 4 + 4 + 1}
        assert simulate.children[1].attrs == {"rows": 2}

"""Tests for spans, the tracer, sinks, and the unified stats schema."""

import json
import threading

import numpy as np
import pytest

from repro.backends.memdb import MemDatabase, PlanCache
from repro.obs import (
    ENGINE_STATS_SCHEMA_VERSION,
    JsonlTraceSink,
    MetricsRegistry,
    SlowQueryLog,
    Span,
    TraceRingBuffer,
    Tracer,
    annotate_current,
    current_span,
    flatten_counters,
    maybe_span,
    reset_shared_tracer,
    shared_tracer,
)
from repro.obs.tracing import TRACE_ENV_VAR


@pytest.fixture(autouse=True)
def _fresh_shared_tracer():
    reset_shared_tracer()
    yield
    reset_shared_tracer()


class TestSpan:
    def test_finish_freezes_duration(self):
        span = Span("s")
        span.finish()
        frozen = span.duration_s
        assert span.duration_s == frozen

    def test_set_add_and_walk(self):
        root = Span("root")
        child = Span("child")
        root.children.append(child)
        root.set(rows=5)
        child.add("morsels", 3)
        child.add("morsels", 2)
        assert [span.name for span in root.walk()] == ["root", "child"]
        assert root.find("child").attrs["morsels"] == 5
        assert root.find("child", morsels=5) is child
        assert root.find("child", morsels=99) is None

    def test_to_dict_is_json_serializable(self):
        root = Span("root", {"k": 1})
        root.children.append(Span("child"))
        root.finish()
        encoded = json.dumps(root.to_dict())
        decoded = json.loads(encoded)
        assert decoded["name"] == "root"
        assert decoded["children"][0]["name"] == "child"


class TestTracerNesting:
    def test_spans_nest_and_pop(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            assert current_span() is outer
            with tracer.span("inner") as inner:
                assert current_span() is inner
            assert current_span() is outer
        assert current_span() is None
        assert outer.children == [inner]

    def test_exception_still_finishes_and_dispatches(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("failing"):
                raise RuntimeError("boom")
        assert current_span() is None
        traces = tracer.recent_traces()
        assert len(traces) == 1 and traces[0]["name"] == "failing"

    def test_only_root_lands_in_ring(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.query("SELECT 1"):
                pass
        traces = tracer.recent_traces()
        assert len(traces) == 1
        assert traces[0]["name"] == "outer"
        assert traces[0]["children"][0]["name"] == "query"

    def test_query_records_metrics_even_when_nested(self):
        registry = MetricsRegistry()
        tracer = Tracer(registry=registry)
        with tracer.span("outer"):
            with tracer.query("SELECT 1"):
                pass
        assert registry.counter("engine.queries").value == 1
        assert registry.histogram("engine.query_seconds").count == 1

    def test_thread_local_isolation(self):
        tracer = Tracer()
        seen = {}

        def worker() -> None:
            seen["before"] = current_span()
            with tracer.span("worker-root") as span:
                seen["during"] = current_span() is span

        with tracer.span("main-root"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert seen["before"] is None
        assert seen["during"] is True
        # Two independent roots, one per thread.
        assert sorted(t["name"] for t in tracer.recent_traces()) == ["main-root", "worker-root"]

    def test_annotate_current_accumulates_or_noops(self):
        annotate_current("never_recorded")  # no active span: must not raise
        tracer = Tracer()
        with tracer.span("op") as span:
            annotate_current("morsel_tasks", 4)
            annotate_current("morsel_tasks", 2)
        assert span.attrs["morsel_tasks"] == 6


class TestMaybeSpan:
    def test_noop_without_env_or_active_span(self, monkeypatch):
        monkeypatch.delenv(TRACE_ENV_VAR, raising=False)
        with maybe_span("compile") as span:
            assert span is None

    def test_env_enables_root(self, monkeypatch):
        monkeypatch.setenv(TRACE_ENV_VAR, "1")
        with maybe_span("compile", method="memdb") as span:
            assert span is not None
        roots = shared_tracer().recent_traces()
        assert roots and roots[-1]["name"] == "compile"

    def test_nests_under_active_span_regardless_of_env(self, monkeypatch):
        monkeypatch.delenv(TRACE_ENV_VAR, raising=False)
        tracer = Tracer()
        with tracer.span("job") as job:
            with maybe_span("compile") as span:
                assert span is not None
        assert job.children[0].name == "compile"


class TestSinks:
    def test_ring_buffer_bounds_and_drain(self):
        ring = TraceRingBuffer(maxlen=3)
        for index in range(5):
            ring.append({"name": str(index)})
        assert ring.appended == 5
        assert [t["name"] for t in ring.snapshot()] == ["2", "3", "4"]
        assert len(ring.drain()) == 3
        assert len(ring) == 0

    def test_jsonl_sink_writes_one_line_per_trace(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        sink = JsonlTraceSink(str(path))
        sink.write({"name": "a", "weird": object()})
        sink.write({"name": "b"})
        sink.close()
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[1])["name"] == "b"
        assert sink.stats()["written"] == 2

    def test_slow_log_threshold_gating(self):
        log = SlowQueryLog(threshold_s=0.5)
        fast = Span("query", {"sql": "SELECT 1"})
        fast.end_s = fast.start_s + 0.1
        slow = Span("query", {"sql": "SELECT 2", "rows": 7})
        slow.end_s = slow.start_s + 1.0
        assert log.offer(fast) is False
        assert log.offer(slow) is True
        entries = log.entries()
        assert len(entries) == 1
        assert entries[0]["sql"] == "SELECT 2"
        assert entries[0]["rows"] == 7

    def test_slow_log_renders_plan_lazily(self):
        log = SlowQueryLog(threshold_s=0.0)
        span = Span("query", {"sql": "SELECT 1"})
        calls = []
        span.plan_provider = lambda: calls.append(1) or ["plan line"]
        span.finish()
        log.offer(span)
        assert calls == [1]
        assert log.entries()[0]["plan"] == ["plan line"]

    def test_slow_log_degrades_on_plan_failure(self):
        log = SlowQueryLog(threshold_s=0.0)
        span = Span("query")

        def broken():
            raise RuntimeError("no plan")

        span.plan_provider = broken
        span.finish()
        log.offer(span)
        assert log.entries()[0]["plan"] == ["<plan snapshot failed>"]


class TestEngineStatsSchema:
    def test_sections_version_and_rollup(self):
        db = MemDatabase(plan_cache=PlanCache(0), enable_parallel=False, enable_tracing=False)
        db.execute("CREATE TABLE t (id BIGINT NOT NULL, s TEXT)")
        db.execute("INSERT INTO t (id, s) VALUES (0, 'm'), (1, 'z')")
        # 'a' sorts before every entry: the dictionary grows and is rebuilt.
        db.execute("INSERT INTO t (id, s) VALUES (2, 'a')")
        db.load_table("u", {"s": np.array(["x", "y"], dtype=object)})
        stats = db.engine_stats()
        assert list(stats) == [
            "schema_version", "plan_cache", "optimizer", "adaptive", "parallel", "storage", "tracing",
        ]
        assert stats["schema_version"] == ENGINE_STATS_SCHEMA_VERSION == 3
        assert "adaptive" not in stats["optimizer"]
        assert stats["adaptive"]["enabled"] is True and stats["adaptive"]["replans"] == 0
        assert stats["tracing"] == {"enabled": False}
        rebuilds = db.table("t").storage_stats()["columns"]["s"]["dictionary_rebuilds"]
        assert rebuilds >= 1
        assert stats["storage"]["dictionary_rebuilds"] == rebuilds + sum(
            column["dictionary_rebuilds"]
            for column in db.table("u").storage_stats()["columns"].values()
        )
        assert stats["storage"]["tables"]["t"] == db.table("t").storage_stats()

    def test_flatten_counters_dotted_names(self):
        stats = {
            "plan_cache": {"hits": 3, "misses": 1},
            "parallel": {"enabled": True},
            "storage": {"tables": {"ignored": 1}, "total_bytes": 9},
            "optimizer": {
                "statistics": {
                    "analyze_count": 2,
                    "tables": {"t": {"rows": 5}},
                    "corrections": {"t|shape": 8.0},
                },
            },
            "adaptive": {"corrections": 1, "events": [{"block": "T1"}]},
        }
        # Counters stay; per-entity maps (per-table detail, correction
        # factors, event lists) are dropped.
        assert flatten_counters(stats) == {
            "plan_cache.hits": 3,
            "plan_cache.misses": 1,
            "parallel.enabled": 1,
            "storage.total_bytes": 9,
            "optimizer.statistics.analyze_count": 2,
            "adaptive.corrections": 1,
        }

"""Observability tests for the job service: queue metrics, contention, merge."""

import threading

import pytest

from repro.circuits import ghz_circuit, qaoa_maxcut_circuit, ring_graph
from repro.obs import MetricsRegistry
from repro.service import EnginePool, JobService

_GRID = [{"gamma[0]": round(0.2 * k, 3), "beta[0]": 0.3} for k in range(1, 5)]


def _qaoa_template():
    return qaoa_maxcut_circuit(4, edges=ring_graph(4), p=1)


@pytest.fixture
def service():
    service = JobService(max_workers=2)
    yield service
    service.shutdown(wait=True)


class TestServiceMetrics:
    def test_lifecycle_counters_and_gauges(self, service):
        for _ in range(3):
            service.submit(circuit=ghz_circuit(3), method="memdb").result(timeout=30)
        snapshot = service.metrics.snapshot()
        assert snapshot["counters"]["jobs.submitted"] == 3
        assert snapshot["counters"]["jobs.done"] == 3
        # Everything finished: both level gauges are back to zero.
        assert snapshot["gauges"]["jobs.queue_depth"] == 0
        assert snapshot["gauges"]["jobs.running"] == 0

    def test_latency_histograms_populated(self, service):
        service.submit(circuit=ghz_circuit(3), method="memdb").result(timeout=30)
        snapshot = service.metrics.snapshot()
        assert snapshot["histograms"]["jobs.queue_wait_seconds"]["count"] == 1
        assert snapshot["histograms"]["jobs.thread_tier_seconds"]["count"] == 1
        assert snapshot["histograms"]["jobs.thread_tier_seconds"]["max"] > 0

    def test_error_jobs_counted(self, service):
        handle = service.submit(
            circuit=_qaoa_template(), method="memdb", params={"nonexistent": 1.0}
        )
        with pytest.raises(Exception):
            handle.result(timeout=30)
        snapshot = service.metrics.snapshot()
        assert snapshot["counters"]["jobs.error"] == 1
        assert snapshot["gauges"]["jobs.running"] == 0

    def test_cancelled_from_queue_counted_and_depth_restored(self):
        service = JobService(max_workers=1)
        try:
            release = threading.Event()
            original_grid = [{"gamma[0]": 0.1, "beta[0]": 0.2}]

            # Occupy the single worker so the next submit stays queued.
            blocker = service.submit(
                circuit=_qaoa_template(), method="memdb", param_grid=original_grid * 8
            )
            queued = service.submit(circuit=ghz_circuit(3), method="memdb")
            cancelled = queued.cancel()
            blocker.result(timeout=60)
            release.set()
            if cancelled:
                snapshot = service.metrics.snapshot()
                assert snapshot["counters"]["jobs.cancelled"] == 1
                assert snapshot["gauges"]["jobs.queue_depth"] == 0
        finally:
            service.shutdown(wait=True)

    def test_shared_registry_injection(self):
        registry = MetricsRegistry()
        service = JobService(max_workers=1, metrics=registry)
        try:
            service.submit(circuit=ghz_circuit(2), method="memdb").result(timeout=30)
            assert registry.counter("jobs.done").value == 1
        finally:
            service.shutdown(wait=True)

    def test_service_stats_include_metrics_snapshot(self, service):
        service.submit(circuit=ghz_circuit(2), method="memdb").result(timeout=30)
        stats = service.stats()
        assert "metrics" in stats
        assert stats["metrics"]["counters"]["jobs.done"] == 1


class TestEnginePoolContention:
    def test_first_acquire_is_not_contention(self):
        pool = EnginePool()
        key, instance = pool.acquire("statevector", {})
        pool.release(key, instance)
        assert pool.stats()["contended"] == 0

    def test_reuse_is_not_contention(self):
        pool = EnginePool()
        key, instance = pool.acquire("statevector", {})
        pool.release(key, instance)
        pool.acquire("statevector", {})
        stats = pool.stats()
        assert stats["reused"] == 1
        assert stats["contended"] == 0

    def test_concurrent_lease_of_seen_key_counts(self):
        pool = EnginePool()
        key, first = pool.acquire("statevector", {})
        # The key has leased before and its idle list is empty: contention.
        pool.acquire("statevector", {})
        assert pool.stats()["contended"] == 1
        pool.release(key, first)

    def test_distinct_options_are_distinct_keys(self):
        pool = EnginePool()
        pool.acquire("statevector", {})
        pool.acquire("statevector", {"prune_atol": 1e-9})
        assert pool.stats()["contended"] == 0


class TestProcessTierMerge:
    @pytest.fixture
    def process_service(self):
        service = JobService(max_workers=2, process_workers=2)
        yield service
        service.shutdown(wait=True)

    def test_worker_stats_merged_into_job_metadata(self, process_service):
        handle = process_service.submit(
            circuit=_qaoa_template(), method="memdb", param_grid=_GRID
        )
        results = handle.result(timeout=180)
        assert len(results) == len(_GRID)
        tier = handle.metadata.get("process_tier")
        assert tier is not None, "process-tier jobs must report worker stats"
        workers = tier["workers"]
        assert workers, "no worker snapshots were merged"
        assert sum(worker["points"] for worker in workers.values()) == len(_GRID)
        for worker in workers.values():
            assert worker["chunks"] >= 1
            engine = worker.get("engine")
            assert engine is not None
            # Worker engines report the unified schema.
            assert engine["schema_version"] == 5
            assert engine["plan_cache"]["size"] >= 1
        # Per-tier latency landed in the process histogram, not the thread one.
        snapshot = process_service.metrics.snapshot()
        assert snapshot["histograms"]["jobs.process_tier_seconds"]["count"] == 1

    def test_thread_tier_jobs_have_no_process_metadata(self, process_service):
        handle = process_service.submit(circuit=ghz_circuit(3), method="memdb")
        handle.result(timeout=30)
        assert "process_tier" not in handle.metadata

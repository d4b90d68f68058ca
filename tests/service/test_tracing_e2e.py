"""End-to-end request tracing over real HTTP: one connected tree per request.

These tests drive the full serving stack — asyncio front end, admission,
fair scheduler, worker threads, and (in the process-tier case) spawned
worker processes — and assert that every stage of a request lands in a
single assembled span tree with consistent lineage and timings.
"""

import http.client
import json
import os
import re
import time

import pytest

from repro.bench.loadgen import ServingClient
from repro.circuits import ghz_circuit, hardware_efficient_ansatz
from repro.io.json_io import circuit_to_dict
from repro.obs import MetricsRegistry, RequestTraceStore, Tracer
from repro.obs.tracing import TraceContext
from repro.service import JobRequest, JobService
from repro.service.server import JobJournal, ServerThread, TenantQuota, build_server

_PARAMS = [f"theta[{i}]" for i in range(6)]
_GRID = [{name: round(0.1 * k, 3) for name in _PARAMS} for k in range(1, 5)]

#: Slack for child-within-parent timing checks.  Spans are timestamped at
#: different call sites (perf_counter reads straddle lock acquisitions), so
#: exact containment is too strict by a few microseconds.
_EPS_S = 1e-3


def _walk(node):
    yield node
    for child in node.get("children", []):
        yield from _walk(child)


def _assert_monotone(node, pid=None):
    """Child spans nest within their parent's window, per process.

    ``perf_counter`` is not comparable across processes, so the check
    recurses only while the worker pid stays the same; a worker-tagged
    subtree restarts the check against its own clock.
    """
    node_pid = node.get("attrs", {}).get("worker_pid", pid)
    start = node["start_s"]
    end = start + node["duration_s"]
    for child in node.get("children", []):
        child_pid = child.get("attrs", {}).get("worker_pid", node_pid)
        if child_pid == node_pid:
            assert child["start_s"] >= start - _EPS_S, (node["name"], child["name"])
            assert (
                child["start_s"] + child["duration_s"] <= end + _EPS_S
            ), (node["name"], child["name"])
        _assert_monotone(child, pid=child_pid)


def _raw_request(host, port, method, path, payload=None, headers=None):
    connection = http.client.HTTPConnection(host, port, timeout=30)
    try:
        body = json.dumps(payload).encode() if isinstance(payload, dict) else payload
        connection.request(method, path, body=body, headers=headers or {})
        response = connection.getresponse()
        raw = response.read()
        document = json.loads(raw.decode()) if raw else {}
        return response.status, dict(response.getheaders()), document
    finally:
        connection.close()


def _submit_payload(circuit, tenant="acme"):
    return {"circuit": circuit_to_dict(circuit), "method": "memdb", "tenant": tenant}


@pytest.fixture
def traced_server():
    server = build_server(
        max_workers=2,
        tracing=True,
        default_quota=TenantQuota(sample_rate=1.0),
        slow_threshold_s=60.0,
    )
    with ServerThread(server) as (host, port):
        yield ServingClient(host, port), server.service, (host, port)
    server.service.shutdown(wait=True)


class TestThreadTierTracing:
    def test_request_assembles_into_one_connected_tree(self, traced_server):
        client, service, _addr = traced_server
        status, body = client.submit(ghz_circuit(3), method="memdb", tenant="acme")
        assert status == 202
        assert re.fullmatch(r"[0-9a-f]{32}", body["trace_id"])
        client.wait(body["job_id"])

        store = service.tracer.request_store
        assembled = store.for_job(body["job_id"])
        assert assembled is not None
        assert assembled["trace_id"] == body["trace_id"]
        assert assembled["status"] == "done"
        assert assembled["partial"] is False, "trace has disconnected spans"

        root = assembled["root"]
        assert root["name"] == "request"
        names = [span["name"] for span in _walk(root)]
        # Every serving stage present, ingress through engine execution.
        for stage in ("request", "ingress", "admission", "queue_wait", "job"):
            assert stage in names, f"missing {stage} span in {names}"
        (job_span,) = [span for span in _walk(root) if span["name"] == "job"]
        assert job_span["children"], "job span recorded no engine work"
        _assert_monotone(root)
        # Connected tree: every recorded span is reachable from the root.
        assert len(list(_walk(root))) == len(names)

    def test_traceparent_header_joins_the_upstream_trace(self, traced_server):
        client, service, (host, port) = traced_server
        upstream_trace = "ab" * 16
        upstream_span = "cd" * 8
        header = f"00-{upstream_trace}-{upstream_span}-01"
        status, headers, body = _raw_request(
            host, port, "POST", "/v1/jobs",
            payload=_submit_payload(ghz_circuit(2)),
            headers={"traceparent": header, "Content-Type": "application/json"},
        )
        assert status == 202
        assert body["trace_id"] == upstream_trace
        # The response propagates our context onward: same trace id, a span
        # id minted here (not the upstream one we sent).
        echoed = headers.get("traceparent", "")
        assert echoed.startswith(f"00-{upstream_trace}-")
        assert upstream_span not in echoed
        client.wait(body["job_id"])
        assembled = service.tracer.request_store.for_job(body["job_id"])
        assert assembled["trace_id"] == upstream_trace
        assert assembled["root"]["parent_span_id"] == upstream_span

    def test_unsampled_traceparent_discards_after_success(self, traced_server):
        client, service, (host, port) = traced_server
        header = f"00-{'ef' * 16}-{'12' * 8}-00"  # flags 00: unsampled upstream
        status, _headers, body = _raw_request(
            host, port, "POST", "/v1/jobs",
            payload=_submit_payload(ghz_circuit(2)),
            headers={"traceparent": header, "Content-Type": "application/json"},
        )
        assert status == 202
        client.wait(body["job_id"])
        assert service.tracer.request_store.for_job(body["job_id"]) is None


class TestProcessTierTracing:
    def test_worker_process_spans_reassemble_under_the_job(self):
        server = build_server(
            max_workers=2,
            process_workers=2,
            tracing=True,
            default_quota=TenantQuota(sample_rate=1.0),
            slow_threshold_s=60.0,
        )
        circuit = hardware_efficient_ansatz(3, rotation_gates=("ry",))
        try:
            with ServerThread(server) as (host, port):
                client = ServingClient(host, port)
                status, body = client.submit(
                    circuit, method="memdb", tenant="acme", param_grid=_GRID
                )
                assert status == 202
                final = client.wait(body["job_id"], timeout=120.0)
                assert final["status"] == "done"
                status, assembled = client.trace(body["job_id"])
            assert status == 200
            assert assembled["partial"] is False
            root = assembled["root"]
            chunks = [span for span in _walk(root) if span["name"] == "chunk"]
            assert chunks, "process-tier job recorded no worker chunk spans"
            main_pid = os.getpid()
            for chunk in chunks:
                # Chunk spans come from spawned workers, tagged with the
                # foreign pid whose clock their timestamps belong to.
                assert chunk["attrs"]["worker_pid"] != main_pid
                assert chunk["children"], "chunk span recorded no engine work"
            (job_span,) = [span for span in _walk(root) if span["name"] == "job"]
            job_ids = {span.get("span_id") for span in _walk(job_span)}
            for chunk in chunks:
                assert chunk["span_id"] in job_ids, "chunk not parented under job"
            _assert_monotone(root)
            stats_tier = server.service.stats()["process_tier"]
            assert stats_tier["traces_dropped"] == 0
        finally:
            server.service.shutdown(wait=True)


class TestJournalReplayLineage:
    def test_replayed_job_keeps_its_original_trace_id(self, tmp_path):
        path = tmp_path / "jobs.journal"
        original = TraceContext.generate(sampled=True)
        request = JobRequest(circuit=ghz_circuit(2), method="memdb", trace=original)
        # A journal with one submitted-but-never-finished job, as a crashed
        # service would leave behind.
        journal = JobJournal(path)
        journal.record_submitted(1, request, trace_id=original.trace_id)
        journal.close()

        store = RequestTraceStore(capacity=64, slow_threshold_s=60.0)
        service = JobService(
            max_workers=1,
            journal=JobJournal(path),
            metrics=MetricsRegistry(),
            tracer=Tracer(registry=MetricsRegistry(), request_store=store),
        )
        try:
            (handle,) = service.replay_journal()
            handle.result(timeout=60)
            assert handle.request.trace.trace_id == original.trace_id
            # result() wakes on the status flip; the seal runs just after
            # it on the worker thread, so poll briefly for the sealed entry.
            deadline = time.monotonic() + 10.0
            while True:
                assembled = store.for_job(handle.job_id)
                if assembled is not None and assembled["status"] != "open":
                    break
                assert time.monotonic() < deadline, "trace never sealed"
                time.sleep(0.01)
            assert assembled["trace_id"] == original.trace_id
            assert assembled["status"] == "done"
        finally:
            service.shutdown(wait=True)


class TestTelemetrySurface:
    def test_internal_error_returns_json_500_with_trace_id(self, traced_server):
        _client, service, (host, port) = traced_server

        def explode():
            raise RuntimeError("boom")

        service.stats = explode
        status, _headers, body = _raw_request(host, port, "GET", "/v1/stats")
        assert status == 500
        assert "boom" in body["error"]
        assert re.fullmatch(r"[0-9a-f]{32}", body["trace_id"])
        snapshot = service.metrics.snapshot()
        assert snapshot["counters"]["http.errors_total"] >= 1
        assert snapshot["counters"]["http.requests_total"] >= 1

    def test_metrics_exemplar_resolves_to_a_retained_trace(self, traced_server):
        client, _service, _addr = traced_server
        for _ in range(3):
            status, body = client.submit(ghz_circuit(3), method="memdb", tenant="acme")
            assert status == 202
            client.wait(body["job_id"])
        text = client.metrics_text()
        assert text.endswith("\n")
        for line in text.splitlines():
            assert line.startswith("#") or " " in line
        assert 'repro_tenant_latency_seconds{tenant="acme",quantile="0.99"}' in text
        match = re.search(
            r'# exemplar repro_tenant_latency_seconds\{tenant="acme",quantile="0.99"\} '
            r"trace_id=([0-9a-f]{32}) job_id=(\d+)",
            text,
        )
        assert match, "no resolvable exemplar on the tenant latency summary"
        trace_id, job_id = match.group(1), int(match.group(2))
        status, assembled = client.trace(job_id)
        assert status == 200
        assert assembled["trace_id"] == trace_id

    def test_trace_endpoints_404_unknown_and_list_retained(self, traced_server):
        client, _service, _addr = traced_server
        status, body = client.trace(999_999)
        assert status == 404
        assert "error" in body
        status, submitted = client.submit(ghz_circuit(2), method="memdb", tenant="acme")
        assert status == 202
        client.wait(submitted["job_id"])
        listing = client.traces(tenant="acme")
        assert any(
            summary["job_id"] == submitted["job_id"] for summary in listing["traces"]
        )
        assert listing["store"]["retained"] >= 1

    def test_zero_sample_rate_keeps_only_failures(self):
        server = build_server(
            max_workers=2,
            tracing=True,
            default_quota=TenantQuota(sample_rate=0.0),
            slow_threshold_s=60.0,
        )
        try:
            with ServerThread(server) as (host, port):
                client = ServingClient(host, port)
                status, ok_body = client.submit(
                    ghz_circuit(2), method="memdb", tenant="acme"
                )
                assert status == 202
                client.wait(ok_body["job_id"])
                # A valid option whose value the run cannot meet: the job is
                # accepted and fails on the worker.
                status, bad_body = client.submit(
                    ghz_circuit(2), method="statevector", options={"max_qubits": 1},
                    tenant="acme",
                )
                assert status == 202
                final = client.wait(bad_body["job_id"])
                assert final["status"] == "error"
                store = server.service.tracer.request_store
                # Success at rate 0.0: sealed and discarded.  Failure: kept.
                assert store.for_job(ok_body["job_id"]) is None
                errored = store.for_job(bad_body["job_id"])
                assert errored is not None
                assert errored["status"] == "error"
                assert errored["sampled"] is False
        finally:
            server.service.shutdown(wait=True)

    def test_slow_requests_surface_with_stage_breakdown(self):
        # An explicit tracer (not the REPRO_TRACE process-shared one) so the
        # zero slow threshold is guaranteed to be the store consulted.
        store = RequestTraceStore(capacity=64, slow_threshold_s=0.0)
        server = build_server(
            max_workers=2,
            default_quota=TenantQuota(sample_rate=1.0),
            tracer=Tracer(registry=MetricsRegistry(), request_store=store),
        )
        try:
            with ServerThread(server) as (host, port):
                client = ServingClient(host, port)
                status, body = client.submit(
                    ghz_circuit(3), method="memdb", tenant="acme"
                )
                assert status == 202
                client.wait(body["job_id"])
                listing = client.traces(tenant="acme", slow=True)
            (summary,) = [
                s for s in listing["traces"] if s["job_id"] == body["job_id"]
            ]
            assert summary["duration_s"] > 0.0
            slow_entries = [
                entry for entry in listing["slow_requests"]
                if entry["job_id"] == body["job_id"]
            ]
            assert slow_entries, "slow request missing from the slow log"
            entry = slow_entries[0]
            for key in ("total_s", "admission_s", "queue_wait_s", "execute_s"):
                assert key in entry
            assert entry["execute_s"] > 0.0
            assert entry["total_s"] >= entry["execute_s"]
        finally:
            server.service.shutdown(wait=True)

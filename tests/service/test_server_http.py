"""Tests for the asyncio HTTP front end (all five endpoints + error paths)."""

import http.client
import json

import pytest

from repro.bench.loadgen import ServingClient
from repro.circuits import ghz_circuit, hardware_efficient_ansatz
from repro.io.json_io import circuit_to_dict
from repro.service import JobService
from repro.service.server import (
    AdmissionController,
    FairScheduler,
    JobJournal,
    JobServer,
    ServerThread,
    StructuralCostEstimator,
    TenantQuota,
    build_server,
    parse_job_payload,
)

_PARAMS = [f"theta[{i}]" for i in range(6)]
_GRID = [{name: round(0.1 * k, 3) for name in _PARAMS} for k in range(1, 4)]


def _ansatz():
    return hardware_efficient_ansatz(3, rotation_gates=("ry",))


def _raw_request(host, port, method, path, payload=None):
    """Like ServingClient._request but also returning the response headers."""
    connection = http.client.HTTPConnection(host, port, timeout=30)
    try:
        body = json.dumps(payload).encode() if isinstance(payload, dict) else payload
        connection.request(method, path, body=body)
        response = connection.getresponse()
        raw = response.read()
        document = json.loads(raw.decode()) if raw else {}
        return response.status, dict(response.getheaders()), document
    finally:
        connection.close()


@pytest.fixture
def plain_server():
    service = JobService(max_workers=2)
    with ServerThread(JobServer(service)) as (host, port):
        yield ServingClient(host, port), service
    service.shutdown(wait=True)


class TestEndpoints:
    def test_submit_poll_results_round_trip(self, plain_server):
        client, _service = plain_server
        status, body = client.submit(ghz_circuit(3), method="memdb", tenant="alice", tag="t1")
        assert status == 202
        assert body["tenant"] == "alice"
        assert body["status"] in ("queued", "running", "done")  # races the worker
        final = client.wait(body["job_id"])
        assert final["status"] == "done"
        assert final["tag"] == "t1"
        assert final["completed_points"] == final["total_points"] == 1
        # ?rows=1 inlines the full result documents.
        status, with_rows = client._request("GET", f"/v1/jobs/{body['job_id']}?rows=1")
        assert status == 200
        (result,) = with_rows["results"]
        assert result["num_qubits"] == 3

    def test_grid_submit_and_stream(self, plain_server):
        client, _service = plain_server
        status, body = client.submit(_ansatz(), method="memdb", param_grid=_GRID)
        assert status == 202
        records = client.stream(body["job_id"])
        # One record per point plus the trailing status line.
        assert len(records) == len(_GRID) + 1
        assert records[-1] == {"job_id": body["job_id"], "status": "done"}
        for point, record in zip(_GRID, records):
            assert record["metadata"]["parameter_binding"] == point
            assert "rows" not in record  # stripped without ?rows=1

    def test_cancel_endpoint(self, plain_server):
        client, _service = plain_server
        status, body = client.submit(_ansatz(), method="memdb", param_grid=_GRID * 4)
        assert status == 202
        status, cancelled = client.cancel(body["job_id"])
        assert status == 200 and cancelled["job_id"] == body["job_id"]
        final = client.wait(body["job_id"])
        assert final["status"] in ("cancelled", "done")

    def test_stats_endpoint_schema(self, plain_server):
        client, _service = plain_server
        stats = client.stats()
        assert stats["schema_version"] == 1
        assert stats["requests_served"] >= 1
        assert "jobs" in stats["service"] and "pool" in stats["service"]

    def test_unknown_job_is_404_without_journal(self, plain_server):
        client, _service = plain_server
        status, body = client.poll(12345)
        assert status == 404
        assert "12345" in body["error"]


class TestErrorPaths:
    def test_bad_json_body_is_400(self, plain_server):
        client, _service = plain_server
        status, headers, body = _raw_request(
            client.host, client.port, "POST", "/v1/jobs", b"{not json"
        )
        assert status == 400 and "invalid JSON" in body["error"]

    def test_missing_circuit_is_400(self, plain_server):
        client, _service = plain_server
        status, _headers, body = _raw_request(
            client.host, client.port, "POST", "/v1/jobs", {"method": "memdb"}
        )
        assert status == 400 and "circuit" in body["error"]

    def test_non_integer_job_id_is_400(self, plain_server):
        client, _service = plain_server
        status, _headers, body = _raw_request(client.host, client.port, "GET", "/v1/jobs/abc")
        assert status == 400

    @pytest.mark.parametrize("timeout", ["abc", "nan", "-1", "1e999", "0", ""])
    def test_bad_stream_timeout_is_400_for_finished_and_unfinished_jobs(self, timeout):
        """It used to be a 500 (``abc``) or passed straight to ``Condition.wait_for``."""
        service = JobService(max_workers=1)
        try:
            with ServerThread(JobServer(service)) as (host, port):
                client = ServingClient(host, port)
                _status, finished = client.submit(ghz_circuit(3), method="memdb")
                assert client.wait(finished["job_id"])["status"] == "done"
                # One worker: the second job queues behind the long grid.
                grid = [{name: 0.01 * k for name in _PARAMS} for k in range(1, 41)]
                _status, long_job = client.submit(_ansatz(), method="memdb", param_grid=grid)
                _status, queued = client.submit(ghz_circuit(3), method="memdb")
                for job in (finished, long_job, queued):
                    status, _headers, body = _raw_request(
                        host, port, "GET", f"/v1/jobs/{job['job_id']}/stream?timeout={timeout}"
                    )
                    assert status == 400 and "'timeout'" in body["error"], (job, body)
                # A good timeout still streams the job to its terminal record.
                records = client.stream(queued["job_id"], timeout=30.0)
                assert records[-1]["status"] == "done"
        finally:
            service.shutdown(wait=True)

    def test_unknown_path_is_404_and_wrong_method_405(self, plain_server):
        client, _service = plain_server
        status, _headers, _body = _raw_request(client.host, client.port, "GET", "/v2/what")
        assert status == 404
        status, _headers, _body = _raw_request(client.host, client.port, "PUT", "/v1/jobs/1")
        assert status == 405

    def test_parse_job_payload_validates_shapes(self):
        doc = circuit_to_dict(ghz_circuit(2))
        with pytest.raises(Exception, match="params"):
            parse_job_payload({"circuit": doc, "params": [1, 2]})
        with pytest.raises(Exception, match="param_grid"):
            parse_job_payload({"circuit": doc, "param_grid": {"a": 1}})
        with pytest.raises(Exception, match="tenant"):
            parse_job_payload({"circuit": doc, "tenant": ""})
        request = parse_job_payload({"circuit": doc})
        assert request.method == "memdb" and request.tenant == "default"


class TestQuotaAndAdmissionOverHttp:
    def test_rate_quota_is_429_with_retry_after_header(self):
        scheduler = FairScheduler()
        scheduler.configure("limited", TenantQuota(rate=0.001, burst=1.0))
        service = JobService(max_workers=1, scheduler=scheduler)
        try:
            with ServerThread(JobServer(service)) as (host, port):
                client = ServingClient(host, port)
                status, _body = client.submit(ghz_circuit(2), tenant="limited")
                assert status == 202
                raw = json.dumps(
                    {"circuit": circuit_to_dict(ghz_circuit(2)), "tenant": "limited"}
                ).encode()
                status, headers, body = _raw_request(host, port, "POST", "/v1/jobs", raw)
                assert status == 429
                assert body["reason"] == "rate"
                assert float(headers["Retry-After"]) > 0
        finally:
            service.shutdown(wait=True)

    def test_admission_ceiling_is_429(self):
        scheduler = FairScheduler()
        admission = AdmissionController(
            max_queued_cost=1.0, estimator=StructuralCostEstimator()
        )
        service = JobService(max_workers=1, scheduler=scheduler, admission=admission)
        try:
            with ServerThread(JobServer(service)) as (host, port):
                # A 3-qubit circuit prices above the 1-unit ceiling outright.
                status, body = ServingClient(host, port).submit(ghz_circuit(3))
                assert status == 429
                assert body["reason"] == "cost ceiling"
                assert body["retry_after"] > 0
        finally:
            service.shutdown(wait=True)


class TestJournalOverHttp:
    def test_purged_job_answers_410_from_the_journal(self, tmp_path):
        service = JobService(max_workers=1, journal=JobJournal(tmp_path / "j.journal"))
        try:
            with ServerThread(JobServer(service)) as (host, port):
                client = ServingClient(host, port)
                _status, body = client.submit(ghz_circuit(3), method="statevector")
                final = client.wait(body["job_id"])
                assert final["status"] == "done"
                assert service.purge() == 1
                status, gone = client.poll(body["job_id"])
                assert status == 410
                assert gone["status"] == "done" and gone["source"] == "journal"
                assert gone["completed_points"] == 1
        finally:
            service.shutdown(wait=True)

    def test_build_server_replays_incomplete_jobs_on_boot(self, tmp_path):
        journal_path = tmp_path / "serve.journal"
        # First incarnation: journal a mid-sweep kill by hand.
        journal = JobJournal(journal_path)
        from repro.service import JobRequest

        journal.record_submitted(
            1, JobRequest(circuit=_ansatz(), method="memdb", param_grid=_GRID)
        )
        journal.record_started(1)
        journal.record_point(1, 0)
        journal.close()
        # Second incarnation: build_server replays before accepting traffic.
        server = build_server(journal_path=journal_path, max_workers=2, shards=2)
        try:
            with ServerThread(server) as (host, port):
                client = ServingClient(host, port)
                resumed_id = server.service.jobs()[0].job_id
                final = client.wait(resumed_id)
                assert final["status"] == "done"
                assert final["total_points"] == len(_GRID) - 1  # suffix only
                stats = client.stats()["service"]
                assert stats["journal"]["incomplete"] == 0
                assert stats["scheduler"]["policy"] == "deficit-round-robin"
                assert stats["admission"]["estimator"]["estimator"] == "memdb-cost-model"
        finally:
            server.service.shutdown(wait=True)

"""Tests for the durable job journal: folding, replay, and purge interaction."""

import json
import threading

import pytest

from repro.circuits import ghz_circuit, hardware_efficient_ansatz
from repro.errors import QymeraError
from repro.service import JobRequest, JobService
from repro.service.server import JobJournal
from repro.service.server.journal import serialize_request

_PARAMS = [f"theta[{i}]" for i in range(6)]
_GRID = [{name: round(0.1 * k, 3) for name in _PARAMS} for k in range(1, 5)]


class _GatedJournal(JobJournal):
    """Holds the worker inside its first grid-point record until released."""

    def __init__(self, path) -> None:
        super().__init__(path)
        self.reached = threading.Event()
        self.release = threading.Event()

    def record_point(self, job_id: int, index: int) -> None:
        super().record_point(job_id, index)
        self.reached.set()
        self.release.wait(timeout=60)


def _sweep_request(grid=None):
    return JobRequest(
        circuit=hardware_efficient_ansatz(3, rotation_gates=("ry",)),
        method="memdb",
        param_grid=grid if grid is not None else _GRID,
        tenant="sweeper",
    )


class TestJournalFolding:
    def test_lifecycle_folds_to_terminal_entry(self, tmp_path):
        journal = JobJournal(tmp_path / "j.journal")
        fingerprint = journal.record_submitted(1, _sweep_request())
        assert fingerprint  # serializable requests get a content hash
        journal.record_started(1)
        journal.record_point(1, 0)
        journal.record_point(1, 1)
        journal.record_terminal(1, "done")
        (entry,) = journal.entries()
        assert entry.terminal and entry.status == "done"
        assert entry.completed_points == 2
        assert entry.total_points == len(_GRID)
        assert journal.incomplete() == []

    def test_rejects_non_terminal_status(self, tmp_path):
        journal = JobJournal(tmp_path / "j.journal")
        with pytest.raises(QymeraError):
            journal.record_terminal(1, "running")

    def test_restart_rereads_existing_file(self, tmp_path):
        path = tmp_path / "j.journal"
        first = JobJournal(path)
        first.record_submitted(1, _sweep_request())
        first.record_terminal(1, "error", error="boom")
        first.close()
        reborn = JobJournal(path)
        status = reborn.final_status(1)
        assert status["status"] == "error" and status["error"] == "boom"
        assert reborn.final_status(99) is None

    def test_torn_final_line_is_tolerated(self, tmp_path):
        path = tmp_path / "j.journal"
        journal = JobJournal(path)
        journal.record_submitted(1, _sweep_request())
        journal.record_point(1, 0)
        journal.close()
        # A hard kill can tear the last record mid-write.
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"event": "point", "job_id": 1, "ind')
        recovered = JobJournal(path)
        (entry,) = recovered.entries()
        assert entry.completed_points == 1  # the torn record is dropped

    def test_unserializable_payload_still_audits_lifecycle(self, tmp_path):
        request = JobRequest(
            circuit=ghz_circuit(2), method="memdb", options={"engine": object()}
        )
        assert serialize_request(request) is None
        journal = JobJournal(tmp_path / "j.journal")
        assert journal.record_submitted(1, request) == ""
        (plan,) = journal.replay_plan()
        assert plan["request"] is None and "serializable" in plan["reason"]


class TestReplayPlan:
    def test_narrows_grid_to_unfinished_suffix(self, tmp_path):
        journal = JobJournal(tmp_path / "j.journal")
        journal.record_submitted(7, _sweep_request())
        journal.record_started(7)
        journal.record_point(7, 0)
        journal.record_point(7, 1)
        (plan,) = journal.replay_plan()
        assert plan["job_id"] == 7 and plan["skip_points"] == 2
        assert plan["request"].param_grid == _GRID[2:]

    def test_all_points_done_but_terminal_lost_needs_no_replay(self, tmp_path):
        journal = JobJournal(tmp_path / "j.journal")
        journal.record_submitted(1, _sweep_request())
        for index in range(len(_GRID)):
            journal.record_point(1, index)
        # The kill landed between the last point and the terminal record.
        assert journal.replay_plan() == []

    def test_single_point_job_replays_whole(self, tmp_path):
        journal = JobJournal(tmp_path / "j.journal")
        journal.record_submitted(
            1, JobRequest(circuit=ghz_circuit(3), method="statevector")
        )
        journal.record_started(1)
        (plan,) = journal.replay_plan()
        assert plan["skip_points"] == 0
        assert plan["request"].param_grid is None


class TestServiceReplay:
    def test_round_trip_recomputes_only_missing_points(self, tmp_path):
        path = tmp_path / "j.journal"
        journal = JobJournal(path)
        # Synthesize a mid-sweep kill: submitted + 2 points, no terminal.
        journal.record_submitted(1, _sweep_request())
        journal.record_started(1)
        journal.record_point(1, 0)
        journal.record_point(1, 1)
        journal.close()

        restarted = JobJournal(path)
        service = JobService(max_workers=1, journal=restarted)
        try:
            (resumed,) = service.replay_journal()
            results = resumed.result(timeout=60)
        finally:
            service.shutdown(wait=True)
        assert len(results) == len(_GRID) - 2
        # The resumed points are exactly the unfinished suffix, in order.
        for point, result in zip(_GRID[2:], results):
            assert result.metadata["parameter_binding"] == point
        # The original entry is closed so a second restart replays nothing.
        final = JobJournal(path)
        assert final.incomplete() == []
        assert "superseded" in final.final_status(1)["error"]
        assert final.final_status(resumed.job_id)["status"] == "done"
        assert service.metrics.counter("jobs.replayed").value == 1

    def test_second_restart_is_a_no_op(self, tmp_path):
        path = tmp_path / "j.journal"
        journal = JobJournal(path)
        journal.record_submitted(1, _sweep_request())
        journal.record_point(1, 0)
        journal.close()
        service = JobService(max_workers=1, journal=JobJournal(path))
        try:
            (resumed,) = service.replay_journal()
            resumed.result(timeout=60)
        finally:
            service.shutdown(wait=True)
        second = JobService(max_workers=1, journal=JobJournal(path))
        try:
            assert second.replay_journal() == []
        finally:
            second.shutdown(wait=True)

    def test_journaled_unknown_option_replays_to_one_terminal_record(self, tmp_path):
        """The HTTP ingress refuses unknown options; replay has no such guard.

        A job journaled with an option the method no longer takes must not
        stop the restarted service: it runs, fails, and closes once.
        """
        path = tmp_path / "j.journal"
        journal = JobJournal(path)
        journal.record_submitted(
            1,
            JobRequest(circuit=ghz_circuit(3), method="memdb", options={"enable_parallel": True}),
        )
        journal.close()
        service = JobService(max_workers=1, journal=JobJournal(path))
        try:
            (resumed,) = service.replay_journal()
            with pytest.raises(TypeError, match="enable_parallel"):
                resumed.result(timeout=60)
        finally:
            service.shutdown(wait=True)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        terminal = [
            record["event"]
            for record in records
            if record["job_id"] == resumed.job_id
            and record["event"] in ("done", "error", "cancelled")
        ]
        assert terminal == ["error"]
        assert JobJournal(path).incomplete() == []

    def test_replay_ids_do_not_collide_with_journaled_ids(self, tmp_path):
        path = tmp_path / "j.journal"
        journal = JobJournal(path)
        journal.record_submitted(5, _sweep_request())
        service = JobService(max_workers=1, journal=journal)
        try:
            (resumed,) = service.replay_journal()
            assert resumed.job_id > 5
            resumed.result(timeout=60)
        finally:
            service.shutdown(wait=True)

    def test_clean_shutdown_leaves_no_incomplete_entries(self, tmp_path):
        path = tmp_path / "j.journal"
        service = JobService(max_workers=2, journal=JobJournal(path))
        try:
            handles = [
                service.submit(circuit=ghz_circuit(3), method="statevector")
                for _ in range(4)
            ]
            for handle in handles:
                handle.result(timeout=30)
        finally:
            service.shutdown(wait=True)
        # Zero dropped records: every submitted id has a terminal record.
        journal = JobJournal(path)
        assert journal.incomplete() == []
        assert len(journal.entries()) == 4


class TestPurgeInteraction:
    def test_purged_jobs_stay_answerable_through_the_journal(self, tmp_path):
        service = JobService(max_workers=1, journal=JobJournal(tmp_path / "j.journal"))
        try:
            handle = service.submit(circuit=ghz_circuit(3), method="statevector")
            handle.result(timeout=30)
            job_id = handle.job_id
            assert service.purge() == 1
            with pytest.raises(QymeraError):
                service.poll(job_id)  # the handle is gone...
            status = service.final_status(job_id)  # ...the journal answers
            assert status["status"] == "done"
            assert status["completed_points"] == 1
        finally:
            service.shutdown(wait=True)

    def test_purge_never_drops_unfinished_jobs(self, tmp_path):
        journal = _GatedJournal(tmp_path / "j.journal")
        service = JobService(max_workers=1, journal=journal)
        try:
            # The sweep is held inside its first grid point, occupying the
            # single worker; the job submitted behind it stays queued.
            running = service.submit(
                circuit=hardware_efficient_ansatz(3, rotation_gates=("ry",)),
                method="memdb",
                param_grid=_GRID,
            )
            assert journal.reached.wait(timeout=60)
            queued = service.submit(circuit=ghz_circuit(2), method="statevector")
            assert running.status() == "running" and queued.status() == "queued"
            assert service.purge() == 0  # nothing terminal yet: nothing dropped
            assert {handle.job_id for handle in service.jobs()} == {
                running.job_id,
                queued.job_id,
            }
            journal.release.set()
            running.result(timeout=60)
            queued.result(timeout=30)
        finally:
            journal.release.set()
            service.shutdown(wait=True)

    def test_final_status_is_none_without_a_journal(self):
        service = JobService(max_workers=1)
        try:
            assert service.final_status(1) is None
        finally:
            service.shutdown(wait=True)

"""Tests for the tenant-aware fair scheduler, quotas, and admission control."""

import threading
from types import SimpleNamespace

import pytest

from repro.circuits import ghz_circuit, hardware_efficient_ansatz, qft_circuit
from repro.errors import QymeraError
from repro.service import JobRequest, JobService
from repro.service.server import (
    AdmissionController,
    FairScheduler,
    QuotaExceeded,
    TenantQuota,
    TokenBucket,
    job_cost,
)
from repro.service.server.admission import ADMIT, REJECT


def _handle(tenant: str, cost: float = 1.0):
    """The scheduler only reads ``request.tenant`` and ``_cost_units``."""
    handle = SimpleNamespace(request=SimpleNamespace(tenant=tenant))
    handle._cost_units = cost
    return handle


class _FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestFairness:
    def test_ten_to_one_submit_rate_gets_equal_service(self):
        """The fairness property: DRR serves backlogged tenants ~1:1 in cost
        regardless of a 10:1 submit-rate imbalance."""
        scheduler = FairScheduler()
        for _ in range(100):
            scheduler.submit(_handle("heavy"))
        for _ in range(10):
            scheduler.submit(_handle("light"))
        served = {"heavy": 0, "light": 0}
        # Single-worker service loop over the window where both are backlogged.
        for _ in range(20):
            handle = scheduler.next_job(timeout=0.1)
            served[handle.request.tenant] += 1
            scheduler.on_finish(handle)
        assert served["light"] == served["heavy"] == 10

    def test_weights_scale_service_share(self):
        # Weights differentiate when job cost exceeds the per-pass quantum
        # (cost 3, quantum 1): weight-3 accrues a job's worth every pass,
        # weight-1 every third pass.
        scheduler = FairScheduler()
        scheduler.configure("gold", TenantQuota(weight=3.0))
        for _ in range(60):
            scheduler.submit(_handle("gold", cost=3.0), cost=3.0)
            scheduler.submit(_handle("basic", cost=3.0), cost=3.0)
        served = {"gold": 0, "basic": 0}
        for _ in range(40):
            handle = scheduler.next_job(timeout=0.1)
            served[handle.request.tenant] += 1
            scheduler.on_finish(handle)
        assert served["gold"] == pytest.approx(3 * served["basic"], rel=0.2)

    def test_weights_hold_when_a_job_costs_thousands_of_quanta(self):
        # Jobs are priced in rows, so a head may need thousands of passes
        # to be funded; the passes are computed, and the shares are exact.
        scheduler = FairScheduler()
        scheduler.configure("gold", TenantQuota(weight=3.0))
        for _ in range(60):
            scheduler.submit(_handle("gold", cost=30_000.0), cost=30_000.0)
            scheduler.submit(_handle("basic", cost=30_000.0), cost=30_000.0)
        served = {"gold": 0, "basic": 0}
        rounds = []
        for _ in range(40):
            handle = scheduler.next_job(timeout=0.1)
            served[handle.request.tenant] += 1
            rounds.append(handle._drr_rounds)
            scheduler.on_finish(handle)
        assert served == {"gold": 30, "basic": 10}
        assert max(rounds) == 10_000  # gold earns 3 credits a pass

    @pytest.mark.parametrize("seed", range(5))
    def test_computed_passes_pick_what_running_them_picks(self, seed):
        """The pick equals the one-pass-at-a-time DRR loop, credits included."""
        import random

        rng = random.Random(seed)
        tenants = [f"t{k}" for k in range(4)]
        computed = FairScheduler(quantum=rng.choice([1.0, 7.5, 100.0]))
        weights = {tenant: rng.choice([0.5, 1.0, 3.0]) for tenant in tenants}
        for tenant in tenants:
            computed.configure(tenant, TenantQuota(weight=weights[tenant]))
        deficits = dict.fromkeys(tenants, 0.0)
        queues = {tenant: [] for tenant in tenants}
        for _ in range(40):
            tenant = rng.choice(tenants)
            cost = float(rng.choice([1, 3, 64, 4350, 30_000]))
            computed.submit(_handle(tenant, cost=cost), cost=cost)
            queues[tenant].append(cost)
        cursor = 0
        for _ in range(40):
            # The reference: visit the rotation one tenant at a time.
            while True:
                tenant = tenants[cursor % len(tenants)]
                cursor += 1
                if not queues[tenant]:
                    continue
                deficits[tenant] += computed.quantum * weights[tenant]
                if deficits[tenant] >= queues[tenant][0]:
                    deficits[tenant] -= queues[tenant].pop(0)
                    if not queues[tenant]:
                        deficits[tenant] = 0.0
                    break
            handle = computed.next_job(timeout=0.1)
            assert handle.request.tenant == tenant
            computed.on_finish(handle)
            for name in tenants:
                assert computed._tenants[name].deficit == pytest.approx(deficits[name], abs=1e-6)

    def test_cost_weighted_service_not_job_counts(self):
        """Equal *cost* service: a tenant of 5x-cost jobs gets ~1/5 the jobs."""
        scheduler = FairScheduler()
        for _ in range(50):
            scheduler.submit(_handle("sweeps", cost=5.0), cost=5.0)
            scheduler.submit(_handle("probes", cost=1.0), cost=1.0)
        served = {"sweeps": 0.0, "probes": 0.0}
        jobs = {"sweeps": 0, "probes": 0}
        for _ in range(30):
            handle = scheduler.next_job(timeout=0.1)
            served[handle.request.tenant] += handle._cost_units
            jobs[handle.request.tenant] += 1
            scheduler.on_finish(handle)
        assert served["sweeps"] == pytest.approx(served["probes"], rel=0.3)
        assert jobs["probes"] > 3 * jobs["sweeps"]

    def test_idle_tenant_does_not_hoard_deficit(self):
        scheduler = FairScheduler()
        scheduler.submit(_handle("a"))
        handle = scheduler.next_job(timeout=0.1)
        scheduler.on_finish(handle)
        # a's queue drained -> its deficit reset; a burst later must not
        # let it monopolize against b.
        for _ in range(10):
            scheduler.submit(_handle("a"))
            scheduler.submit(_handle("b"))
        served = {"a": 0, "b": 0}
        for _ in range(10):
            handle = scheduler.next_job(timeout=0.1)
            served[handle.request.tenant] += 1
            scheduler.on_finish(handle)
        assert served == {"a": 5, "b": 5}


class TestQuotas:
    def test_max_queued_rejects_with_retry_after(self):
        scheduler = FairScheduler()
        scheduler.configure("t", TenantQuota(max_queued=2))
        scheduler.submit(_handle("t"))
        scheduler.submit(_handle("t"))
        with pytest.raises(QuotaExceeded) as excinfo:
            scheduler.submit(_handle("t"))
        assert excinfo.value.reason == "max_queued"
        assert excinfo.value.retry_after > 0
        # Other tenants are unaffected.
        scheduler.submit(_handle("other"))

    def test_max_in_flight_skips_capped_tenant(self):
        scheduler = FairScheduler()
        scheduler.configure("capped", TenantQuota(max_in_flight=1))
        scheduler.submit(_handle("capped"))
        scheduler.submit(_handle("capped"))
        scheduler.submit(_handle("free"))
        first = scheduler.next_job(timeout=0.1)
        assert first.request.tenant == "capped"
        # capped is at its in-flight limit: only "free" is eligible now.
        second = scheduler.next_job(timeout=0.1)
        assert second.request.tenant == "free"
        assert scheduler.next_job(timeout=0.05) is None
        scheduler.on_finish(first)
        third = scheduler.next_job(timeout=0.1)
        assert third.request.tenant == "capped"

    def test_token_bucket_rate_limits_submits(self):
        clock = _FakeClock()
        scheduler = FairScheduler(clock=clock)
        scheduler.configure("t", TenantQuota(rate=1.0, burst=2.0))
        scheduler.submit(_handle("t"))
        scheduler.submit(_handle("t"))  # burst exhausted
        with pytest.raises(QuotaExceeded) as excinfo:
            scheduler.submit(_handle("t"))
        assert excinfo.value.reason == "rate"
        assert excinfo.value.retry_after == pytest.approx(1.0)
        clock.advance(1.0)  # one token refilled
        scheduler.submit(_handle("t"))
        with pytest.raises(QuotaExceeded):
            scheduler.submit(_handle("t"))

    def test_remove_and_drain(self):
        scheduler = FairScheduler()
        queued = _handle("t")
        scheduler.submit(queued, cost=3.0)
        assert scheduler.queued_cost() == 3.0
        assert scheduler.remove(queued) is True
        assert scheduler.remove(queued) is False
        assert scheduler.queued_cost() == 0.0
        scheduler.submit(_handle("t"))
        scheduler.submit(_handle("u"))
        assert len(scheduler.drain()) == 2
        assert scheduler.queued_jobs() == 0

    def test_close_wakes_blocked_dispatcher_and_rejects_submits(self):
        scheduler = FairScheduler()
        picked = []
        thread = threading.Thread(target=lambda: picked.append(scheduler.next_job()))
        thread.start()
        scheduler.close()
        thread.join(timeout=5.0)
        assert not thread.is_alive() and picked == [None]
        with pytest.raises(QymeraError):
            scheduler.submit(_handle("t"))


class TestTokenBucket:
    def test_starts_full_and_refills_to_capacity(self):
        clock = _FakeClock()
        bucket = TokenBucket(rate=2.0, capacity=4.0, clock=clock)
        for _ in range(4):
            assert bucket.try_take() == 0.0
        wait = bucket.try_take()
        assert wait == pytest.approx(0.5)
        clock.advance(100.0)
        assert bucket.tokens == pytest.approx(4.0)  # capped at capacity

    def test_partial_refill_wait_is_exact(self):
        clock = _FakeClock()
        bucket = TokenBucket(rate=4.0, capacity=1.0, clock=clock)
        assert bucket.try_take() == 0.0
        clock.advance(0.125)  # half a token back
        assert bucket.try_take() == pytest.approx(0.125)


class TestAdmission:
    def test_reject_vs_queue_boundary_on_cost(self):
        controller = AdmissionController(max_queued_cost=100.0)
        request = JobRequest(circuit=ghz_circuit(3), method="statevector")
        cost = job_cost(request)
        # Exactly at the ceiling: admitted; one unit past: rejected.
        admitted = controller.assess(request, queued_cost=100.0 - cost, queued_jobs=1)
        assert admitted.action == ADMIT
        rejected = controller.assess(request, queued_cost=100.0 - cost + 1.0, queued_jobs=1)
        assert rejected.action == REJECT
        assert rejected.reason == "cost ceiling"
        assert rejected.retry_after >= controller.min_retry_after

    def test_lone_job_priced_above_the_ceiling_is_admitted(self):
        # The ceiling bounds the backlog: a job alone in the queue could
        # never fit by waiting, so rejecting it would loop a client forever.
        controller = AdmissionController(max_queued_cost=1024.0)
        request = JobRequest(circuit=qft_circuit(14), method="memdb")
        assert job_cost(request) > 1024.0
        assert controller.assess(request, queued_cost=0.0, queued_jobs=0).action == ADMIT
        behind = controller.assess(request, queued_cost=1.0, queued_jobs=1)
        assert behind.action == REJECT and behind.reason == "cost ceiling"

    def test_queue_count_ceiling(self):
        controller = AdmissionController(max_queued_jobs=2)
        request = JobRequest(circuit=ghz_circuit(2), method="statevector")
        assert controller.assess(request, queued_cost=0.0, queued_jobs=1).action == ADMIT
        decision = controller.assess(request, queued_cost=0.0, queued_jobs=2)
        assert decision.action == REJECT and decision.reason == "queue full"

    def test_retry_after_tracks_service_rate(self):
        controller = AdmissionController(max_queued_cost=10.0, min_retry_after=0.0)
        controller.observe_served(1000.0)  # very fast service observed
        request = JobRequest(circuit=ghz_circuit(2), method="statevector")
        decision = controller.assess(request, queued_cost=10.0, queued_jobs=1)
        assert decision.action == REJECT
        # excess / (huge rate) is tiny
        assert decision.retry_after < 1.0

    def test_jobs_are_priced_by_their_row_work(self):
        # GHZ-40 moves 80 rows, QFT-12 tens of thousands: the price agrees.
        ghz40 = job_cost(JobRequest(circuit=ghz_circuit(40), method="memdb"))
        qft12 = job_cost(JobRequest(circuit=qft_circuit(12), method="memdb"))
        assert ghz40 == 80.0
        assert ghz40 < qft12
        # The statevector touches every amplitude at every gate.
        assert job_cost(JobRequest(circuit=ghz_circuit(3), method="statevector")) == 3 * 8

    @pytest.mark.parametrize("method", ["sparse", "mps", "dd", "sqlite", "duckdb", "memdb"])
    def test_relational_and_sparse_methods_are_priced_by_the_row_bounds(self, method):
        from repro.sql.bounds import circuit_row_bounds

        circuit = qft_circuit(6)
        assert job_cost(JobRequest(circuit=circuit, method=method)) == sum(circuit_row_bounds(circuit))

    def test_grid_is_priced_at_points_times_one_point(self):
        template = hardware_efficient_ansatz(4, rotation_gates=("ry",))
        grid = [{p.name: 0.1 * k + 0.05 * j for j, p in enumerate(template.parameters)} for k in range(1, 4)]
        sweep = job_cost(JobRequest(circuit=template, method="memdb", param_grid=grid))
        point = job_cost(JobRequest(circuit=template.bind_parameters(grid[0]), method="memdb"))
        assert sweep == 3 * point


class TestServiceIntegration:
    def test_scheduled_service_runs_jobs_and_reports_snapshot(self):
        scheduler = FairScheduler()
        service = JobService(max_workers=2, scheduler=scheduler)
        try:
            handles = [
                service.submit(circuit=ghz_circuit(3), method="statevector", tenant=tenant)
                for tenant in ("a", "b", "a")
            ]
            for handle in handles:
                handle.result(timeout=30)
            snapshot = service.stats()["scheduler"]
            assert snapshot["policy"] == "deficit-round-robin"
            assert set(snapshot["tenants"]) == {"a", "b"}
            assert snapshot["tenants"]["a"]["dispatched"] == 2
        finally:
            service.shutdown(wait=True)

    def test_quota_rejection_surfaces_from_submit(self):
        scheduler = FairScheduler()
        scheduler.configure("t", TenantQuota(rate=0.001, burst=1.0))
        service = JobService(max_workers=1, scheduler=scheduler)
        try:
            service.submit(circuit=ghz_circuit(2), method="statevector", tenant="t")
            with pytest.raises(QuotaExceeded):
                service.submit(circuit=ghz_circuit(2), method="statevector", tenant="t")
            # The rejected submit burned no job id and left no handle behind.
            assert len(service.jobs()) == 1
        finally:
            service.shutdown(wait=True)

    def test_admission_requires_scheduler(self):
        with pytest.raises(QymeraError):
            JobService(admission=AdmissionController(max_queued_cost=1.0))

"""Multi-tenant serving tier over the JobService.

Composes the four serving subsystems into one deployable unit:

* :mod:`.http` — asyncio HTTP/JSON front end (submit / poll / stream /
  cancel / stats), stdlib only;
* :mod:`.scheduler` — per-tenant weighted-fair (deficit round-robin)
  queues with quotas: in-flight caps, queue bounds, token-bucket rates;
* :mod:`.admission` — row-priced admission control (queue when fair,
  429 + Retry-After before melting);
* :mod:`.journal` — durable append-only JSONL job journal with restart
  replay;
* :mod:`.shard` — consistent-hash sharded engine pools keeping warm plan
  caches warm per shard.

:func:`build_server` wires a production-shaped stack — including request
tracing: a :class:`~repro.obs.sinks.RequestTraceStore` behind a
:class:`~repro.obs.tracing.Tracer`, so every sampled submit's span tree is
queryable at ``/v1/traces/{job_id}`` and ``/v1/metrics`` exposes the
latency histograms whose p99 exemplars point back into it.  Each piece
also composes individually with a plain
:class:`~repro.service.jobs.JobService`.
"""

from __future__ import annotations

import os

from ...obs.metrics import MetricsRegistry
from ...obs.sinks import RequestTraceStore
from ...obs.tracing import Tracer, shared_tracer, tracing_env_enabled
from ..jobs import JobService
from .admission import (
    AdmissionController,
    AdmissionDecision,
    AdmissionRejected,
    job_cost,
)
from .http import JobServer, ServerThread, parse_job_payload
from .journal import JobJournal
from .scheduler import FairScheduler, QuotaExceeded, TenantQuota, TokenBucket
from .shard import ConsistentHashRing, ShardedEnginePool

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "AdmissionRejected",
    "ConsistentHashRing",
    "FairScheduler",
    "JobJournal",
    "JobServer",
    "QuotaExceeded",
    "ServerThread",
    "ShardedEnginePool",
    "TenantQuota",
    "TokenBucket",
    "build_server",
    "job_cost",
    "parse_job_payload",
]


def build_server(
    journal_path: str | os.PathLike | None = None,
    host: str = "127.0.0.1",
    port: int = 0,
    max_workers: int = 4,
    shards: int = 2,
    max_queued_cost: float | None = float(1 << 20),
    max_queued_jobs: int | None = 1024,
    default_quota: TenantQuota | None = None,
    process_workers: int | None = None,
    replay: bool = True,
    tracing: bool = True,
    trace_capacity: int = 256,
    slow_threshold_s: float = 1.0,
    **service_kwargs,
) -> JobServer:
    """Assemble the full serving stack and return the (unstarted) server.

    The returned :class:`JobServer` owns a :class:`JobService` configured
    with a :class:`FairScheduler`, an :class:`AdmissionController` pricing
    jobs in rows (a backlog of at most ``max_queued_cost`` of them), a
    :class:`ShardedEnginePool`, and — when
    ``journal_path`` is given — a :class:`JobJournal`; with ``replay=True``
    the journal's incomplete jobs are re-enqueued before the server ever
    accepts traffic.  Start it with ``await server.start()`` /
    ``serve_forever()``, or synchronously via :class:`ServerThread`.

    With ``tracing=True`` (the default) the service gets a tracer backed by
    a :class:`~repro.obs.sinks.RequestTraceStore` of ``trace_capacity``
    requests (slow threshold ``slow_threshold_s``); when ``REPRO_TRACE`` is
    already on, the process-shared tracer is reused so engine-level spans
    and request spans land in one place.
    """
    journal = JobJournal(journal_path) if journal_path is not None else None
    scheduler = FairScheduler(default_quota=default_quota)
    admission = AdmissionController(
        max_queued_cost=max_queued_cost,
        max_queued_jobs=max_queued_jobs,
    )
    metrics = service_kwargs.pop("metrics", None) or MetricsRegistry()
    tracer = service_kwargs.pop("tracer", None)
    if tracer is None and tracing:
        store = RequestTraceStore(
            capacity=trace_capacity, slow_threshold_s=slow_threshold_s
        )
        if tracing_env_enabled():
            tracer = shared_tracer()
            if tracer.request_store is None:
                tracer.request_store = store
        else:
            tracer = Tracer(registry=metrics, request_store=store)
    service = JobService(
        max_workers=max_workers,
        pool=ShardedEnginePool(shards=shards),
        scheduler=scheduler,
        admission=admission,
        journal=journal,
        process_workers=process_workers,
        metrics=metrics,
        tracer=tracer,
        **service_kwargs,
    )
    # The sharded pool exists only for this service: close it on shutdown
    # exactly like a default-constructed pool.
    service._owns_pool = True
    if journal is not None and replay:
        service.replay_journal()
    return JobServer(service, host=host, port=port)

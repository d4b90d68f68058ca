"""Job service: multi-user execution on top of compile–bind–execute.

The ROADMAP's north star is serving heavy simulation traffic, and the
natural unit of that traffic is a *job*: one circuit, one method, one
parameter point or a whole sweep grid.  :class:`JobService` accepts jobs
(:meth:`~JobService.submit` returns a :class:`JobHandle` immediately), runs
them on a small worker pool, and leases method instances from a shared
:class:`EnginePool` so concurrent jobs on the same (method, options)
combination reuse warm engines — and with them the memdb plan cache —
without ever sharing one engine between two running jobs.

Every job goes through the same pipeline the synchronous API uses:
``method.compile(circuit)`` then ``bind(params).execute()`` (or
``execute_batch`` for grids).  :class:`QymeraSession` and the benchmark
drivers are thin clients of this pipeline; the service adds queueing,
polling and streaming on top.

Two execution tiers serve the work.  The default **thread tier** runs each
job on the worker thread pool — cheap, shares one address space, and fast
whenever the engines release the GIL (numpy kernels, I/O).  The optional
**process-backed batch tier** (``process_workers``) fans ``param_grid``
sweeps out in chunks to spawned worker processes, each compiling the
circuit once per chunk and keeping warm engines between chunks: CPU-bound
multi-user sweep traffic scales past the GIL entirely, at the cost of
pickling the circuit and results across the process boundary.
"""

from __future__ import annotations

import inspect
import itertools
import multiprocessing
import os
import pickle
import random
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, Mapping, Sequence

from ..backends import available_backends
from ..core.circuit import QuantumCircuit
from ..errors import QymeraError
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import (
    TraceContext,
    activate_context,
    drain_shared_traces_counted,
    maybe_span,
    shared_tracer,
    span_record,
    tracing_env_enabled,
)
from ..output.result import SimulationResult
from ..simulators import available_simulators
from ..simulators.base import BaseSimulator

#: Job lifecycle states.
JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_ERROR = "error"
JOB_CANCELLED = "cancelled"

_TERMINAL = frozenset({JOB_DONE, JOB_ERROR, JOB_CANCELLED})


class _OptionToken:
    """Hashable stand-in for an unhashable option value.

    Holds a strong reference to the value, so identity-based reprs can never
    be recycled onto a different object while a fingerprint using the token
    is alive (repr alone would alias a garbage-collected option with a new
    object allocated at the same address).
    """

    __slots__ = ("value", "_repr")

    def __init__(self, value: object) -> None:
        self.value = value
        self._repr = repr(value)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _OptionToken) and self._repr == other._repr

    def __hash__(self) -> int:
        return hash(self._repr)

    def __repr__(self) -> str:
        return self._repr


def options_fingerprint(options: Mapping[str, object]) -> tuple:
    """A hashable, order-insensitive fingerprint of method options.

    Hashable values are kept as-is (stateful objects like caches hash by
    identity, which is exactly right for pooling: two backends built around
    different cache objects must not alias); unhashable values are wrapped
    in a :class:`_OptionToken` that keeps them alive and compares by repr.
    """
    items = []
    for key in sorted(options, key=str):
        value = options[key]
        try:
            hash(value)
        except TypeError:
            value = _OptionToken(value)
        items.append((str(key), value))
    return tuple(items)


def _method_class(method: str) -> type:
    """The backend or baseline-simulator class a method name selects."""
    classes = {**available_simulators(), **available_backends()}
    if method not in classes:
        raise QymeraError(f"unknown simulation method {method!r}; available: {sorted(classes)}")
    return classes[method]


def make_method(method: str, **options) -> BaseSimulator:
    """Instantiate a simulation method (backend or baseline simulator) by name."""
    return _method_class(method)(**options)


@lru_cache(maxsize=None)
def _method_options(method: str) -> frozenset[str]:
    """A method's constructor option names (an unknown name raises, uncached)."""
    return frozenset(inspect.signature(_method_class(method)).parameters)


def check_method_options(method: str, options: Mapping[str, object]) -> None:
    """Raise :class:`QymeraError` naming an unknown method or constructor option.

    What :func:`make_method` would fail on later, checked up front: a client
    request carrying an option the method does not take is refused before
    it becomes a job.
    """
    accepted = _method_options(method)
    unknown = sorted(set(options) - accepted)
    if unknown:
        raise QymeraError(
            f"unknown option(s) {unknown} for method {method!r}; accepted: {sorted(accepted)}"
        )


# ---------------------------------------------------------------------------
# Process-backed batch tier
# ---------------------------------------------------------------------------

#: Per-worker-process method cache, keyed by (method, pickled canonical
#: options): repeated chunks of the same sweep reuse a warm engine — and
#: with it the child's process-wide memdb plan cache — exactly like the
#: thread tier's EnginePool, just one cache per worker process.
_PROCESS_METHODS: dict[tuple[str, bytes], BaseSimulator] = {}


def _process_method_key(method: str, options: Mapping[str, object]) -> tuple[str, bytes]:
    # Key by the *pickled value state* of the options, never by repr: an
    # identity-based repr embeds an address that the allocator can recycle
    # onto a differently-configured object, silently aliasing engines (the
    # hazard _OptionToken guards against on the thread tier).  Pickle bytes
    # encode exactly the state the engine in this process was built from —
    # options reached the worker pickled in the first place — so equal
    # bytes imply an equivalently-configured engine, and a spurious
    # mismatch merely builds a fresh one.
    rendered = pickle.dumps(sorted(options.items(), key=lambda item: str(item[0])))
    return method, rendered


#: Traces shipped back per process-tier chunk: enough for forensics on the
#: chunk that just ran, bounded so a wide sweep never floods the pickle pipe.
_CHUNK_TRACE_LIMIT = 8


def _execute_grid_chunk(
    method: str,
    options: dict,
    circuit: "QuantumCircuit",
    points: list[dict],
    trace: tuple[str, str] | None = None,
) -> tuple[list["SimulationResult"], dict]:
    """Worker-process entry point: compile once, execute one grid chunk.

    Runs in a spawned worker with no shared state; everything it needs
    (method name, options, circuit template, parameter points) arrives
    pickled, and the per-point results are pickled back together with the
    worker's observability snapshot: its pid, the warm engine's unified
    ``engine_stats()`` (when the method exposes one), and — when tracing is
    enabled in the worker (``REPRO_TRACE`` travels through the inherited
    environment) — the traces its shared ring collected for this chunk.
    The parent merges these into the job's metadata on chunk join.

    ``trace`` is the request's serialized identity, ``(trace_id,
    job_span_id)``: activating it as this worker's context makes every root
    span the chunk produces carry the trace id and parent to the job span
    the parent process opened, so the merged traces stitch into one request
    tree instead of arriving as anonymous islands.
    """
    key = _process_method_key(method, options)
    engine = _PROCESS_METHODS.get(key)
    if engine is None:
        engine = make_method(method, **options)
        _PROCESS_METHODS[key] = engine
    context = TraceContext(trace[0], span_id=trace[1]) if trace is not None else None
    with activate_context(context):
        if context is not None:
            # A traced request: open a chunk root against the worker's
            # shared tracer even without REPRO_TRACE — it adopts the
            # activated context, so the engine's compile/query spans nest
            # under it and the whole subtree ships home with trace identity.
            chunk_span = shared_tracer().span("chunk", pid=os.getpid(), points=len(points))
        else:
            chunk_span = nullcontext(None)
        with chunk_span:
            executable = engine.compile(circuit)
            results = [executable.bind(point).execute() for point in points]
    worker_stats: dict = {"pid": os.getpid(), "points": len(points)}
    # Drain before the engine-stats snapshot so the snapshot's tracing
    # section already reflects any traces the chunk limit just dropped.
    traces, dropped = drain_shared_traces_counted(_CHUNK_TRACE_LIMIT)
    if traces:
        worker_stats["traces"] = traces
    if dropped:
        worker_stats["traces_dropped"] = dropped
    stats_fn = getattr(engine, "engine_stats", None)
    if stats_fn is not None:
        try:
            worker_stats["engine"] = stats_fn()
        except Exception:  # noqa: BLE001 — diagnostics must not fail the chunk
            pass
    return results, worker_stats


class EnginePool:
    """A lease-based pool of method instances keyed by (method, options).

    Method instances are not thread-safe (the memdb backend keeps a live
    engine between runs), so the pool hands each instance to at most one
    job at a time: :meth:`acquire` pops an idle instance or builds a fresh
    one, :meth:`release` returns it for the next job.  Releasing more
    instances than ``max_idle_per_key`` discards the surplus — the plan
    cache is shared process-wide, so a discarded engine loses nothing
    another engine cannot recover.
    """

    def __init__(self, max_idle_per_key: int = 4) -> None:
        self._idle: dict[tuple, list[BaseSimulator]] = {}
        self._lock = threading.Lock()
        self.max_idle_per_key = int(max_idle_per_key)
        self._created = 0
        self._reused = 0
        #: Keys that have leased at least once: a later acquire finding their
        #: idle list empty means concurrent jobs are competing for the same
        #: (method, options) engines — the lease-contention signal.
        self._keys_seen: set[tuple] = set()
        self._contended = 0
        self._closed = False
        self._discarded_on_close = 0

    def acquire(self, method: str, options: Mapping[str, object]) -> tuple[tuple, BaseSimulator]:
        """Lease an instance for one job; returns ``(key, instance)``."""
        key = (method, options_fingerprint(options))
        with self._lock:
            if self._closed:
                raise QymeraError("the engine pool has been closed")
            idle = self._idle.get(key)
            if idle:
                self._reused += 1
                self._keys_seen.add(key)
                return key, idle.pop()
            if key in self._keys_seen:
                self._contended += 1
            self._keys_seen.add(key)
        instance = make_method(method, **options)
        with self._lock:
            self._created += 1
        return key, instance

    def release(self, key: tuple, instance: BaseSimulator) -> None:
        """Return a leased instance so later jobs can reuse its warm state.

        After :meth:`close` the instance is discarded instead of pooled, so
        a job racing a shutdown can always release its lease without
        resurrecting idle state the closer believed gone — leases never
        leak, they just stop being reusable.
        """
        with self._lock:
            if self._closed:
                self._discarded_on_close += 1
                return
            idle = self._idle.setdefault(key, [])
            if len(idle) < self.max_idle_per_key:
                idle.append(instance)

    def close(self) -> None:
        """Stop leasing: drops all idle instances, rejects new acquires.

        In-flight leases stay valid — their release lands in the discard
        path above.  Idempotent.
        """
        with self._lock:
            self._closed = True
            self._discarded_on_close += sum(len(instances) for instances in self._idle.values())
            self._idle.clear()

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def stats(self) -> dict:
        """Pool counters: instances created, leases served from idle, idle sizes.

        Idle counts aggregate over option fingerprints, one total per method.
        """
        with self._lock:
            idle: dict[str, int] = {}
            for (method, _fingerprint), instances in self._idle.items():
                idle[method] = idle.get(method, 0) + len(instances)
            return {
                "created": self._created,
                "reused": self._reused,
                "contended": self._contended,
                "closed": self._closed,
                "discarded_on_close": self._discarded_on_close,
                "idle": idle,
            }


@dataclass
class JobRequest:
    """One unit of simulation work.

    Exactly one of ``params`` (a single parameter point — may be empty for
    unparameterized circuits) or ``param_grid`` (a batch sweep) applies;
    leaving both unset runs the circuit as-is.
    """

    circuit: QuantumCircuit
    method: str = "memdb"
    options: Mapping[str, object] = field(default_factory=dict)
    params: Mapping[str, float] | None = None
    param_grid: Sequence[Mapping[str, float]] | None = None
    tag: str = ""
    #: Who submitted this job.  The serving tier's fair scheduler queues and
    #: meters per tenant; the default tenant keeps library use single-party.
    tenant: str = "default"
    #: Distributed-trace identity (set by the HTTP ingress from the request's
    #: ``traceparent``, by journal replay from the persisted trace id, or
    #: minted at submit when the service has a tracer and none was given).
    trace: TraceContext | None = None

    def __post_init__(self) -> None:
        if self.params is not None and self.param_grid is not None:
            raise QymeraError("pass either params (one point) or param_grid (a sweep), not both")
        if not self.tenant:
            raise QymeraError("tenant must be a non-empty string")

    @property
    def total_points(self) -> int:
        """How many executions this request fans out to."""
        return len(self.param_grid) if self.param_grid is not None else 1


class JobHandle:
    """Live view of one submitted job: poll, wait, stream.

    Thread-safe: the worker appends results and flips the status under the
    handle's condition variable; clients block on it in :meth:`result` and
    :meth:`stream`.
    """

    def __init__(self, job_id: int, request: JobRequest) -> None:
        self.job_id = job_id
        self.request = request
        self._condition = threading.Condition()
        self._status = JOB_QUEUED
        self._results: list[SimulationResult] = []
        self._error: BaseException | None = None
        self._cancel_requested = False
        self._future: Future | None = None
        #: Observability side-channel: the worker attaches execution metadata
        #: here (per-worker-process engine stats and traces for process-tier
        #: sweeps) before the terminal transition; read it after ``done``.
        self.metadata: dict = {}
        self._submitted_at = time.monotonic()
        #: Set by the owning service at submit; JobHandles built directly
        #: (tests, embedding) stay metrics-free.
        self._metrics: "MetricsRegistry | None" = None
        #: Serving-tier hooks, set by the owning service at submit: the
        #: durable journal lifecycle records land through ``_journal``;
        #: ``_tenant_prefix`` namespaces per-tenant instruments; the fair
        #: scheduler's DRR accounting reads ``_cost_units``; and
        #: ``_on_queue_cancel`` lets :meth:`cancel` pull a still-queued
        #: handle back out of the scheduler before it ever gets a future.
        self._journal = None
        self._tenant_prefix: str | None = None
        self._cost_units = 1.0
        self._on_queue_cancel = None
        #: Tracing hooks, set by the owning service at submit: the request's
        #: TraceContext, the service callback that seals its trace-store
        #: entry on the terminal transition, the scheduler's enqueue
        #: timestamp (perf_counter) and DRR round count for the queue-wait
        #: span's attribution.
        self._trace: "TraceContext | None" = None
        self._trace_seal = None
        self._enqueued_pc: float | None = None
        self._drr_rounds = 0

    # -------------------------------------------------------------- queries

    def status(self) -> str:
        """Current lifecycle state (queued / running / done / error / cancelled)."""
        with self._condition:
            return self._status

    @property
    def done(self) -> bool:
        """True once the job reached a terminal state."""
        return self.status() in _TERMINAL

    def poll(self) -> dict:
        """One-shot progress snapshot (what a UI would render per refresh)."""
        with self._condition:
            return {
                "job_id": self.job_id,
                "status": self._status,
                "method": self.request.method,
                "circuit": self.request.circuit.name,
                "tag": self.request.tag,
                "tenant": self.request.tenant,
                "completed_points": len(self._results),
                "total_points": self.request.total_points,
                "error": str(self._error) if self._error is not None else "",
            }

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job reaches a terminal state; True when it did.

        Unlike :meth:`result` this never raises — it is the drain primitive
        shutdown and load generators use.
        """
        with self._condition:
            return self._condition.wait_for(lambda: self._status in _TERMINAL, timeout=timeout)

    # -------------------------------------------------------------- results

    def result(self, timeout: float | None = None) -> SimulationResult | list[SimulationResult]:
        """Block until the job finishes; a grid job returns the full result list.

        Re-raises the job's error; raises :class:`QymeraError` on timeout or
        cancellation.
        """
        with self._condition:
            if not self._condition.wait_for(lambda: self._status in _TERMINAL, timeout=timeout):
                raise QymeraError(f"job {self.job_id} did not finish within {timeout}s")
            if self._error is not None:
                raise self._error
            if self._status == JOB_CANCELLED:
                raise QymeraError(f"job {self.job_id} was cancelled")
            if self.request.param_grid is not None:
                return list(self._results)
            return self._results[0]

    def stream(self, timeout: float | None = None) -> Iterator[SimulationResult]:
        """Yield per-point results as the worker produces them.

        ``timeout`` bounds the wait for *each* next result.  The iterator
        ends when the job completes; a failing or cancelled job raises after
        the results that did complete were yielded.
        """
        position = 0
        while True:
            with self._condition:
                ready = self._condition.wait_for(
                    lambda: len(self._results) > position or self._status in _TERMINAL,
                    timeout=timeout,
                )
                if not ready:
                    raise QymeraError(f"job {self.job_id} produced no result within {timeout}s")
                if len(self._results) > position:
                    item = self._results[position]
                else:
                    if self._error is not None:
                        raise self._error
                    if self._status == JOB_CANCELLED:
                        raise QymeraError(f"job {self.job_id} was cancelled")
                    return
            position += 1
            yield item

    # ------------------------------------------------------------- control

    def cancel(self) -> bool:
        """Request cancellation.

        Queued jobs die immediately; a running grid job stops at its next
        point boundary.  Returns True only when the job is *guaranteed* to
        produce no further results (it was still queued); a False return
        means the request was recorded best-effort but a running job may
        still complete — poll the status to find out.
        """
        with self._condition:
            if self._status in _TERMINAL:
                return False
            self._cancel_requested = True
            future = self._future
        if future is None and self._on_queue_cancel is not None:
            # Scheduler-queued handle with no future yet: pull it out of the
            # fair queue.  A dispatch racing this returns False from the
            # removal and the worker honors _cancel_requested instead.
            if self._on_queue_cancel(self):
                self._transition(JOB_CANCELLED)
                return True
            return False
        if future is not None and future.cancel():
            self._transition(JOB_CANCELLED)
            return True
        return False

    # ------------------------------------------------------- worker callbacks

    def _transition(self, status: str, error: BaseException | None = None) -> None:
        with self._condition:
            if self._status in _TERMINAL:
                return
            previous = self._status
            self._status = status
            self._error = error
            self._condition.notify_all()
        # Journal and metrics bookkeeping outside the condition lock: the
        # terminal guard above already guarantees each transition is recorded
        # exactly once.
        journal = self._journal
        if journal is not None:
            try:
                if status == JOB_RUNNING:
                    journal.record_started(self.job_id)
                elif status in _TERMINAL:
                    journal.record_terminal(
                        self.job_id, status, error=str(error) if error is not None else ""
                    )
            except Exception:  # noqa: BLE001 — a full disk must not hang result() callers
                if self._metrics is not None:
                    self._metrics.counter("journal.write_errors").inc()
        if status in _TERMINAL and self._trace_seal is not None:
            # Seal before the metrics observations below so the moment an
            # exemplar becomes visible on /v1/stats its trace is already
            # assembled and queryable on /v1/traces.
            try:
                self._trace_seal(self, status)
            except Exception:  # noqa: BLE001 — tracing must not fail the job
                pass
        metrics = self._metrics
        if metrics is None:
            return
        prefix = self._tenant_prefix
        if status == JOB_RUNNING:
            metrics.gauge("jobs.queue_depth").dec()
            metrics.gauge("jobs.running").inc()
            metrics.histogram("jobs.queue_wait_seconds").observe(
                time.monotonic() - self._submitted_at
            )
            if prefix is not None:
                metrics.gauge(f"{prefix}queued").dec()
                metrics.gauge(f"{prefix}in_flight").inc()
        elif status in _TERMINAL:
            if previous == JOB_QUEUED:
                # Cancelled while still queued: it never became "running".
                metrics.gauge("jobs.queue_depth").dec()
                if prefix is not None:
                    metrics.gauge(f"{prefix}queued").dec()
            else:
                metrics.gauge("jobs.running").dec()
                if prefix is not None:
                    metrics.gauge(f"{prefix}in_flight").dec()
                    trace = self._trace
                    exemplar = (
                        {"trace_id": trace.trace_id, "job_id": self.job_id}
                        if trace is not None
                        else None
                    )
                    metrics.histogram(f"{prefix}latency_seconds").observe(
                        time.monotonic() - self._submitted_at, exemplar=exemplar
                    )
            metrics.counter(f"jobs.{status}").inc()
            if prefix is not None:
                metrics.counter(f"{prefix}{status}").inc()

    def _push_result(self, result: SimulationResult) -> None:
        with self._condition:
            self._results.append(result)
            index = len(self._results) - 1
            self._condition.notify_all()
        journal = self._journal
        if journal is not None:
            try:
                journal.record_point(self.job_id, index)
            except Exception:  # noqa: BLE001 — a full disk must not hang stream() callers
                if self._metrics is not None:
                    self._metrics.counter("journal.write_errors").inc()

    @property
    def _cancelled(self) -> bool:
        with self._condition:
            return self._cancel_requested

    def __repr__(self) -> str:
        return f"JobHandle(id={self.job_id}, status={self.status()!r}, method={self.request.method!r})"


class JobService:
    """Accepts simulation jobs and runs them on a shared engine pool.

    Parameters
    ----------
    max_workers:
        Size of the worker thread pool (created lazily on first submit).
    pool:
        The :class:`EnginePool` leased engines come from; one service-owned
        pool by default.  Passing a shared pool lets several services (or a
        service plus a session) draw from the same warm engines.
    max_retained_jobs:
        Finished handles kept for ``poll``/``result`` lookups.  Each submit
        evicts the oldest *terminal* handles beyond this bound (running and
        queued jobs are never evicted), so a long-running service does not
        accumulate every past job's result states.  ``None`` retains all.
    process_workers:
        Size of the **process-backed batch tier**: when set, ``param_grid``
        sweeps are split into chunks and executed on a pool of spawned
        worker processes, each compiling the circuit once and keeping warm
        engines between chunks.  Threads only escape the GIL inside numpy
        kernels; CPU-bound multi-user sweep traffic scales past it entirely
        on this tier.  Jobs whose payload (circuit, options, grid) does not
        pickle fall back to the thread tier transparently.  Single-point
        jobs always run on threads (a process round-trip costs more than it
        can win back on one point).
    process_chunk_points:
        Grid points per process-tier chunk (default: grid split evenly, two
        chunks per worker, so chunk completions stream results back while
        later chunks still run).
    metrics:
        The :class:`~repro.obs.MetricsRegistry` service-level instruments
        record into — queue depth and queue-wait, jobs running, per-tier
        execute latency (p50/p95/p99), terminal counters (done / error /
        cancelled).  One service-owned registry by default; pass
        :func:`repro.obs.global_registry` to fold these into the
        process-wide snapshot.
    """

    def __init__(
        self,
        max_workers: int = 4,
        pool: EnginePool | None = None,
        max_retained_jobs: int | None = 256,
        process_workers: int | None = None,
        process_chunk_points: int | None = None,
        metrics: MetricsRegistry | None = None,
        scheduler=None,
        admission=None,
        journal=None,
        tracer=None,
    ) -> None:
        if max_workers < 1:
            raise QymeraError("JobService needs at least one worker")
        if max_retained_jobs is not None and max_retained_jobs < 1:
            raise QymeraError("max_retained_jobs must be positive (or None to retain all)")
        if process_workers is not None and process_workers < 1:
            raise QymeraError("process_workers must be positive when given")
        if process_chunk_points is not None and process_chunk_points < 1:
            raise QymeraError("process_chunk_points must be positive when given")
        if admission is not None and scheduler is None:
            raise QymeraError("admission control needs a scheduler (it prices the fair queue)")
        self.max_workers = int(max_workers)
        self.max_retained_jobs = max_retained_jobs
        self.process_workers = process_workers
        self.process_chunk_points = process_chunk_points
        self._owns_pool = pool is None
        self.pool = pool if pool is not None else EnginePool()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: Serving-tier collaborators (see repro.service.server): a
        #: FairScheduler replaces the executor's FIFO with per-tenant DRR
        #: queues fed by a dispatcher thread; an AdmissionController prices
        #: submits against the queued backlog; a JobJournal makes every
        #: lifecycle edge durable and replayable.
        self.scheduler = scheduler
        self.admission = admission
        self.journal = journal
        #: Optional :class:`~repro.obs.Tracer` for request-scoped tracing:
        #: job spans open against it (engine spans nest under them on the
        #: same thread), and when it carries a ``request_store`` the service
        #: records admission / queue-wait / request-root spans there and
        #: seals each request's entry on its terminal transition.
        self.tracer = tracer
        self._executor: ThreadPoolExecutor | None = None
        self._process_executor: ProcessPoolExecutor | None = None
        self._dispatcher: threading.Thread | None = None
        self._dispatch_stop = threading.Event()
        self._inflight = threading.Semaphore(self.max_workers)
        self._jobs: dict[int, JobHandle] = {}
        start_id = 1
        if journal is not None:
            # Never reuse a job id a previous incarnation journaled: the
            # journal is one append-only history across restarts.
            entries = journal.entries()
            if entries:
                start_id = max(entry.job_id for entry in entries) + 1
        self._ids = itertools.count(start_id)
        self._lock = threading.Lock()
        self._closed = False
        self._process_chunks = 0
        self._process_points = 0
        self._process_fallbacks = 0
        self._worker_traces_dropped = 0

    # ------------------------------------------------------------ submission

    def submit(self, request: JobRequest | None = None, /, **kwargs) -> JobHandle:
        """Queue a job and return its handle immediately.

        Accepts a prebuilt :class:`JobRequest` or its fields as keyword
        arguments (``circuit=..., method=..., params=...``).
        """
        if request is None:
            request = JobRequest(**kwargs)
        elif kwargs:
            raise QymeraError("pass either a JobRequest or keyword fields, not both")
        return self._submit_request(request)

    def _trace_store(self):
        """The tracer's request store, or None when tracing is not wired."""
        return self.tracer.request_store if self.tracer is not None else None

    def _submit_request(self, request: JobRequest, resumed_from: int | None = None) -> JobHandle:
        # Trace identity first: the ingress (or replay) may have attached
        # one; a library submit against a traced service mints its own here,
        # head-sampled at the tenant's configured rate.
        trace = request.trace
        store = self._trace_store()
        if trace is None and store is not None:
            rate = 1.0 if self.scheduler is None else self.scheduler.sample_rate(request.tenant)
            trace = request.trace = TraceContext.generate(sampled=random.random() < rate)
        if trace is not None and store is not None:
            store.open(trace, tenant=request.tenant)
        else:
            # No store to seal into: don't carry half-wired tracing state.
            store = None
        # Admission control prices the submit against the fair queue's
        # backlog *before* a handle exists — a rejected submit burns no job
        # id and leaves no journal record.  Replayed jobs skip it: they were
        # admitted by a previous incarnation.
        cost = 1.0
        if self.admission is not None and resumed_from is None:
            decision = self.admission.assess(
                request, self.scheduler.queued_cost(), self.scheduler.queued_jobs()
            )
            cost = decision.cost
            if store is not None:
                assessed = time.perf_counter()
                store.record(span_record(
                    "admission",
                    trace_id=trace.trace_id,
                    parent_span_id=trace.span_id,
                    start_s=assessed - decision.elapsed_s,
                    end_s=assessed,
                    attrs={
                        "action": decision.action,
                        "cost_units": round(decision.cost, 3),
                        "reason": decision.reason,
                    },
                ))
            if decision.action != "admit":
                self.metrics.counter("jobs.rejected").inc()
                self.metrics.counter(f"tenant.{request.tenant}.rejected").inc()
                if store is not None:
                    self._seal_rejected(trace, request, decision.reason)
                from .server.admission import AdmissionRejected

                raise AdmissionRejected(
                    f"admission control rejected the submit ({decision.reason}; "
                    f"cost {decision.cost:.0f} rows)",
                    retry_after=decision.retry_after,
                    reason=decision.reason,
                )
        with self._lock:
            if self._closed:
                raise QymeraError("the job service has been shut down")
            self._evict_terminal_locked()
            job_id = next(self._ids)
            handle = JobHandle(job_id, request)
            handle._metrics = self.metrics
            handle._tenant_prefix = f"tenant.{request.tenant}."
            self._jobs[job_id] = handle
        handle._enqueued_pc = time.perf_counter()
        if trace is not None:
            handle._trace = trace
            if store is not None:
                handle._trace_seal = self._seal_trace
                store.bind_job(trace.trace_id, job_id)
        # Journal before enqueueing: once the scheduler can dispatch the
        # handle, every lifecycle edge must already have somewhere durable
        # to land.
        if self.journal is not None:
            handle._journal = self.journal
            self.journal.record_submitted(
                job_id,
                request,
                resumed_from=resumed_from,
                trace_id=trace.trace_id if trace is not None else "",
            )
        if self.scheduler is not None:
            try:
                self.scheduler.submit(handle, cost=cost)
            except QymeraError as exc:
                # Quota-rejected: the handle never escaped, drop it so the
                # id neither lingers in lookups nor counts as accepted, and
                # close its journal entry so replay never resurrects it.
                with self._lock:
                    self._jobs.pop(job_id, None)
                if self.journal is not None:
                    try:
                        self.journal.record_terminal(job_id, JOB_CANCELLED, error=f"quota: {exc}")
                    except Exception:  # noqa: BLE001
                        self.metrics.counter("journal.write_errors").inc()
                self.metrics.counter("jobs.rejected").inc()
                self.metrics.counter(f"tenant.{request.tenant}.rejected").inc()
                if store is not None:
                    self._seal_rejected(trace, request, "quota")
                raise
            handle._on_queue_cancel = self.scheduler.remove
        self.metrics.counter("jobs.submitted").inc()
        self.metrics.gauge("jobs.queue_depth").inc()
        self.metrics.counter(f"tenant.{request.tenant}.submitted").inc()
        self.metrics.gauge(f"tenant.{request.tenant}.queued").inc()
        with self._lock:
            if self._closed:
                # Shutdown raced the submit: withdraw cleanly (and close the
                # journal entry so replay does not resurrect it).
                self._jobs.pop(job_id, None)
                if self.scheduler is not None:
                    self.scheduler.remove(handle)
                handle._transition(JOB_CANCELLED)
                raise QymeraError("the job service has been shut down")
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.max_workers, thread_name_prefix="qymera-job"
                )
            if self.scheduler is None:
                handle._future = self._executor.submit(self._run_job, handle)
            elif self._dispatcher is None:
                self._dispatcher = threading.Thread(
                    target=self._dispatch_loop, name="qymera-dispatch", daemon=True
                )
                self._dispatcher.start()
        return handle

    # ----------------------------------------------------- request tracing

    def _seal_rejected(self, trace: TraceContext, request: JobRequest, reason: str) -> None:
        """Close a rejected submit's trace: root span + terminal seal."""
        store = self._trace_store()
        if store is None:
            return
        now = time.perf_counter()
        store.record(span_record(
            "request",
            trace_id=trace.trace_id,
            span_id=trace.span_id,
            parent_span_id=trace.parent_span_id,
            start_s=trace.started_s,
            end_s=now,
            attrs={"tenant": request.tenant, "method": request.method,
                   "status": "rejected", "reason": reason},
        ))
        store.seal(trace.trace_id, "rejected", now - trace.started_s)

    def _seal_trace(self, handle: JobHandle, status: str) -> None:
        """Terminal-transition hook: record the request root span and seal.

        The root span covers submit-to-terminal, so every child recorded for
        the request (admission, queue wait, job, engine queries) nests
        inside its interval — the non-overlapping-parent property the trace
        tests assert.
        """
        trace = handle._trace
        store = self._trace_store()
        if trace is None or store is None:
            return
        now = time.perf_counter()
        store.record(span_record(
            "request",
            trace_id=trace.trace_id,
            span_id=trace.span_id,
            parent_span_id=trace.parent_span_id,
            start_s=trace.started_s,
            end_s=now,
            attrs={
                "job_id": handle.job_id,
                "tenant": handle.request.tenant,
                "method": handle.request.method,
                "status": status,
                "sampled": trace.sampled,
            },
        ))
        store.seal(trace.trace_id, status, now - trace.started_s)

    def _record_queue_wait(self, handle: JobHandle) -> None:
        """Render the enqueue->dispatch gap as the request's queue-wait span."""
        trace = handle._trace
        store = self._trace_store()
        if trace is None or store is None or handle._enqueued_pc is None:
            return
        now = time.perf_counter()
        attrs: dict = {
            "tenant": handle.request.tenant,
            "cost_units": round(handle._cost_units, 3),
        }
        if handle._drr_rounds:
            attrs["drr_rounds"] = handle._drr_rounds
        store.record(span_record(
            "queue_wait",
            trace_id=trace.trace_id,
            parent_span_id=trace.span_id,
            start_s=handle._enqueued_pc,
            end_s=now,
            attrs=attrs,
        ))

    @contextmanager
    def _job_span(self, handle: JobHandle):
        """The job's execution span, joined to its request trace when sampled.

        Untraced requests keep the old behavior (``maybe_span``: nest under
        whatever is active, or root against the env tracer).  Traced,
        *sampled* requests activate their context and open the span against
        the service tracer (falling back to the env-shared one), so the job
        tree carries the trace id and parents under the request root.
        Traced-but-unsampled requests skip execution spans entirely — that
        is the head-sampling saving.
        """
        request = handle.request
        trace = handle._trace
        if trace is None:
            with maybe_span("job", job_id=handle.job_id, method=request.method) as span:
                yield span
            return
        if not trace.sampled:
            yield None
            return
        tracer = self.tracer
        if tracer is None and tracing_env_enabled():
            tracer = shared_tracer()
        if tracer is None:
            yield None
            return
        with activate_context(trace):
            with tracer.span(
                "job", job_id=handle.job_id, method=request.method, tenant=request.tenant
            ) as span:
                yield span

    def _dispatch_loop(self) -> None:
        """Feed the executor from the fair scheduler, one slot per worker.

        The semaphore caps outstanding futures at ``max_workers``, so the
        executor's internal FIFO never grows a backlog of its own — ordering
        decisions stay with the scheduler, right up to the moment a worker
        is actually free.
        """
        while True:
            handle = self.scheduler.next_job(timeout=0.25)
            if handle is None:
                if self._dispatch_stop.is_set():
                    return
                continue
            self._inflight.acquire()
            with self._lock:
                executor = self._executor
            if executor is None:
                # Shut down between pick and dispatch: the drain path owns
                # queued handles, this one is ours to finalize.
                self._inflight.release()
                self.scheduler.on_finish(handle)
                handle._transition(JOB_CANCELLED)
                continue
            with handle._condition:
                already_cancelled = handle._cancel_requested
            if already_cancelled:
                self._inflight.release()
                self.scheduler.on_finish(handle)
                handle._transition(JOB_CANCELLED)
                continue
            future = executor.submit(self._run_scheduled, handle)
            with handle._condition:
                handle._future = future

    def _run_scheduled(self, handle: JobHandle) -> None:
        try:
            self._run_job(handle)
        finally:
            self.scheduler.on_finish(handle)
            self._inflight.release()
            if self.admission is not None:
                self.admission.observe_served(handle._cost_units)

    def _evict_terminal_locked(self) -> None:
        """Drop the oldest finished handles beyond ``max_retained_jobs``."""
        if self.max_retained_jobs is None:
            return
        excess = len(self._jobs) - (self.max_retained_jobs - 1)
        if excess <= 0:
            return
        for job_id in sorted(self._jobs):
            if excess <= 0:
                break
            if self._jobs[job_id].status() in _TERMINAL:
                del self._jobs[job_id]
                excess -= 1

    def purge(self) -> int:
        """Drop every finished handle now; returns how many were removed.

        Only *terminal* handles are ever dropped — queued and running jobs
        survive any purge by construction (same guarantee as the per-submit
        retention eviction).  When the service has a journal, purged jobs
        remain answerable through :meth:`final_status`.
        """
        with self._lock:
            terminal = [job_id for job_id, handle in self._jobs.items() if handle.status() in _TERMINAL]
            for job_id in terminal:
                del self._jobs[job_id]
            return len(terminal)

    def _run_job(self, handle: JobHandle) -> None:
        if handle._cancelled:
            handle._transition(JOB_CANCELLED)
            return
        self._record_queue_wait(handle)
        handle._transition(JOB_RUNNING)
        request = handle.request
        # Any escape — QymeraError or not (bad constructor kwargs raise
        # TypeError, bad parameter values ValueError) — must land the job in
        # a terminal state, or result()/stream() callers block forever.
        if request.param_grid is not None and self._use_process_tier(request):
            try:
                with self.metrics.histogram("jobs.process_tier_seconds").time(), \
                        self._job_span(handle) as job_span:
                    finished = self._run_grid_in_processes(handle, request, job_span)
                # The DONE transition happens *after* the job span closes so
                # the sealed trace already contains the complete span tree.
                if finished:
                    handle._transition(JOB_DONE)
            except Exception as exc:
                handle._transition(JOB_ERROR, exc)
            return
        try:
            key, engine = self.pool.acquire(request.method, request.options)
        except Exception as exc:
            handle._transition(JOB_ERROR, exc)
            return
        try:
            # When tracing is on (a request trace, REPRO_TRACE, or an
            # engine-level tracer), the job span becomes the root this
            # thread's compile/query spans nest under; with tracing off it
            # is a no-op context.
            with self.metrics.histogram("jobs.thread_tier_seconds").time(), \
                    self._job_span(handle):
                executable = engine.compile(request.circuit)
                if request.param_grid is not None:
                    for point in request.param_grid:
                        if handle._cancelled:
                            handle._transition(JOB_CANCELLED)
                            return
                        handle._push_result(executable.bind(point).execute())
                else:
                    handle._push_result(executable.bind(request.params or {}).execute())
            handle._transition(JOB_DONE)
        except Exception as exc:
            handle._transition(JOB_ERROR, exc)
        finally:
            self.pool.release(key, engine)

    # -------------------------------------------------- process-backed tier

    def _use_process_tier(self, request: JobRequest) -> bool:
        """Route a grid job to worker processes when possible.

        The payload must survive pickling (spawned workers receive it
        serialized); anything that does not — exotic options, closures in a
        circuit — silently stays on the thread tier, counted in the stats.
        """
        if self.process_workers is None or not request.param_grid:
            return False
        try:
            # Probe with one representative point, not the whole grid: the
            # circuit and options dominate picklability (points are plain
            # name->float dicts), and each chunk pickles its own points at
            # submit time anyway — serializing a large grid twice would
            # stall the worker thread before the first chunk dispatches.
            pickle.dumps(
                (request.circuit, dict(request.options), dict(request.param_grid[0]))
            )
        except Exception:
            with self._lock:
                self._process_fallbacks += 1
            return False
        return True

    def _acquire_process_executor(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._closed:
                raise QymeraError("the job service has been shut down")
            if self._process_executor is None:
                # Spawn (not fork): the service itself is multi-threaded, and
                # forking a threaded process can deadlock held locks.
                self._process_executor = ProcessPoolExecutor(
                    max_workers=self.process_workers,
                    mp_context=multiprocessing.get_context("spawn"),
                )
            return self._process_executor

    def _run_grid_in_processes(self, handle: JobHandle, request: JobRequest, job_span=None) -> bool:
        """Fan a sweep grid out over the process pool, streaming in order.

        The grid is split into contiguous chunks; each worker process
        compiles the circuit once per chunk (warm engines persist between
        chunks of the same method+options).  Chunk futures are drained in
        submission order so per-point results stream back to ``stream()``
        callers in grid order; cancellation takes effect at the next chunk
        boundary.

        Returns True when every chunk completed (caller transitions DONE
        after the job span closes), False after a cancellation (already
        transitioned here).  Exceptions propagate after cancelling pending
        chunks.
        """
        executor = self._acquire_process_executor()
        points = [dict(point) for point in request.param_grid or []]
        workers = self.process_workers or 1
        if self.process_chunk_points is not None:
            chunk_size = self.process_chunk_points
        else:
            chunk_size = max(1, -(-len(points) // (workers * 2)))
        chunks = [points[start : start + chunk_size] for start in range(0, len(points), chunk_size)]
        options = dict(request.options)
        # Ship the trace identity with each chunk so worker-side spans carry
        # the request's trace id and parent under the job span; fall back to
        # the request root when the job span itself was not traced.
        trace_arg = None
        if job_span is not None and getattr(job_span, "trace_id", None):
            trace_arg = (job_span.trace_id, job_span.span_id)
        elif handle._trace is not None and handle._trace.sampled:
            trace_arg = (handle._trace.trace_id, handle._trace.span_id)
        futures = [
            executor.submit(
                _execute_grid_chunk, request.method, options, request.circuit, chunk, trace_arg
            )
            for chunk in chunks
        ]
        with self._lock:
            self._process_chunks += len(chunks)
            self._process_points += len(points)
        try:
            for future in futures:
                if handle._cancelled:
                    for pending in futures:
                        pending.cancel()
                    handle._transition(JOB_CANCELLED)
                    return False
                results, worker_stats = future.result()
                self._merge_worker_stats(handle, worker_stats)
                for result in results:
                    handle._push_result(result)
            return True
        except Exception:
            for pending in futures:
                pending.cancel()
            raise

    def _merge_worker_stats(self, handle: JobHandle, worker_stats: dict) -> None:
        """Fold one chunk's worker-process snapshot into the job metadata.

        Per worker pid the job keeps the *latest* engine-stats snapshot
        (counters are cumulative in the worker, so the last chunk's snapshot
        subsumes earlier ones) and accumulates the points it executed.
        Worker traces are appended to the parent's shared ring when tracing
        is enabled here too, so ``recent_traces()`` in the parent shows
        process-tier executions next to local ones.
        """
        pid = worker_stats.get("pid")
        tier = handle.metadata.setdefault("process_tier", {"workers": {}})
        worker = tier["workers"].setdefault(pid, {"points": 0, "chunks": 0})
        worker["points"] += int(worker_stats.get("points", 0))
        worker["chunks"] += 1
        if "engine" in worker_stats:
            worker["engine"] = worker_stats["engine"]
        dropped = int(worker_stats.get("traces_dropped", 0))
        if dropped:
            # Workers cap the traces they ship per chunk; surface the
            # truncation everywhere a reader might otherwise assume the
            # trace set is complete.
            tier["traces_dropped"] = tier.get("traces_dropped", 0) + dropped
            with self._lock:
                self._worker_traces_dropped += dropped
            self.metrics.counter("jobs.worker_traces_dropped").inc(dropped)
            tracer = self.tracer
            if tracer is None and tracing_env_enabled():
                tracer = shared_tracer()
            if tracer is not None:
                with tracer._lock:
                    tracer.traces_dropped += dropped
        traces = worker_stats.get("traces") or []
        if traces:
            self.metrics.counter("jobs.worker_traces").inc(len(traces))
            store = self._trace_store()
            for trace in traces:
                # perf_counter() is not comparable across processes, so tag
                # each shipped span tree with its origin pid — trace readers
                # only assert timing monotonicity within one process.
                trace.setdefault("attrs", {})["worker_pid"] = pid
                if store is not None and trace.get("trace_id"):
                    store.record(trace)
            if tracing_env_enabled():
                ring = shared_tracer().ring
                for trace in traces:
                    ring.append(trace)

    # --------------------------------------------------------------- queries

    def job(self, job_id: int) -> JobHandle:
        """Look a job up by id."""
        with self._lock:
            if job_id not in self._jobs:
                raise QymeraError(f"no job with id {job_id}")
            return self._jobs[job_id]

    def final_status(self, job_id: int) -> dict | None:
        """Journal-backed answer for a job whose handle is gone.

        Retention eviction and :meth:`purge` drop terminal handles, but the
        journal remembers their final state: this returns it (status,
        completed points, error) or ``None`` when no journal is attached or
        the id was never journaled.  The HTTP front end renders the
        difference as ``410 Gone`` (known, pruned) vs ``404`` (never seen).
        """
        if self.journal is None:
            return None
        return self.journal.final_status(job_id)

    def replay_journal(self) -> list[JobHandle]:
        """Re-enqueue every incomplete job the journal recorded.

        Called once at startup by a restarted server: grid jobs resume at
        their first unfinished point (the journal's ``point`` records prove
        what is already computed), single-point jobs re-run whole.  Returns
        the new handles, linked to their originals via the journal's
        ``resumed_from`` field.  Jobs whose payload was not serializable are
        counted in ``jobs.replay_skipped`` and left terminal-less in the
        old journal generation.
        """
        if self.journal is None:
            raise QymeraError("replay needs a journal-backed service")
        handles = []
        for plan in self.journal.replay_plan():
            if plan["request"] is None:
                self.metrics.counter("jobs.replay_skipped").inc()
                continue
            if plan.get("trace_id") and self._trace_store() is not None:
                # Re-adopt the original submit's trace id (fresh root span
                # id): the replayed job's spans join the original request's
                # trace, preserving lineage across the restart.
                plan["request"].trace = TraceContext(plan["trace_id"], sampled=True)
            handle = self._submit_request(plan["request"], resumed_from=plan["job_id"])
            # Close the original entry so a second restart replays the
            # resumed job's own journal state, not the stale original again.
            self.journal.record_terminal(
                plan["job_id"], JOB_CANCELLED, error=f"superseded by replay job {handle.job_id}"
            )
            handles.append(handle)
            self.metrics.counter("jobs.replayed").inc()
        return handles

    def poll(self, job_id: int) -> dict:
        """Progress snapshot of one job (see :meth:`JobHandle.poll`)."""
        return self.job(job_id).poll()

    def result(self, job_id: int, timeout: float | None = None):
        """Block for one job's result (see :meth:`JobHandle.result`)."""
        return self.job(job_id).result(timeout=timeout)

    def stream(self, job_id: int, timeout: float | None = None) -> Iterator[SimulationResult]:
        """Stream one job's per-point results (see :meth:`JobHandle.stream`)."""
        return self.job(job_id).stream(timeout=timeout)

    def jobs(self) -> list[JobHandle]:
        """All handles this service has accepted, in submission order."""
        with self._lock:
            return [self._jobs[job_id] for job_id in sorted(self._jobs)]

    def stats(self) -> dict:
        """Service-level counters: jobs by status, engine pool, process tier."""
        by_status: dict[str, int] = {}
        for handle in self.jobs():
            status = handle.status()
            by_status[status] = by_status.get(status, 0) + 1
        with self._lock:
            process_tier = {
                "enabled": self.process_workers is not None,
                "workers": self.process_workers,
                "chunks": self._process_chunks,
                "points": self._process_points,
                "fallbacks": self._process_fallbacks,
                "traces_dropped": self._worker_traces_dropped,
            }
        stats = {
            "jobs": by_status,
            "pool": self.pool.stats(),
            "process_tier": process_tier,
            "metrics": self.metrics.snapshot(),
        }
        if self.scheduler is not None:
            stats["scheduler"] = self.scheduler.snapshot()
        if self.admission is not None:
            stats["admission"] = self.admission.stats()
        if self.journal is not None:
            stats["journal"] = self.journal.stats()
        if self.tracer is not None:
            stats["tracing"] = self.tracer.stats()
        return stats

    # -------------------------------------------------------------- lifetime

    def shutdown(self, wait: bool = True, drain_timeout: float | None = None) -> None:
        """Stop accepting work and wind the service down in order.

        Queued (never-started) jobs are cancelled immediately; running jobs
        drain — forever with ``wait=True`` and no deadline, or up to
        ``drain_timeout`` seconds, after which they get a cancel request
        (grid jobs stop at their next point boundary) and the executor
        teardown collects them.  The journal is flushed after the last
        lifecycle record, and a service-owned engine pool is closed so a
        release racing the shutdown discards its lease instead of leaking
        it into a pool nobody drains.
        """
        with self._lock:
            executor = self._executor
            process_executor = self._process_executor
            self._executor = None
            self._process_executor = None
            self._closed = True
            dispatcher = self._dispatcher
            self._dispatcher = None
        if self.scheduler is not None:
            self._dispatch_stop.set()
            for handle in self.scheduler.drain():
                handle._transition(JOB_CANCELLED)
            self.scheduler.close()
            if dispatcher is not None:
                dispatcher.join(timeout=10.0)
        if wait:
            deadline = None if drain_timeout is None else time.monotonic() + drain_timeout
            for handle in self.jobs():
                if deadline is None:
                    handle.wait(None)
                    continue
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not handle.wait(remaining):
                    handle.cancel()
        if executor is not None:
            executor.shutdown(wait=wait)
        if process_executor is not None:
            process_executor.shutdown(wait=wait)
        if self.journal is not None:
            try:
                self.journal.flush()
            except Exception:  # noqa: BLE001 — shutdown must complete regardless
                self.metrics.counter("journal.write_errors").inc()
        if self._owns_pool:
            self.pool.close()

    def __enter__(self) -> "JobService":
        return self

    def __exit__(self, *_exc) -> None:
        self.shutdown(wait=True)

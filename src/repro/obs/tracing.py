"""Span-based query tracing: where did this query's milliseconds go?

Every traced execution produces a **span tree**: a root ``query`` span with
``parse`` → ``optimize`` → ``plan`` → ``execute`` children on the cold path
(a warm plan-cache hit goes straight to ``execute``), per-block ``block``
spans under execute (one per CTE plus ``main``, carrying the same pre-limit
actual row counts EXPLAIN ANALYZE observes), and per-operator ``operator``
spans (scan / hash-join / filter / aggregate / fused-join-aggregate) with
wall time and output rows.

Design constraints, in priority order:

1. **Near-zero disabled overhead.**  An engine without a tracer takes one
   ``is None`` branch per execution and nothing else.
2. **Correct flow across threads.**  The active-span stack is thread-local:
   each job-service worker thread traces its own queries without locking or
   cross-talk.  Worker *processes* trace into their own process-wide ring,
   which the batch tier drains and merges on chunk join
   (:func:`drain_shared_traces`).
3. **Context-manager instrumentation.**  Instrumented code wraps stages in
   ``with tracer.span(...)``; exceptions still finish and record spans, so
   a failing query leaves a truthful partial trace.

Enablement: pass ``enable_tracing=True`` (or a :class:`Tracer`) to
``MemDatabase`` / ``MemDBBackend``, or set ``REPRO_TRACE=1`` to turn the
process-shared tracer on for every engine that does not configure tracing
explicitly (the CI tier-1 trace leg).  ``REPRO_TRACE_SLOW_MS`` moves the
shared slow-query threshold (default 250 ms); ``REPRO_TRACE_JSONL=path``
adds a JSON-lines export sink.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from contextlib import contextmanager, nullcontext
from typing import Callable, Iterator, Optional

from .metrics import MetricsRegistry, global_registry
from .sinks import JsonlTraceSink, SlowQueryLog, TraceRingBuffer

#: Environment switch: ``REPRO_TRACE=1`` enables the shared tracer for every
#: engine that does not configure tracing explicitly.
TRACE_ENV_VAR = "REPRO_TRACE"
#: Slow-query threshold for the shared tracer, in milliseconds.
TRACE_SLOW_MS_ENV_VAR = "REPRO_TRACE_SLOW_MS"
#: When set, the shared tracer also exports every root trace to this path.
TRACE_JSONL_ENV_VAR = "REPRO_TRACE_JSONL"

_TRUE_VALUES = frozenset({"1", "true", "yes", "on"})

#: SQL text recorded on spans is truncated to this many characters: a dense
#: initial-state INSERT can carry megabytes of literals, and the ring buffer
#: must stay bounded in bytes, not just in trace count.
SPAN_SQL_MAX_CHARS = 2000


def tracing_env_enabled() -> bool | None:
    """The ``REPRO_TRACE`` setting: True/False, or None when unset."""
    raw = os.environ.get(TRACE_ENV_VAR)
    if raw is None or raw.strip() == "":
        return None
    return raw.strip().lower() in _TRUE_VALUES


# ---------------------------------------------------------------------------
# Trace identity: W3C-traceparent-style ids shared across threads/processes
# ---------------------------------------------------------------------------

#: Span ids are a random per-process prefix plus a cheap counter: unique
#: across the worker processes of one serving tier without an os.urandom
#: syscall per span (ids are minted once per request plus once per root
#: span, but the prefix also keeps replayed/forked id streams disjoint).
_ID_PREFIX = os.urandom(4).hex()
_ID_COUNTER = itertools.count(1)


def next_span_id() -> str:
    """A fresh 16-hex-char span id, unique within and across processes."""
    return f"{_ID_PREFIX}{next(_ID_COUNTER) & 0xFFFFFFFF:08x}"


def new_trace_id() -> str:
    """A fresh 32-hex-char trace id (random, W3C traceparent width)."""
    return os.urandom(16).hex()


class TraceContext:
    """The identity one request carries through the serving stack.

    Minted at HTTP ingress (or at submit for library callers), serialized
    into worker-process chunks, and persisted in the journal so replayed
    jobs keep their lineage.  ``span_id`` names the request's *root* span;
    spans recorded for the request parent to it (directly or transitively).
    ``sampled`` is the head-based sampling decision — serving-layer spans
    are always recorded (they are a handful of dict writes), but engine
    execution only opens spans when the request is sampled.
    """

    __slots__ = ("trace_id", "span_id", "parent_span_id", "sampled", "started_s")

    def __init__(
        self,
        trace_id: str,
        span_id: str | None = None,
        parent_span_id: str | None = None,
        sampled: bool = True,
        started_s: float | None = None,
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id if span_id is not None else next_span_id()
        self.parent_span_id = parent_span_id
        self.sampled = bool(sampled)
        self.started_s = started_s if started_s is not None else time.perf_counter()

    @classmethod
    def generate(cls, sampled: bool = True) -> "TraceContext":
        """A brand-new trace rooted here (no upstream parent)."""
        return cls(new_trace_id(), sampled=sampled)

    @classmethod
    def from_traceparent(cls, header: str) -> "TraceContext | None":
        """Adopt an incoming ``traceparent`` header, or None when malformed.

        The caller becomes a child of the upstream span: the header's span
        id is recorded as ``parent_span_id`` and a fresh local root span id
        is minted.  The upstream sampled flag (bit 0 of the flags byte) is
        honored as this request's head-sampling decision.
        """
        parts = header.strip().split("-")
        if len(parts) != 4:
            return None
        version, trace_id, span_id, flags = parts
        if len(version) != 2 or len(trace_id) != 32 or len(span_id) != 16 or len(flags) != 2:
            return None
        try:
            flag_bits = int(flags, 16)
            int(trace_id, 16)
            int(span_id, 16)
        except ValueError:
            return None
        if version == "ff" or trace_id == "0" * 32 or span_id == "0" * 16:
            return None
        return cls(trace_id, parent_span_id=span_id, sampled=bool(flag_bits & 0x01))

    def to_traceparent(self) -> str:
        """This context rendered as an outgoing ``traceparent`` header."""
        return f"00-{self.trace_id}-{self.span_id}-{'01' if self.sampled else '00'}"

    def child(self) -> "TraceContext":
        """A context for work nested under this one (same trace, new span)."""
        return TraceContext(
            self.trace_id,
            parent_span_id=self.span_id,
            sampled=self.sampled,
            started_s=self.started_s,
        )

    def __repr__(self) -> str:
        return (
            f"TraceContext(trace_id={self.trace_id!r}, span_id={self.span_id!r}, "
            f"sampled={self.sampled})"
        )


def span_record(
    name: str,
    *,
    trace_id: str,
    span_id: str | None = None,
    parent_span_id: str | None = None,
    start_s: float,
    end_s: float | None = None,
    attrs: dict | None = None,
) -> dict:
    """A finished span as a plain dict, for stages timed without a Span.

    The serving tier synthesizes admission / queue-wait / request-root spans
    from timestamps it already holds (the wait happened before any worker
    thread ran); this renders them in exactly the shape
    :meth:`Span.to_dict` produces so trace assembly treats both alike.
    """
    end = end_s if end_s is not None else time.perf_counter()
    return {
        "name": name,
        "start_s": start_s,
        "duration_s": max(0.0, end - start_s),
        "attrs": dict(attrs) if attrs else {},
        "children": [],
        "trace_id": trace_id,
        "span_id": span_id if span_id is not None else next_span_id(),
        "parent_span_id": parent_span_id,
    }


class Span:
    """One timed node of a trace tree.

    ``attrs`` carries whatever the instrumented stage recorded (row counts,
    cache provenance, operator kind); ``plan_provider`` is an
    optional zero-argument callable the slow-query log invokes to render an
    EXPLAIN-style plan snapshot — attached lazily so fast queries never pay
    for plan rendering.
    """

    __slots__ = ("name", "attrs", "children", "start_s", "end_s", "plan_provider",
                 "trace_id", "span_id", "parent_span_id", "_tracer", "_parent")

    def __init__(self, name: str, attrs: dict | None = None, tracer: "Tracer | None" = None) -> None:
        self.name = name
        # The span takes ownership of ``attrs`` (no defensive copy): every
        # caller hands over a fresh kwargs dict, and a traced query creates
        # dozens of spans — the copies were measurable (bench_obs_overhead).
        self.attrs: dict = attrs if attrs is not None else {}
        self.children: list[Span] = []
        self.start_s = time.perf_counter()
        self.end_s: float | None = None
        self.plan_provider: Callable[[], list[str]] | None = None
        #: Distributed-trace identity: set on root spans opened while a
        #: :class:`TraceContext` is active on this thread; nested spans stay
        #: id-less (their position in ``children`` is identity enough).
        self.trace_id: str | None = None
        self.span_id: str | None = None
        self.parent_span_id: str | None = None
        self._tracer = tracer
        self._parent: Span | None = None

    # The span is its own context manager (rather than wrapping it in a
    # separate handle or ``@contextmanager`` generator): a traced query
    # opens dozens of spans, and the extra allocation plus the generator
    # protocol were the difference between the enabled-overhead gate in
    # bench_obs_overhead passing and failing.

    def __enter__(self) -> "Span":
        stack = getattr(_ACTIVE, "spans", None)
        if stack is None:
            stack = _ACTIVE.spans = []
        if stack:
            parent = stack[-1]
            self._parent = parent
            parent.children.append(self)
        else:
            # A root: adopt the thread's active request context (if any) so
            # this tree carries its trace identity — the cross-thread /
            # cross-process link the serving tier assembles request trees by.
            context = getattr(_ACTIVE, "context", None)
            if context is not None:
                self.trace_id = context.trace_id
                self.parent_span_id = context.span_id
                self.span_id = next_span_id()
        stack.append(self)
        self.start_s = time.perf_counter()
        return self

    def __exit__(self, _exc_type, _exc, _tb) -> bool:
        self.end_s = time.perf_counter()
        _ACTIVE.spans.pop()
        is_root = self._parent is None
        # Drop the parent backref: it closes a reference cycle with
        # ``parent.children``, and cyclic trace trees evicted from the ring
        # pile up as gen-2 garbage — bursty GC pauses billed to traced
        # queries.  One-way trees free by refcount the moment they leave.
        self._parent = None
        tracer = self._tracer
        if tracer is not None and (is_root or self.name == "query"):
            tracer._dispatch(self, is_root=is_root)
        return False

    def finish(self) -> None:
        if self.end_s is None:
            self.end_s = time.perf_counter()

    @property
    def duration_s(self) -> float:
        end = self.end_s if self.end_s is not None else time.perf_counter()
        return end - self.start_s

    def set(self, **attrs: object) -> None:
        self.attrs.update(attrs)

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first, pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str, **attrs: object) -> Optional["Span"]:
        """First descendant (or self) matching name and every given attr."""
        for span in self.walk():
            if span.name == name and all(span.attrs.get(k) == v for k, v in attrs.items()):
                return span
        return None

    def find_all(self, name: str) -> list["Span"]:
        return [span for span in self.walk() if span.name == name]

    def to_dict(self) -> dict:
        """A JSON-ready rendering of the subtree (durations in seconds)."""
        rendered = {
            "name": self.name,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "attrs": dict(self.attrs),
            "children": [child.to_dict() for child in self.children],
        }
        if self.trace_id is not None:
            rendered["trace_id"] = self.trace_id
            rendered["span_id"] = self.span_id
            rendered["parent_span_id"] = self.parent_span_id
        return rendered

    def __repr__(self) -> str:
        return f"Span({self.name!r}, {self.duration_s * 1000:.3f}ms, attrs={self.attrs})"


# ---------------------------------------------------------------------------
# The per-thread active-span stack
# ---------------------------------------------------------------------------

_ACTIVE = threading.local()


def current_span() -> Span | None:
    """The innermost active span on this thread, or None."""
    stack = getattr(_ACTIVE, "spans", None)
    return stack[-1] if stack else None


def current_context() -> TraceContext | None:
    """The request context active on this thread, or None."""
    return getattr(_ACTIVE, "context", None)


@contextmanager
def activate_context(context: TraceContext | None):
    """Make ``context`` the thread's active request identity for a block.

    Root spans opened inside the block adopt the context's trace id and
    parent to its root span — this is how a job worker thread (or a spawned
    worker process) joins the trace the HTTP ingress started.  Nesting
    restores the previous context on exit; ``None`` deactivates.
    """
    previous = getattr(_ACTIVE, "context", None)
    _ACTIVE.context = context
    try:
        yield context
    finally:
        _ACTIVE.context = previous


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------


class Tracer:
    """Creates spans, dispatches finished root traces to sinks and metrics.

    One tracer can serve many engines concurrently: span nesting state is
    thread-local and process-global (so an engine's query spans nest under a
    service-layer job span opened on the same thread, whichever tracer
    created it), while the sinks and counters are owned per tracer.
    """

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        ring: TraceRingBuffer | None = None,
        sinks: tuple | list = (),
        slow_log: SlowQueryLog | None = None,
        request_store=None,
    ) -> None:
        self.registry = registry
        self.ring = ring if ring is not None else TraceRingBuffer()
        self.sinks = list(sinks)
        self.slow_log = slow_log
        #: Optional :class:`~.sinks.RequestTraceStore`: root spans that carry
        #: a trace id (i.e. were opened under an active request context) are
        #: also indexed there for ``/v1/traces`` assembly.
        self.request_store = request_store
        self._lock = threading.Lock()
        self.traces = 0
        self.spans = 0
        self.traces_dropped = 0

    # ---------------------------------------------------------------- spans

    def span(self, name: str, **attrs: object) -> Span:
        """A child span nested under the thread's current span (or a root)."""
        return Span(name, attrs, tracer=self)

    def query(self, sql: str, **attrs: object) -> Span:
        """The root-per-query span; always dispatched to metrics + slow log.

        Nested queries (an engine call inside a lifecycle or job span) keep
        their per-query metrics and slow-log eligibility but only the
        outermost root lands in the ring/export sinks, so one logical trace
        is never double-buffered.
        """
        span = Span("query", attrs, tracer=self)
        span.attrs["sql"] = sql[:SPAN_SQL_MAX_CHARS]
        return span

    # ------------------------------------------------------------- dispatch

    def _dispatch(self, span: Span, is_root: bool) -> None:
        """Route one finished span; called once per query, not per span.

        Span totals are counted here by walking the dispatched subtree (the
        per-span hot path touches no tracer state at all); spans nested
        under a query dispatched non-root are counted when their root is.
        """
        if span.name == "query":
            with self._lock:
                self.traces += 1
            if self.registry is not None:
                self.registry.counter("engine.queries").inc()
                self.registry.histogram("engine.query_seconds").observe(span.duration_s)
            if self.slow_log is not None:
                self.slow_log.offer(span)
        if is_root:
            count = 0
            pending = [span]
            while pending:
                node = pending.pop()
                count += 1
                pending.extend(node.children)
            with self._lock:
                self.spans += count
            # The ring stores the Span itself; serialization to dicts is
            # deferred to the readers (recent_traces / the process-tier
            # drain), keeping to_dict off the per-query hot path.
            if self.ring is not None:
                self.ring.append(span)
            if self.sinks:
                trace = span.to_dict()
                for sink in self.sinks:
                    sink.write(trace)
            if self.request_store is not None and span.trace_id is not None:
                self.request_store.record(span.to_dict())

    # ---------------------------------------------------------------- stats

    def recent_traces(self) -> list[dict]:
        """The ring buffer's traces as dicts, oldest first.

        The ring holds live :class:`Span` objects for locally produced
        traces (serialized here, on read) and plain dicts for traces merged
        in from worker processes.
        """
        if self.ring is None:
            return []
        return [
            trace.to_dict() if isinstance(trace, Span) else trace
            for trace in self.ring.snapshot()
        ]

    def slow_queries(self) -> list[dict]:
        """The slow-query log's captured entries, oldest first."""
        return self.slow_log.entries() if self.slow_log is not None else []

    def stats(self) -> dict:
        """Tracer activity counters plus per-sink state."""
        with self._lock:
            traces, spans, dropped = self.traces, self.spans, self.traces_dropped
        stats = {
            "enabled": True,
            "traces": traces,
            "spans": spans,
            "traces_dropped": dropped,
            "ring_size": len(self.ring) if self.ring is not None else 0,
        }
        if self.request_store is not None:
            stats["request_store"] = self.request_store.stats()
        if self.slow_log is not None:
            stats["slow_queries"] = self.slow_log.stats()
        if self.sinks:
            stats["sinks"] = [
                sink.stats() if hasattr(sink, "stats") else repr(sink) for sink in self.sinks
            ]
        return stats


# ---------------------------------------------------------------------------
# The process-shared tracer (what REPRO_TRACE=1 turns on)
# ---------------------------------------------------------------------------

_SHARED_TRACER: Tracer | None = None
_SHARED_TRACER_LOCK = threading.Lock()


def _slow_threshold_s() -> float:
    raw = os.environ.get(TRACE_SLOW_MS_ENV_VAR)
    if raw:
        try:
            return max(0.0, float(raw)) / 1000.0
        except ValueError:
            pass
    return 0.25


def shared_tracer() -> Tracer:
    """The process-wide tracer (created on first use, env-configured sinks)."""
    global _SHARED_TRACER
    with _SHARED_TRACER_LOCK:
        if _SHARED_TRACER is None:
            sinks = []
            jsonl_path = os.environ.get(TRACE_JSONL_ENV_VAR)
            if jsonl_path:
                sinks.append(JsonlTraceSink(jsonl_path))
            _SHARED_TRACER = Tracer(
                registry=global_registry(),
                ring=TraceRingBuffer(256),
                sinks=sinks,
                slow_log=SlowQueryLog(threshold_s=_slow_threshold_s()),
            )
        return _SHARED_TRACER


def env_tracer() -> Tracer | None:
    """The shared tracer when ``REPRO_TRACE`` enables it, else None."""
    return shared_tracer() if tracing_env_enabled() else None


def drain_shared_traces(limit: int | None = None) -> list[dict]:
    """Pop the shared ring's traces (newest ``limit``); [] when never traced.

    The process-backed batch tier calls this inside each worker process so
    chunk results carry the traces produced while executing them; draining
    (not snapshotting) keeps a chunk's traces from being shipped twice.
    Traces beyond ``limit`` are dropped — counted, not silent: see
    :func:`drain_shared_traces_counted` for the count.
    """
    traces, _dropped = drain_shared_traces_counted(limit)
    return traces


def drain_shared_traces_counted(limit: int | None = None) -> tuple[list[dict], int]:
    """Like :func:`drain_shared_traces` but also reports how many traces the
    ``limit`` truncated.

    The dropped count is accumulated on the shared tracer (visible in its
    ``stats()`` as ``traces_dropped``) *and* returned, so a worker process
    can ship it to the parent inside the chunk's observability snapshot.
    """
    with _SHARED_TRACER_LOCK:
        tracer = _SHARED_TRACER
    if tracer is None or tracer.ring is None:
        return [], 0
    traces = tracer.ring.drain()
    dropped = 0
    if limit is not None and len(traces) > limit:
        dropped = len(traces) - limit
        traces = traces[-limit:]
        with tracer._lock:
            tracer.traces_dropped += dropped
    return (
        [trace.to_dict() if isinstance(trace, Span) else trace for trace in traces],
        dropped,
    )


def maybe_span(name: str, **attrs: object):
    """A lifecycle span when tracing is active on this thread, else a no-op.

    Used by code that cannot know which tracer (if any) is configured — the
    simulator compile/execute lifecycle, the job service's per-job wrapper.
    When a span is already active on this thread the new span nests under it
    (whoever opened the root dispatches it); otherwise, if ``REPRO_TRACE``
    is on, the shared tracer opens a fresh root.  With tracing fully off
    this is one thread-local peek plus one environment lookup.
    """
    stack = getattr(_ACTIVE, "spans", None)
    if stack:
        # Nested: attach to the active span; whoever opened the root (and
        # holds the tracer reference) dispatches the whole tree on exit.
        return Span(name, attrs)
    if tracing_env_enabled():
        return shared_tracer().span(name, **attrs)
    return nullcontext(None)


def reset_shared_tracer() -> None:
    """Drop the process-shared tracer (tests re-create it with fresh env)."""
    global _SHARED_TRACER
    with _SHARED_TRACER_LOCK:
        if _SHARED_TRACER is not None:
            for sink in _SHARED_TRACER.sinks:
                close = getattr(sink, "close", None)
                if close is not None:
                    close()
        _SHARED_TRACER = None

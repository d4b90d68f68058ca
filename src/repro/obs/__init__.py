"""Observability substrate: tracing, metrics, sinks, the engine-stats schema.

Answers the two questions a stats snapshot cannot:
"where did this query's milliseconds go?" (span-based tracing,
:mod:`.tracing`) and "what is the service's p99 under mixed traffic?"
(process-wide metrics registry, :mod:`.metrics`).  Finished traces flow to
bounded sinks (:mod:`.sinks`): an in-memory ring, an optional JSON-lines
export, a threshold-gated slow-query log with EXPLAIN-style plan
snapshots, and the request-indexed :class:`~.sinks.RequestTraceStore` the
serving tier's ``/v1/traces`` endpoints assemble distributed traces from.
:mod:`.schema` versions the ``engine_stats()`` document and flattens it.

Tracing is ablatable: pass ``enable_tracing=True`` to an engine/backend or
set ``REPRO_TRACE=1`` process-wide; the disabled path costs one branch.
Request-scoped identity (:class:`~.tracing.TraceContext`) is W3C
traceparent compatible and travels across threads and worker processes via
:func:`~.tracing.activate_context`.
"""

from .metrics import (
    PROMETHEUS_CONTENT_TYPE,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    global_registry,
    prometheus_exposition,
)
from .schema import ENGINE_STATS_SCHEMA_VERSION, flatten_counters
from .sinks import JsonlTraceSink, RequestTraceStore, SlowQueryLog, TraceRingBuffer
from .tracing import (
    Span,
    TraceContext,
    Tracer,
    activate_context,
    annotate_current,
    current_context,
    current_span,
    drain_shared_traces,
    drain_shared_traces_counted,
    env_tracer,
    maybe_span,
    new_trace_id,
    next_span_id,
    reset_shared_tracer,
    shared_tracer,
    span_record,
    tracing_env_enabled,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PROMETHEUS_CONTENT_TYPE",
    "global_registry",
    "prometheus_exposition",
    "ENGINE_STATS_SCHEMA_VERSION",
    "flatten_counters",
    "JsonlTraceSink",
    "RequestTraceStore",
    "SlowQueryLog",
    "TraceRingBuffer",
    "Span",
    "TraceContext",
    "Tracer",
    "activate_context",
    "annotate_current",
    "current_context",
    "current_span",
    "drain_shared_traces",
    "drain_shared_traces_counted",
    "env_tracer",
    "maybe_span",
    "new_trace_id",
    "next_span_id",
    "reset_shared_tracer",
    "shared_tracer",
    "span_record",
    "tracing_env_enabled",
]

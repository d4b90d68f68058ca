"""Benchmark reporting: tables and summaries from raw records.

Turns flat :class:`~repro.bench.metrics.BenchmarkRecord` lists into the
tables the paper's Output Layer shows — per-method timing comparisons,
capacity tables under a memory budget, and win/loss summaries per sparsity
class — rendered through the text tools of :mod:`repro.output.visualization`
and exportable via :mod:`repro.output.export`.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Sequence

from ..errors import BenchmarkError
from ..obs.schema import flatten_counters
from ..output.visualization import comparison_table, line_plot
from .metrics import STATUS_OK, BenchmarkRecord


def records_to_rows(records: Sequence[BenchmarkRecord]) -> list[dict]:
    """Flatten records for CSV export or tabulation."""
    return [record.to_dict() for record in records]


def timing_table(records: Sequence[BenchmarkRecord], workload: str | None = None) -> str:
    """A (num_qubits x method) wall-clock table for one workload."""
    selected = [record for record in records if workload is None or record.workload == workload]
    if not selected:
        raise BenchmarkError(f"no records for workload {workload!r}")
    methods = sorted({record.method for record in selected})
    by_size: dict[int, dict[str, BenchmarkRecord]] = defaultdict(dict)
    for record in selected:
        by_size[record.num_qubits][record.method] = record
    rows = []
    for num_qubits in sorted(by_size):
        row: dict[str, object] = {"qubits": num_qubits}
        for method in methods:
            record = by_size[num_qubits].get(method)
            if record is None:
                row[method] = "-"
            elif record.status == STATUS_OK:
                row[method] = record.wall_time_s
            else:
                row[method] = record.status
        rows.append(row)
    return comparison_table(rows, columns=["qubits", *methods])


def memory_table(records: Sequence[BenchmarkRecord], workload: str | None = None) -> str:
    """A (num_qubits x method) table of peak state bytes."""
    selected = [record for record in records if workload is None or record.workload == workload]
    if not selected:
        raise BenchmarkError(f"no records for workload {workload!r}")
    methods = sorted({record.method for record in selected})
    by_size: dict[int, dict[str, BenchmarkRecord]] = defaultdict(dict)
    for record in selected:
        by_size[record.num_qubits][record.method] = record
    rows = []
    for num_qubits in sorted(by_size):
        row: dict[str, object] = {"qubits": num_qubits}
        for method in methods:
            record = by_size[num_qubits].get(method)
            if record is None:
                row[method] = "-"
            elif record.status == STATUS_OK:
                row[method] = record.peak_state_bytes
            else:
                row[method] = record.status
        rows.append(row)
    return comparison_table(rows, columns=["qubits", *methods])


def scaling_plot(records: Sequence[BenchmarkRecord], workload: str, logy: bool = True) -> str:
    """ASCII plot of wall time vs qubit count, one series per method."""
    series: dict[str, list[tuple[float, float]]] = defaultdict(list)
    for record in records:
        if record.workload == workload and record.status == STATUS_OK:
            series[record.method].append((float(record.num_qubits), max(record.wall_time_s, 1e-9)))
    if not series:
        raise BenchmarkError(f"no successful records for workload {workload!r}")
    return line_plot(series, logy=logy, title=f"wall time vs qubits — {workload}")


def fastest_method_summary(records: Sequence[BenchmarkRecord]) -> dict[tuple[str, int], str]:
    """For each (workload, size), the method with the lowest wall time."""
    groups: dict[tuple[str, int], list[BenchmarkRecord]] = defaultdict(list)
    for record in records:
        if record.status == STATUS_OK:
            groups[(record.workload, record.num_qubits)].append(record)
    return {
        key: min(group, key=lambda record: record.wall_time_s).method
        for key, group in groups.items()
    }


def win_counts(records: Sequence[BenchmarkRecord]) -> dict[str, int]:
    """How many (workload, size) combinations each method wins on wall time."""
    counts: dict[str, int] = defaultdict(int)
    for winner in fastest_method_summary(records).values():
        counts[winner] += 1
    return dict(counts)


def engine_stats_table(stats: dict) -> str:
    """Render an engine-stats document as one counter table.

    ``stats`` is the document ``MemDatabase.engine_stats()`` produces (and
    ``MemDBBackend.engine_stats()`` / ``QymeraSession.simulations.engine_stats()``
    hand through).  One row per :func:`~repro.obs.schema.flatten_counters`
    name: its first dotted segment is the subsystem, the rest the counter.
    """
    if not stats:
        raise BenchmarkError("empty engine statistics")
    rows = []
    for name, value in flatten_counters(stats).items():
        subsystem, _, counter = name.partition(".")
        rows.append({"subsystem": subsystem, "counter": counter, "value": value})
    if not rows:
        raise BenchmarkError("engine statistics contain no counters")
    return comparison_table(rows, columns=["subsystem", "counter", "value"])


def metrics_table(snapshot: dict) -> str:
    """Render a :meth:`MetricsRegistry.snapshot` as one instrument table.

    Counters and gauges get one row each; histograms get a row per summary
    statistic (count, p50, p95, p99, max) so latency distributions read at
    a glance next to the counters that drove them.
    """
    if not snapshot:
        raise BenchmarkError("empty metrics snapshot")
    rows = []
    for name, value in sorted(snapshot.get("counters", {}).items()):
        rows.append({"kind": "counter", "name": name, "stat": "value", "value": value})
    for name, value in sorted(snapshot.get("gauges", {}).items()):
        rows.append({"kind": "gauge", "name": name, "stat": "value", "value": value})
    for name, summary in sorted(snapshot.get("histograms", {}).items()):
        for stat in ("count", "p50", "p95", "p99", "max"):
            if stat in summary:
                rows.append({"kind": "histogram", "name": name, "stat": stat, "value": summary[stat]})
    if not rows:
        raise BenchmarkError("metrics snapshot contains no instruments")
    return comparison_table(rows, columns=["kind", "name", "stat", "value"])


def tenant_table(snapshot: dict) -> str:
    """Render per-tenant serving metrics from a :meth:`MetricsRegistry.snapshot`.

    The serving tier publishes ``tenant.<name>.<instrument>`` counters and
    gauges (submitted/rejected/done/error/cancelled, queued, in_flight) plus
    a ``tenant.<name>.latency_seconds`` histogram; this collates them into
    one row per tenant so fairness reads at a glance — two tenants with
    wildly different submit counts should still show comparable latency
    percentiles under weighted-fair scheduling.
    """
    if not snapshot:
        raise BenchmarkError("empty metrics snapshot")
    tenants: dict[str, dict[str, object]] = defaultdict(dict)

    def tenant_key(name: str) -> tuple[str, str] | None:
        if not name.startswith("tenant."):
            return None
        remainder = name[len("tenant."):]
        tenant, _, instrument = remainder.rpartition(".")
        if not tenant or not instrument:
            return None
        return tenant, instrument

    for name, value in snapshot.get("counters", {}).items():
        parsed = tenant_key(name)
        if parsed:
            tenants[parsed[0]][parsed[1]] = value
    for name, value in snapshot.get("gauges", {}).items():
        parsed = tenant_key(name)
        if parsed:
            tenants[parsed[0]][parsed[1]] = value
    for name, summary in snapshot.get("histograms", {}).items():
        parsed = tenant_key(name)
        if parsed and parsed[1] == "latency_seconds":
            tenant = tenants[parsed[0]]
            tenant["latency_p50_s"] = summary.get("p50")
            tenant["latency_p99_s"] = summary.get("p99")
    if not tenants:
        raise BenchmarkError("metrics snapshot contains no tenant.* instruments")
    columns = [
        "tenant",
        "submitted",
        "rejected",
        "done",
        "error",
        "cancelled",
        "queued",
        "in_flight",
        "latency_p50_s",
        "latency_p99_s",
    ]
    rows = []
    for tenant in sorted(tenants):
        row: dict[str, object] = {"tenant": tenant}
        for column in columns[1:]:
            row[column] = tenants[tenant].get(column, 0)
        rows.append(row)
    return comparison_table(rows, columns=columns)


def trace_tree_table(trace: dict, max_depth: int | None = None) -> str:
    """Render one query trace (a :meth:`Span.to_dict` tree) as indented text.

    One line per span: indented name, wall time in milliseconds, and the
    span's attributes (rows, operator kind, cache provenance)
    in ``key=value`` form — the textual analogue of a flame graph, suitable
    for benchmark reports and the slow-query log.
    """
    if not trace or "name" not in trace:
        raise BenchmarkError("empty trace")
    lines: list[str] = []

    def render(span: dict, depth: int) -> None:
        if max_depth is not None and depth > max_depth:
            return
        duration = span.get("duration_s")
        timing = f"{duration * 1e3:.3f}ms" if isinstance(duration, (int, float)) else "-"
        attrs = span.get("attrs", {}) or {}
        detail = " ".join(f"{key}={value}" for key, value in attrs.items())
        line = f"{'  ' * depth}{span.get('name', '?')}  {timing}"
        if detail:
            line += f"  [{detail}]"
        lines.append(line)
        for child in span.get("children", []) or []:
            render(child, depth + 1)

    render(trace, 0)
    return "\n".join(lines)


def trace_waterfall_table(assembled: dict, width: int = 40) -> str:
    """Render one assembled request trace as a latency waterfall.

    ``assembled`` is the document ``/v1/traces/{job_id}`` returns (a
    :meth:`~repro.obs.sinks.RequestTraceStore.assemble` summary): the root
    ``request`` span with ingress / admission / queue-wait / job / engine
    children.  Each span becomes one row — indented name, offset from the
    request start, duration, and a proportional bar — so where a request's
    milliseconds went reads at a glance.  Spans shipped home from worker
    processes carry a ``worker_pid`` attribute and use their own clock;
    their offsets are rendered as ``~`` (not comparable with the parent's).
    """
    root = assembled.get("root") if isinstance(assembled, dict) else None
    if not root:
        raise BenchmarkError("assembled trace has no root span")
    total = root.get("duration_s") or 0.0
    base = root.get("start_s", 0.0)
    lines: list[str] = []
    header = (
        f"trace {assembled.get('trace_id', '?')}  job={assembled.get('job_id')}  "
        f"tenant={assembled.get('tenant')}  status={assembled.get('status')}  "
        f"total={total * 1e3:.3f}ms"
    )
    lines.append(header)

    def render(span: dict, depth: int, foreign_clock: bool) -> None:
        duration = float(span.get("duration_s") or 0.0)
        attrs = span.get("attrs", {}) or {}
        foreign = foreign_clock or "worker_pid" in attrs
        start = span.get("start_s")
        if foreign or not isinstance(start, (int, float)):
            offset_text = "     ~"
        else:
            offset_text = f"{max(0.0, (start - base)) * 1e3:10.3f}"
        if total > 0:
            span_width = max(1, min(width, int(round(width * duration / total))))
        else:
            span_width = 1
        bar = "#" * span_width
        name = f"{'  ' * depth}{span.get('name', '?')}"
        pid = f" pid={attrs['worker_pid']}" if "worker_pid" in attrs else ""
        orphan = " orphan" if attrs.get("orphan") else ""
        lines.append(
            f"{name:<28} +{offset_text}ms  {duration * 1e3:10.3f}ms  {bar}{pid}{orphan}"
        )
        for child in span.get("children", []) or []:
            render(child, depth + 1, foreign)

    render(root, 0, False)
    breakdown = assembled.get("breakdown") or {}
    if breakdown:
        lines.append(
            "stages: "
            + "  ".join(
                f"{stage}={breakdown.get(key, 0.0) * 1e3:.3f}ms"
                for stage, key in (
                    ("admission", "admission_s"),
                    ("queue_wait", "queue_wait_s"),
                    ("execute", "execute_s"),
                    ("total", "total_s"),
                )
            )
        )
    return "\n".join(lines)


def capacity_table(max_qubits_by_method: dict[str, int], budget_bytes: int) -> str:
    """Render the "max qubits under a fixed memory budget" comparison."""
    if not max_qubits_by_method:
        raise BenchmarkError("empty capacity results")
    baseline = max_qubits_by_method.get("statevector", 0)
    rows = []
    for method, qubits in sorted(max_qubits_by_method.items(), key=lambda kv: -kv[1]):
        rows.append(
            {
                "method": method,
                "max_qubits": qubits,
                "extra_qubits_vs_statevector": qubits - baseline,
                "budget_bytes": budget_bytes,
            }
        )
    return comparison_table(rows, columns=["method", "max_qubits", "extra_qubits_vs_statevector", "budget_bytes"])

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

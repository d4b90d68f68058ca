"""Process-wide metrics: counters, gauges, bounded histograms.

The engine's subsystems (plan cache, optimizer, encoded storage) each keep
their own ad-hoc counters; this module provides the *shared* instrument vocabulary that the
service layer and the tracer record into, and the snapshot format every
stats surface renders.  Three instrument kinds cover the serving tier's
needs:

* :class:`Counter` — monotonically increasing event counts (queries run,
  jobs cancelled, engines created);
* :class:`Gauge` — last-write-wins level measurements (queue depth, jobs
  running right now);
* :class:`Histogram` — bounded-window latency distributions reporting
  count/sum/min/max/mean plus p50/p95/p99 over the most recent
  observations.  The window is bounded (default 1024 samples) so a
  long-running service never accumulates unbounded state; totals
  (``count``/``sum``) remain exact over the full lifetime.

All instruments are thread-safe: the job service's worker threads and the
engine's query threads record concurrently.  A :class:`MetricsRegistry`
names and owns instruments (get-or-create, type-checked); the process-wide
:func:`global_registry` is what the shared tracer records into, mirroring
the process-wide plan cache and worker pool.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Iterator


class Counter:
    """A monotonically increasing counter."""

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError("counters only increase; use a Gauge for levels")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Gauge:
    """A last-write-wins level measurement (also supports inc/dec)."""

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


def _percentile(ordered: list[float], fraction: float) -> float:
    """Nearest-rank percentile of an already sorted, non-empty list."""
    rank = max(0, min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1)))))
    return ordered[rank]


class Histogram:
    """A bounded-window distribution with exact lifetime totals.

    Percentiles are computed over the most recent ``window`` observations
    (a ring buffer — old samples age out, so p99 tracks *current* latency
    rather than averaging over the process lifetime), while ``count`` /
    ``sum`` / ``min`` / ``max`` stay exact over every observation ever made.
    """

    __slots__ = ("_window", "_values", "_exemplars", "_count", "_sum", "_min", "_max", "_lock")

    def __init__(self, window: int = 1024) -> None:
        if window < 1:
            raise ValueError("histogram window must be positive")
        self._window = int(window)
        self._values: deque[float] = deque(maxlen=self._window)
        #: Parallel to ``_values``: the exemplar dict recorded with each
        #: observation (None for plain observes).  Lazily created on the
        #: first exemplar so exemplar-free histograms pay nothing.
        self._exemplars: deque[dict | None] | None = None
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")
        self._lock = threading.Lock()

    def observe(self, value: float, exemplar: dict | None = None) -> None:
        """Record one observation, optionally tagged with an exemplar.

        An exemplar is a small dict (``{"trace_id": ..., "job_id": ...}``)
        linking this latency sample to the trace that produced it; the
        snapshot surfaces the exemplar of the tail (>= p99) window sample so
        a bad p99 on ``/v1/stats`` resolves to an actual request trace.
        """
        value = float(value)
        with self._lock:
            if exemplar is not None and self._exemplars is None:
                # Backfill alignment for the observations already windowed.
                self._exemplars = deque(
                    [None] * len(self._values), maxlen=self._window
                )
            self._values.append(value)
            if self._exemplars is not None:
                self._exemplars.append(exemplar)
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    def time(self) -> "_HistogramTimer":
        """Context manager observing the elapsed wall time of its block."""
        return _HistogramTimer(self)

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def snapshot(self) -> dict:
        """Totals plus windowed percentiles (empty histograms report zeros).

        When any windowed observation carried an exemplar, the snapshot
        includes an ``exemplar`` key: the most recent exemplar among the
        tail (value >= p99) observations — the trace to read when asking
        "what *is* that p99".
        """
        with self._lock:
            raw = list(self._values)
            exemplars = list(self._exemplars) if self._exemplars is not None else None
            count, total = self._count, self._sum
            minimum, maximum = self._min, self._max
        if not count:
            return {
                "count": 0, "sum": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0,
                "p50": 0.0, "p95": 0.0, "p99": 0.0,
            }
        window = sorted(raw)
        p99 = _percentile(window, 0.99)
        snapshot = {
            "count": count,
            "sum": total,
            "min": minimum,
            "max": maximum,
            "mean": total / count,
            "p50": _percentile(window, 0.50),
            "p95": _percentile(window, 0.95),
            "p99": p99,
        }
        if exemplars is not None:
            for value, exemplar in zip(reversed(raw), reversed(exemplars)):
                if exemplar is not None and value >= p99:
                    snapshot["exemplar"] = dict(exemplar, value=value)
                    break
        return snapshot


class _HistogramTimer:
    __slots__ = ("_histogram", "_started")

    def __init__(self, histogram: Histogram) -> None:
        self._histogram = histogram
        self._started = 0.0

    def __enter__(self) -> "_HistogramTimer":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *_exc) -> None:
        self._histogram.observe(time.perf_counter() - self._started)


class MetricsRegistry:
    """Named instruments with get-or-create semantics.

    Asking for an existing name returns the same instrument (so concurrent
    recorders share one counter); asking for a name registered as a
    different kind raises — silent kind aliasing would corrupt snapshots.
    """

    def __init__(self) -> None:
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, name: str, kind: type, factory):
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = factory()
                self._instruments[name] = instrument
            elif not isinstance(instrument, kind):
                raise TypeError(
                    f"metric {name!r} is a {type(instrument).__name__}, not a {kind.__name__}"
                )
            return instrument

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge, Gauge)

    def histogram(self, name: str, window: int = 1024) -> Histogram:
        return self._get_or_create(name, Histogram, lambda: Histogram(window))

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._instruments)

    def __iter__(self) -> Iterator[tuple[str, object]]:
        with self._lock:
            items = list(self._instruments.items())
        return iter(items)

    def snapshot(self) -> dict:
        """One nested dict per instrument kind, ready for rendering/export."""
        counters: dict[str, int] = {}
        gauges: dict[str, float] = {}
        histograms: dict[str, dict] = {}
        for name, instrument in self:
            if isinstance(instrument, Counter):
                counters[name] = instrument.value
            elif isinstance(instrument, Gauge):
                gauges[name] = instrument.value
            else:
                histograms[name] = instrument.snapshot()
        return {"counters": counters, "gauges": gauges, "histograms": histograms}


#: Process-wide registry shared by every tracer/service not given its own —
#: mirrors the shared plan cache and worker pool.
_GLOBAL_REGISTRY = MetricsRegistry()


def global_registry() -> MetricsRegistry:
    """The process-wide metrics registry."""
    return _GLOBAL_REGISTRY


# ---------------------------------------------------------------------------
# Prometheus text exposition (stdlib-only, classic 0.0.4 format)
# ---------------------------------------------------------------------------

#: The Content-Type ``GET /v1/metrics`` answers with.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_SAFE = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:")


def _sanitize_metric_name(name: str) -> str:
    safe = "".join(ch if ch in _NAME_SAFE else "_" for ch in name)
    if safe and safe[0].isdigit():
        safe = "_" + safe
    return safe


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _split_labeled(name: str) -> tuple[str, dict[str, str]]:
    """Fold the repo's flat instrument names into Prometheus labels.

    ``tenant.<t>.<instrument>`` becomes ``tenant_<instrument>{tenant="t"}``
    (matching how :func:`repro.bench.report.tenant_table` parses the same
    names) and ``http.route.<route>.<instrument>`` becomes
    ``http_route_<instrument>{route="<route>"}``; everything else keeps its
    dotted name, sanitized.
    """
    if name.startswith("tenant."):
        middle, _, instrument = name[len("tenant."):].rpartition(".")
        if middle:
            return f"tenant_{instrument}", {"tenant": middle}
    if name.startswith("http.route."):
        middle, _, instrument = name[len("http.route."):].rpartition(".")
        if middle:
            return f"http_route_{instrument}", {"route": middle}
    return name, {}


def _render_labels(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{key}="{_escape_label(str(value))}"' for key, value in labels.items())
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value)) if not float(value).is_integer() else str(int(value))


def prometheus_exposition(*snapshots: dict, prefix: str = "repro") -> str:
    """Render metrics snapshots as Prometheus classic text exposition.

    Takes one or more :meth:`MetricsRegistry.snapshot` dicts (later
    snapshots win on name collisions), renders counters with a ``_total``
    suffix, gauges plainly, and histograms as summaries (``quantile``
    labels plus ``_sum`` / ``_count``).  Histogram exemplars — the classic
    text format has no exemplar syntax — are emitted as ``# exemplar``
    comment lines next to their series, so the payload stays parseable by
    any 0.0.4 scraper while still linking p99s to trace ids.
    """
    counters: dict[str, float] = {}
    gauges: dict[str, float] = {}
    histograms: dict[str, dict] = {}
    for snapshot in snapshots:
        counters.update(snapshot.get("counters", {}))
        gauges.update(snapshot.get("gauges", {}))
        histograms.update(snapshot.get("histograms", {}))

    lines: list[str] = []

    def series_name(kind_suffix: str, raw_name: str) -> tuple[str, dict[str, str]]:
        base, labels = _split_labeled(raw_name)
        return f"{prefix}_{_sanitize_metric_name(base)}{kind_suffix}", labels

    for raw_name in sorted(counters):
        name, labels = series_name("_total", raw_name)
        lines.append(f"# TYPE {name} counter")
        lines.append(f"{name}{_render_labels(labels)} {_format_value(counters[raw_name])}")
    for raw_name in sorted(gauges):
        name, labels = series_name("", raw_name)
        lines.append(f"# TYPE {name} gauge")
        lines.append(f"{name}{_render_labels(labels)} {_format_value(gauges[raw_name])}")
    for raw_name in sorted(histograms):
        name, labels = series_name("", raw_name)
        stats = histograms[raw_name]
        lines.append(f"# TYPE {name} summary")
        for quantile, key in (("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99")):
            q_labels = dict(labels, quantile=quantile)
            lines.append(f"{name}{_render_labels(q_labels)} {_format_value(stats.get(key, 0.0))}")
        lines.append(f"{name}_sum{_render_labels(labels)} {_format_value(stats.get('sum', 0.0))}")
        lines.append(f"{name}_count{_render_labels(labels)} {_format_value(stats.get('count', 0))}")
        exemplar = stats.get("exemplar")
        if exemplar:
            tags = " ".join(
                f"{key}={value}" for key, value in exemplar.items() if key != "value"
            )
            lines.append(
                f"# exemplar {name}{_render_labels(dict(labels, quantile='0.99'))} {tags}"
            )
    return "\n".join(lines) + "\n"

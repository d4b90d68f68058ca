"""In-memory span recorder for the traced benchmark pass.

The harness records one span at each layer boundary *from outside* the
program — around the public call into the layer — so the program under test
is byte-identical in traced and untraced runs.  A span is ``{name, start,
end, parent, op_id}``; spans stay in memory and are written to
``perf/results/trace_<workload>.json`` when the run ends.

A layer's self time is its span's duration minus the durations of the spans
that name it as parent.  Children recorded the usual way nest inside their
parent's interval, so that is the textbook definition; a span may also be
attributed to an already-closed parent (``parent=``), which is how the
``serve_*`` workloads subtract a separately replayed in-process path from
the HTTP exchange that caused it.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from pathlib import Path


class Span:
    """One open span; closes (and records its end) on ``with`` exit."""

    __slots__ = ("_recorder", "id", "name", "start", "end", "parent", "op_id")

    def __init__(self, recorder: "SpanRecorder", name: str, parent: int | None, op_id: int) -> None:
        self._recorder = recorder
        self.id = len(recorder.spans)
        self.name = name
        self.parent = parent
        self.op_id = op_id
        self.end = 0.0
        recorder.spans.append(self)
        self.start = time.perf_counter()

    def __enter__(self) -> "Span":
        self._recorder._stack.append(self.id)
        return self

    def __exit__(self, *_exc) -> None:
        self.end = time.perf_counter()
        self._recorder._stack.pop()

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "op_id": self.op_id,
        }


class SpanRecorder:
    """Collects the spans and exact-repeat counts of one traced run.

    Single-threaded by design: the traced pass replays ops one at a time on
    the driver thread (the untraced pass is where concurrency is measured).
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._op_id = -1

    def op(self) -> Span:
        """Open the root span of the next op; nested spans share its op_id."""
        self._op_id += 1
        return Span(self, "op", None, self._op_id)

    def span(self, name: str, parent: Span | None = None) -> Span:
        """Open a span under ``parent`` (default: the innermost open span)."""
        if parent is not None:
            parent_id: int | None = parent.id
        else:
            parent_id = self._stack[-1] if self._stack else None
        return Span(self, name, parent_id, self._op_id)

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += int(amount)

    # ------------------------------------------------------------ reporting

    def self_times(self) -> list[dict[str, float]]:
        """Per op: ``{span name: summed self time in seconds}``."""
        child_time: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.duration
        ops: list[dict[str, float]] = [defaultdict(float) for _ in range(self._op_id + 1)]
        for span in self.spans:
            ops[span.op_id][span.name] += span.duration - child_time[span.id]
        return [dict(op) for op in ops]

    def op_durations(self) -> list[float]:
        return [span.duration for span in self.spans if span.parent is None]

    def layers(self) -> dict[str, dict]:
        """Per layer: spans recorded, median self time per op (ms), share of the op."""
        per_op = self.self_times()
        calls: dict[str, int] = defaultdict(int)
        for span in self.spans:
            calls[span.name] += 1
        medians = {
            name: statistics.median(op.get(name, 0.0) for op in per_op) * 1e3
            for name in calls
            if name != "op"
        }
        total = sum(medians.values())
        return {
            name: {
                "count": calls[name],
                "self_ms": medians[name],
                "share": medians[name] / total if total else 0.0,
            }
            for name in sorted(medians)
        }

    def covered_ms(self) -> float:
        """Median over ops of the time the named layers account for (ms)."""
        per_op = self.self_times()
        return statistics.median(
            sum(value for name, value in op.items() if name != "op") for op in per_op
        ) * 1e3

    def write(self, path: Path, extra: dict) -> None:
        document = dict(extra)
        document["counts"] = dict(self.counts)
        document["layers"] = self.layers()
        document["spans"] = [span.to_dict() for span in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document))

"""Measure one workload in this process: the untraced windows or the traced pass.

Untraced (end-to-end): three to nine timed set-ups (``setup_s`` is their
median), then ``WINDOWS`` back-to-back closed-loop windows, of which the
second best is reported (see ``second_best``).  Traced (per-layer): one
set-up, then a fixed number of one-client ops, alternately untraced (the
reference) and replayed layer by layer under spans.
"""

from __future__ import annotations

import gc
import os
import platform
import sqlite3
import statistics
import subprocess
import sys
import threading
import time
import traceback

import numpy
from repro.bench.loadgen import percentile

from checkout import RESULTS, ROOT
from spans import SpanRecorder
from workloads import Workload

WINDOWS = 6
#: Set-ups per run: at least MIN; cheap ones repeat (the first in a process
#: also pays lazy imports) until MAX or until BUDGET_S is spent on them.
SETUP_REPS_MIN = 3
SETUP_REPS_MAX = 9
SETUP_BUDGET_S = 2.0
WARMUP_OPS = 20
TRACED_WARMUP_OPS = 3
#: The traced pass alternates this many untraced and traced blocks of ops.
TRACED_BLOCKS = 8
#: Error messages kept per run (every failure is still counted).
ERRORS_KEPT = 5


def best_three(values: list[float], higher_is_better: bool) -> list[float]:
    ordered = sorted(values, reverse=higher_is_better)
    return (ordered + ordered[-1:] * 2)[:3]  # a smoke run can be shorter than three ops


def median_of(values: list[float]) -> dict:
    """Median of repeated set-ups, and how far apart the three quickest are."""
    best = best_three(values, False)
    middle = statistics.median(values)
    return {"value": middle, "windows": values, "spread": (best[2] - best[0]) / middle}


def second_best(values: list[float], higher_is_better: bool = False) -> dict:
    """The second-best window, and how far apart the three best windows are.

    On this shared sandbox a disturbance only ever makes a window worse, and
    it lasts seconds to tens of seconds: over ten runs the median of the
    windows moved with it while the better windows did not (the measured
    spreads are in README.md).  The single best window is not used — it
    rewards one lucky stretch.
    """
    best = best_three(values, higher_is_better)
    return {"value": best[1], "windows": values, "spread": abs(best[2] - best[0]) / best[1]}


class Tally:
    """Attempted / failed ops of one run, with the first few error messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._lock = threading.Lock()

    def verify(self, workload: Workload, item, output) -> bool:
        """Check one op's output; an op that raised, or whose check raises, failed."""
        message = ""
        if isinstance(output, Exception):
            message = "".join(traceback.format_exception(output)).strip()
        else:
            try:
                if not workload.check(item, output):
                    message = "output differs from the reference simulator"
            except Exception:  # noqa: BLE001 — a malformed output is a failed op, not a crash
                message = traceback.format_exc().strip()
        with self._lock:
            self.attempted += 1
            if message:
                self.failed += 1
                if len(self.errors) < ERRORS_KEPT:
                    self.errors.append(message)
        return not message


def timed_op(workload: Workload, item, client: int):
    """Run one op; returns (latency in seconds, output or the exception it raised)."""
    started = time.perf_counter()
    try:
        output = workload.op(item, client)
    except Exception as exc:  # noqa: BLE001 — counted as a failed op by Tally.verify
        output = exc
    return time.perf_counter() - started, output


def timed_setup(workload: Workload, streams: list, tally: Tally) -> float:
    """``setup_s``: construct, compile and run the warm-up ops, from cold."""
    workload.teardown()
    gc.collect()
    started = time.perf_counter()
    workload.setup()
    outputs = []
    for _ in range(WARMUP_OPS):
        item = next(streams[0])
        outputs.append((item, timed_op(workload, item, 0)[1]))
    elapsed = time.perf_counter() - started
    for item, output in outputs:
        tally.verify(workload, item, output)
    return elapsed


def settle(workload: Workload, stream, tally: Tally) -> None:
    """Untimed ops until the workload is in the state it is meant to be measured in."""
    while not workload.settled():
        item = next(stream)
        tally.verify(workload, item, timed_op(workload, item, 0)[1])


def closed_loop(workload: Workload, streams: list, seconds: float, tally: Tally) -> list[tuple]:
    """Every client sends its next op when its last one completed, for ``seconds``.

    Returns ``(completion time, latency, verified)`` per op in completion order.
    """
    gc.collect()
    if workload.clients == 1:
        # Outputs are checked between ops, outside the timed region, so a
        # dense state is never kept.
        done = []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            item = next(streams[0])
            latency, output = timed_op(workload, item, 0)
            done.append((time.perf_counter(), latency, tally.verify(workload, item, output)))
        return done
    # Checks wait until the loop is over, so a client has no think time.
    per_client: list[list] = [[] for _ in range(workload.clients)]
    barrier = threading.Barrier(workload.clients)

    def client_loop(client: int) -> None:
        barrier.wait()
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            item = next(streams[client])
            latency, output = timed_op(workload, item, client)
            per_client[client].append((time.perf_counter(), latency, item, output))

    threads = [
        threading.Thread(target=client_loop, args=(client,)) for client in range(workload.clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return sorted(
        (finished, latency, tally.verify(workload, item, output))
        for entries in per_client
        for finished, latency, item, output in entries
    )


def windows_of(done: list[tuple], clients: int) -> list[dict]:
    """Cut a run into a ramp plus ``WINDOWS`` back-to-back windows of equally many ops.

    The ramp (the first slice, not reported) is where the closed loop finds
    its rhythm: the two HTTP clients start in step and take a second or two
    to fall into their steady interleaving, during which jobs complete
    faster than they ever do again.

    With no think time every client is always inside an op, so a window's
    wall time is the summed latency / clients; for the one-client workloads
    this leaves the untimed output checks out of the throughput.
    """
    count = min(WINDOWS + 1, len(done))
    windows = []
    for index in range(count):
        part = done[index * len(done) // count:(index + 1) * len(done) // count]
        latencies = [latency for _finished, latency, _verified in part]
        verified = sum(verified for _finished, _latency, verified in part)
        windows.append({
            "ops_per_s": clients * verified / sum(latencies),
            "latency_p50_ms": statistics.median(latencies) * 1e3,
            "latency_p95_ms": percentile(latencies, 0.95) * 1e3,
            "samples": len(latencies),
        })
    return windows[1:] or windows


def measure_end_to_end(workload: Workload, seconds: float, smoke: bool) -> dict:
    """The untraced run: every end-to-end metric of one workload (one set-up in a smoke run)."""
    tally = Tally()
    streams = [workload.items(client) for client in range(workload.clients)]
    try:
        setups = [timed_setup(workload, streams, tally)]
        while not smoke and (
            len(setups) < SETUP_REPS_MIN
            or (len(setups) < SETUP_REPS_MAX and sum(setups) < SETUP_BUDGET_S)
        ):
            setups.append(timed_setup(workload, streams, tally))
        settle(workload, streams[0], tally)
        windows = windows_of(closed_loop(workload, streams, seconds, tally), workload.clients)
    finally:
        # Also what makes a server child report its peak memory.
        workload.teardown()
    metrics = {"setup_s": median_of(setups)}
    for name in ("ops_per_s", "latency_p50_ms", "latency_p95_ms"):
        metrics[name] = second_best([window[name] for window in windows], name == "ops_per_s")
    metrics["latency_p95_ms"]["samples"] = [window["samples"] for window in windows]
    metrics["peak_rss_mb"] = {"value": workload.peak_rss_mb(), "spread": 0.0}
    return finish(tally, metrics)


def measure_layers(workload: Workload, seconds: float) -> dict:
    """The traced run: every per-layer metric of one workload.

    Untraced and traced ops alternate in blocks, so a slow stretch of the
    machine falls on both sides of ``trace.overhead_frac``; the exact
    counters are read around the traced blocks only.
    """
    tally = Tally()
    stream = workload.items(0)
    block = max(1, round(workload.traced_ops_per_s * seconds / 2 / TRACED_BLOCKS))
    spans = SpanRecorder()
    untraced: list[float] = []
    counts: dict[str, int] = {}

    def replay(recorder: SpanRecorder) -> None:
        item = next(stream)
        try:
            output = workload.traced_op(item, recorder)
        except Exception as exc:  # noqa: BLE001 — counted as a failed op
            output = exc
        tally.verify(workload, item, output)

    try:
        timed_setup(workload, [stream], tally)
        settle(workload, stream, tally)
        warmup = SpanRecorder()
        for _ in range(TRACED_WARMUP_OPS):
            replay(warmup)
        for _ in range(TRACED_BLOCKS):
            gc.collect()
            for _ in range(block):
                item = next(stream)
                latency, output = timed_op(workload, item, 0)
                untraced.append(latency)
                tally.verify(workload, item, output)
            before = workload.counters()
            for _ in range(block):
                replay(spans)
            for name, value in workload.counters().items():
                counts[name] = counts.get(name, 0) + value - before[name]
    finally:
        workload.teardown()
    untraced_p50_ms = statistics.median(untraced) * 1e3
    traced_p50_ms = statistics.median(spans.op_durations()) * 1e3
    counts.update(spans.counts)
    record = finish(tally, {})
    record.update(
        ops=block * TRACED_BLOCKS,
        untraced_p50_ms=untraced_p50_ms,
        traced_p50_ms=traced_p50_ms,
        layers=spans.layers(),
        counts=counts,
        coverage=spans.covered_ms() / untraced_p50_ms,
        overhead_frac=traced_p50_ms / untraced_p50_ms - 1.0,
    )
    RESULTS.mkdir(exist_ok=True)
    spans.write(
        RESULTS / f"trace_{workload.name}.json",
        {"workload": workload.name, "seed": workload.seed, "ops": record["ops"]},
    )
    return record


def finish(tally: Tally, metrics: dict) -> dict:
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_frac": tally.failed / tally.attempted if tally.attempted else 0.0,
        "errors": tally.errors,
        "metrics": metrics,
    }


def fingerprint() -> dict:
    """Where and on what the numbers were taken."""
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10.0, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "cores": os.cpu_count(),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "sqlite": sqlite3.sqlite_version,
        "repro_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")},
        "git_commit": commit,
    }

"""Tracing overhead gates: observability must be (near) free when off.

The tracer's design contract (see ``repro/obs/tracing.py``) is priced here
on the plan-cache benchmark workload — the paper's hot query, a warm-cache
CTE chain of join-aggregate gate steps:

* **baseline** — the untraced execution body called directly, bypassing
  even the ``tracer is None`` branch in ``MemDatabase.execute``;
* **disabled** — the public ``execute`` with tracing off: the branch is the
  only addition, so this must stay within **2%** of baseline (plus a small
  absolute slack: at microsecond scale a ratio alone is all noise);
* **enabled** — a full tracer with ring buffer, metrics registry and slow
  log: span trees for every stage/block/operator must cost at most **10%**
  over the disabled path on this workload.

Timings are best-of-N round minima: the minimum over many identical rounds
estimates the noise floor, which is the right statistic for a ratio gate
(means smear scheduler hiccups into false failures).
"""

import gc
import time

from repro.backends.memdb.engine import MemDatabase, PlanCache
from repro.circuits import qaoa_maxcut_circuit, ring_graph
from repro.obs import MetricsRegistry, SlowQueryLog, TraceRingBuffer, Tracer
from repro.sql.translator import translate_circuit

from conftest import emit

_NUM_NODES = 6
_QUERIES_PER_ROUND = 5
_ROUNDS = 40
#: Absolute per-round noise floor subtracted before the ratio gates.  Two
#: paths doing *identical* work still differ by a run-level percent or two:
#: each interpreter start lays code and dicts out differently (ASLR, hash
#: seeds), and that bias survives medians and minima alike because it is
#: constant within a run.  300us on a ~15ms round (~2%) covers the layout
#: bias plus timer resolution; a real regression of one extra millisecond
#: per round still trips either gate unambiguously.
_ABS_SLACK_S = 3e-4
_DISABLED_OVERHEAD_LIMIT = 0.02
_ENABLED_OVERHEAD_LIMIT = 0.10


def _warm_database(tracer: Tracer | None) -> tuple[MemDatabase, str]:
    database = MemDatabase(plan_cache=PlanCache(maxsize=64), tracer=tracer)
    circuit = qaoa_maxcut_circuit(
        _NUM_NODES, edges=ring_graph(_NUM_NODES), p=1, gammas=[0.45], betas=[0.6]
    )
    translation = translate_circuit(circuit, dialect="memdb")
    for statement in translation.setup_statements():
        database.execute(statement)
    query = translation.cte_query(pretty=False)
    database.execute(query)  # compile once: every timed run is a cache hit
    return database, query


def _paired_rounds(runs: list, rounds_count: int = _ROUNDS, per_round: int = _QUERIES_PER_ROUND) -> list[list[float]]:
    """Per-round times for every configuration, rounds interleaved.

    Interleaving matters: host speed drifts over seconds (frequency
    scaling, noisy neighbours), so timing each configuration in its own
    contiguous block hands whichever ran during the fast phase an unearned
    win.  Round-robin rounds give each round one measurement per
    configuration under (nearly) the same machine conditions, so the
    *paired ratio* within a round cancels the drift that absolute times
    cannot.

    The in-round order also rotates every round: each configuration leaves the
    caches in its own state, and with a fixed order that pollution is
    always billed to the same successor — measured at 2-3 points of pure
    position bias on this workload.  Rotation spreads it evenly, so the
    paired ratios compare like with like.
    """
    rounds: list[list[float]] = []
    # The cyclic collector is paused while timing (standard ratio-benchmark
    # hygiene): a gen-2 collection is a multi-millisecond pause billed to
    # whichever configuration happens to trip the allocation threshold,
    # which at a 2% gate is pure noise.  Span trees are refcount-freed
    # (spans drop their parent backref on exit), so no trace garbage
    # accumulates while the collector is off.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for round_index in range(rounds_count):
            times = [0.0] * len(runs)
            offset = round_index % len(runs)
            for position in range(len(runs)):
                index = (position + offset) % len(runs)
                run = runs[index]
                started = time.perf_counter()
                for _ in range(per_round):
                    run()
                times[index] = time.perf_counter() - started
            rounds.append(times)
    finally:
        if gc_was_enabled:
            gc.enable()
    return rounds


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def test_observability_overhead_gates(results_dir):
    baseline_db, query = _warm_database(tracer=None)
    disabled_db, _ = _warm_database(tracer=None)
    tracer = Tracer(
        registry=MetricsRegistry(),
        ring=TraceRingBuffer(64),
        slow_log=SlowQueryLog(threshold_s=10.0),
    )
    enabled_db, _ = _warm_database(tracer=tracer)

    rounds = _paired_rounds(
        [
            lambda: baseline_db._execute_script(query),
            lambda: disabled_db.execute(query),
            lambda: enabled_db.execute(query),
        ]
    )
    baseline_s = min(times[0] for times in rounds)
    disabled_s = min(times[1] for times in rounds)
    enabled_s = min(times[2] for times in rounds)
    # The gated statistic: the median of within-round ratios.  A round's
    # three measurements run back to back under the same machine conditions,
    # so the ratio cancels drift; the median ignores outlier rounds.  An
    # absolute slack floor keeps timer resolution out of the ratio.
    disabled_overhead = _median(
        [(times[1] - _ABS_SLACK_S) / times[0] for times in rounds]
    ) - 1.0
    enabled_overhead = _median(
        [(times[2] - _ABS_SLACK_S) / times[1] for times in rounds]
    ) - 1.0
    emit(
        "observability overhead (median of %d paired rounds x %d queries)"
        % (_ROUNDS, _QUERIES_PER_ROUND),
        "\n".join(
            [
                f"baseline (no branch):  {baseline_s * 1e3:9.3f} ms/round best",
                f"tracing disabled:      {disabled_s * 1e3:9.3f} ms/round best  "
                f"({disabled_overhead:+.2%} vs baseline, gate {_DISABLED_OVERHEAD_LIMIT:.0%})",
                f"tracing enabled:       {enabled_s * 1e3:9.3f} ms/round best  "
                f"({enabled_overhead:+.2%} vs disabled, gate {_ENABLED_OVERHEAD_LIMIT:.0%})",
            ]
        ),
    )

    assert tracer.traces >= _ROUNDS * _QUERIES_PER_ROUND, "the enabled engine never traced"
    assert disabled_overhead <= _DISABLED_OVERHEAD_LIMIT, (
        f"disabled-mode tracing costs {disabled_overhead:+.2%} over baseline "
        f"(gate: {_DISABLED_OVERHEAD_LIMIT:.0%})"
    )
    assert enabled_overhead <= _ENABLED_OVERHEAD_LIMIT, (
        f"enabled-mode tracing costs {enabled_overhead:+.2%} over the disabled path "
        f"(gate: {_ENABLED_OVERHEAD_LIMIT:.0%})"
    )


#: Serving-path gate: end-to-end HTTP submit+wait with full request tracing
#: (sample_rate=1.0, every span recorded and sealed) must cost at most 5%
#: over the identical stack with tracing off.  Fewer rounds than the engine
#: gate — each round is several full HTTP round trips, so the per-round
#: time is milliseconds and the paired ratio is already stable.
_SERVING_ROUNDS = 10
_SERVING_JOBS_PER_ROUND = 3
_SERVING_OVERHEAD_LIMIT = 0.05


def test_serving_tracing_overhead_gate(results_dir):
    """Sampled request tracing adds <= 5% p50 to HTTP submit+wait latency."""
    from repro.bench.loadgen import ServingClient
    from repro.circuits import ghz_circuit
    from repro.service.server import ServerThread, TenantQuota, build_server

    circuit = ghz_circuit(3)
    untraced = build_server(max_workers=2, tracing=False)
    traced = build_server(
        max_workers=2,
        tracing=True,
        default_quota=TenantQuota(sample_rate=1.0),
        slow_threshold_s=60.0,
    )
    try:
        with ServerThread(untraced) as (host_u, port_u), ServerThread(traced) as (host_t, port_t):
            clients = [ServingClient(host_u, port_u), ServingClient(host_t, port_t)]

            def make_run(client: ServingClient):
                def run() -> None:
                    status, body = client.submit(circuit, method="memdb", tenant="bench")
                    assert status == 202, body
                    final = client.wait(body["job_id"], timeout=60.0, interval=0.002)
                    assert final.get("status") == "done", final
                return run

            runs = [make_run(client) for client in clients]
            for run in runs:  # warm engines, plan caches, HTTP path
                for _ in range(3):
                    run()
            rounds = _paired_rounds(
                runs, rounds_count=_SERVING_ROUNDS, per_round=_SERVING_JOBS_PER_ROUND
            )
        untraced_s = _median([times[0] for times in rounds])
        traced_s = _median([times[1] for times in rounds])
        overhead = _median(
            [(times[1] - _ABS_SLACK_S) / times[0] for times in rounds]
        ) - 1.0
        store = traced.service.tracer.request_store
        store_stats = store.stats()
        emit(
            "serving-path tracing overhead (median of %d paired rounds x %d jobs)"
            % (_SERVING_ROUNDS, _SERVING_JOBS_PER_ROUND),
            "\n".join(
                [
                    f"untraced submit+wait:  {untraced_s * 1e3:9.3f} ms/round median",
                    f"traced submit+wait:    {traced_s * 1e3:9.3f} ms/round median  "
                    f"({overhead:+.2%} vs untraced, gate {_SERVING_OVERHEAD_LIMIT:.0%})",
                    f"traces retained:       {store_stats['retained']}",
                ]
            ),
        )
        expected = 3 + _SERVING_ROUNDS * _SERVING_JOBS_PER_ROUND
        assert store_stats["retained"] >= expected, (
            f"traced server retained {store_stats['retained']} traces, "
            f"expected at least {expected} — the traced side never actually traced"
        )
        assert overhead <= _SERVING_OVERHEAD_LIMIT, (
            f"request tracing costs {overhead:+.2%} on HTTP submit+wait "
            f"(gate: {_SERVING_OVERHEAD_LIMIT:.0%})"
        )
    finally:
        traced.service.shutdown(wait=False)
        untraced.service.shutdown(wait=False)

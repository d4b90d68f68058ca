"""Plan-cache micro-benchmark: cold parse/plan vs cached-plan execution.

The memdb engine memoizes compiled physical plans in an LRU cache keyed by
SQL text.  This harness isolates that effect on the paper's hot query — the
full per-circuit CTE chain of join-aggregate gate steps:

* **cold** — the plan cache is disabled (``PlanCache(0)``), so every
  execution pays tokenize → parse → plan before running;
* **cached** — the same query text hits a warm cache and only re-binds the
  compiled operators against the current tables.

The cached chain must beat the cold one by at least 2x, and a second
experiment times the end-to-end parameter sweep with and without plan
reuse; the paper's repeated-structure sweeps must gain at least 2x too.
"""

import time

from repro.backends import MemDBBackend, SQLiteBackend
from repro.backends.memdb.engine import MemDatabase, PlanCache
from repro.bench import ParameterSweep, grid, qaoa_sweep_family
from repro.circuits import qaoa_maxcut_circuit, ring_graph
from repro.output.analysis import states_agree
from repro.sql.translator import translate_circuit

from conftest import emit

_NUM_NODES = 6


def _translation():
    circuit = qaoa_maxcut_circuit(
        _NUM_NODES, edges=ring_graph(_NUM_NODES), p=1, gammas=[0.45], betas=[0.6]
    )
    return translate_circuit(circuit, dialect="memdb")


def _database_with_state(plan_cache: PlanCache) -> tuple[MemDatabase, str]:
    database = MemDatabase(plan_cache=plan_cache)
    translation = _translation()
    for statement in translation.setup_statements():
        database.execute(statement)
    return database, translation.cte_query(pretty=False)


def test_cold_parse_latency(benchmark):
    """Every iteration re-parses and re-plans the whole CTE chain."""
    database, query = _database_with_state(PlanCache(0))
    benchmark.group = "plan-cache-cte-query"
    rows = benchmark(lambda: database.execute(query).rows)
    assert len(rows) > 1


def test_cached_plan_latency(benchmark):
    """Warm cache: execution re-binds the compiled plan, no parsing."""
    cache = PlanCache()
    database, query = _database_with_state(cache)
    database.execute(query)  # compile once
    benchmark.group = "plan-cache-cte-query"
    rows = benchmark(lambda: database.execute(query).rows)
    assert len(rows) > 1
    assert cache.stats()["hits"] > 0


def _best_of(callable_, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - started)
    return best


def test_cached_chain_beats_cold_compile(results_dir):
    """Warm cached plans must beat cache-disabled execution >= 2x on the chain."""
    cold, query = _database_with_state(PlanCache(0))
    warm, _query = _database_with_state(PlanCache())
    warm.execute(query)  # compile once
    cold_seconds = _best_of(lambda: cold.execute(query), repeats=5)
    warm_seconds = _best_of(lambda: warm.execute(query), repeats=5)
    speedup = cold_seconds / warm_seconds
    body = (
        f"Gate CTE chain (QAOA ring, {_NUM_NODES} qubits)\n"
        f"  cold (parse+rewrite+plan each run): {cold_seconds * 1000:8.2f} ms\n"
        f"  warm (cached plan, re-bound):       {warm_seconds * 1000:8.2f} ms\n"
        f"  speedup:                            {speedup:8.2f}x"
    )
    emit("Plan cache — cached chain vs cold compile", body)
    (results_dir / "plan_cache_chain.txt").write_text(body)
    assert speedup >= 2.0, f"plan caching degraded below 2x: {speedup:.2f}x"


def test_sweep_plan_reuse_speedup(results_dir):
    """Repeated-structure sweep: cached plans must give >= 2x end to end."""
    family = qaoa_sweep_family(_NUM_NODES)
    points = grid({"gamma": [0.2, 0.4, 0.6, 0.8], "beta": [0.4, 0.8, 1.2, 1.5]})

    cold_sweep = ParameterSweep(family, method_factory=lambda: MemDBBackend(plan_cache=PlanCache(0)))
    warm_cache = PlanCache()  # shared across factory calls, unlike a per-backend PlanCache()
    warm_sweep = ParameterSweep(family, method_factory=lambda: MemDBBackend(plan_cache=warm_cache))
    warm_sweep.run(points[:1])  # compile the family's plans once

    started = time.perf_counter()
    cold_results = cold_sweep.run(points)
    cold_seconds = time.perf_counter() - started

    started = time.perf_counter()
    warm_results = warm_sweep.run(points)
    warm_seconds = time.perf_counter() - started

    assert all(result.status == "ok" for result in cold_results + warm_results)
    speedup = cold_seconds / warm_seconds

    # Amplitude parity against SQLite at one representative point.
    circuit = family(points[0])
    memdb_state = MemDBBackend().run(circuit).state
    sqlite_state = SQLiteBackend().run(circuit).state
    assert states_agree(memdb_state, sqlite_state, atol=1e-9, up_to_global_phase=False)

    body = (
        f"16-point QAOA ring sweep ({_NUM_NODES} nodes, memdb backend)\n"
        f"  cold (plan cache disabled): {cold_seconds * 1000:8.1f} ms\n"
        f"  warm (cached plans):        {warm_seconds * 1000:8.1f} ms\n"
        f"  speedup:                    {speedup:8.1f}x"
    )
    emit("Plan-cache ablation — cold parse vs cached plans", body)
    (results_dir / "plan_cache_ablation.txt").write_text(body)

    assert speedup >= 2.0, f"expected >= 2x from plan caching, got {speedup:.2f}x"

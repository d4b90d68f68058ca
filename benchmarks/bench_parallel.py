"""Morsel-driven parallel execution benchmark: speedup and parity gates.

Two experiments over the parallel subsystem (`backends/memdb/parallel/`):

* **large join+aggregate speedup** — the paper's hot shape (probe-heavy
  equi-join feeding grouped SUMs) over a multi-million-row fact table,
  executed by a 4-worker parallel engine versus a serial engine.  Rows must
  be *byte-identical*; with at least 4 CPU cores the parallel engine must
  win >= 2x (the executor's numpy kernels release the GIL, so threads scale
  across cores).  On smaller hosts the timing is still reported but the
  speedup gate is skipped — threads cannot beat physics.
* **small-table parity** — the same query shape at a size where the costed
  :class:`~repro.backends.memdb.optimizer.cost.ParallelDecision` must choose
  serial execution: the parallel-enabled engine may not lose more than 10%
  (>= 0.9x) against the plain serial engine, proving the cost gate keeps
  scheduling overhead away from small inputs.
"""

import os
import time

import numpy as np
import pytest

from repro.backends.memdb.engine import MemDatabase, PlanCache
from repro.backends.memdb.parallel import WorkerPool

from conftest import emit

#: Workers the speedup experiment plans for (the acceptance-gate setting).
WORKERS = 4

_FACT_ROWS = 2_000_000
_DIM_ROWS = 4_096
_SMALL_FACT_ROWS = 2_000

_JOIN_AGG_QUERY = (
    "SELECT f.g AS g, SUM(f.v * d.w) AS s, COUNT(*) AS n "
    "FROM f JOIN d ON f.k = d.id GROUP BY f.g"
)


def _effective_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _load(db: MemDatabase, fact_rows: int, seed: int = 42) -> None:
    rng = np.random.default_rng(seed)
    db.load_table(
        "f",
        {
            "id": np.arange(fact_rows, dtype=np.int64),
            "k": rng.integers(0, _DIM_ROWS, fact_rows),
            "g": rng.integers(0, 64, fact_rows),
            "v": np.round(rng.normal(size=fact_rows), 4),
        },
    )
    db.load_table(
        "d",
        {
            "id": np.arange(_DIM_ROWS, dtype=np.int64),
            "w": np.round(np.linspace(-1.0, 1.0, _DIM_ROWS), 4),
        },
    )
    # NDV statistics make the UES join bound tight (unique dim keys), so the
    # parallel decision reflects the real probe size, not a loose bound.
    db.execute("ANALYZE")


def _engines(fact_rows: int):
    pool = WorkerPool(WORKERS)
    parallel = MemDatabase(
        plan_cache=PlanCache(maxsize=8),
        enable_parallel=True,
        parallel_workers=WORKERS,
        worker_pool=pool,
    )
    serial = MemDatabase(plan_cache=PlanCache(maxsize=8), enable_parallel=False)
    _load(parallel, fact_rows)
    _load(serial, fact_rows)
    return parallel, serial, pool


def _timeit(callable_, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - started)
    return best


def test_parallel_join_aggregate_speedup(results_dir):
    """Byte-identical results always; >= 2x with 4 workers on >= 4 cores."""
    parallel, serial, pool = _engines(_FACT_ROWS)
    try:
        expected = serial.execute(_JOIN_AGG_QUERY).rows
        actual = parallel.execute(_JOIN_AGG_QUERY).rows
        assert actual == expected, "parallel join+aggregate diverged from serial"

        plan = "\n".join(
            row[0] for row in parallel.execute(f"EXPLAIN {_JOIN_AGG_QUERY}").rows
        )
        assert f"morsel-parallel ({WORKERS} workers)" in plan

        parallel_time = _timeit(lambda: parallel.execute(_JOIN_AGG_QUERY), repeats=3)
        serial_time = _timeit(lambda: serial.execute(_JOIN_AGG_QUERY), repeats=3)
        speedup = serial_time / parallel_time
        cpus = _effective_cpus()

        emit(
            f"morsel-parallel join+aggregate ({_FACT_ROWS:,} x {_DIM_ROWS:,} rows, {WORKERS} workers)",
            f"serial:   {serial_time * 1000:8.2f} ms\n"
            f"parallel: {parallel_time * 1000:8.2f} ms\n"
            f"speedup:  {speedup:8.2f}x on {cpus} CPU core(s)",
        )
        (results_dir / "parallel_join_aggregate.txt").write_text(
            f"serial_ms={serial_time * 1000:.3f}\nparallel_ms={parallel_time * 1000:.3f}\n"
            f"speedup={speedup:.2f}\ncpus={cpus}\nworkers={WORKERS}\n"
        )

        if cpus < WORKERS:
            pytest.skip(
                f"speedup gate needs >= {WORKERS} CPU cores (host has {cpus}); "
                f"results verified byte-identical, measured {speedup:.2f}x"
            )
        assert speedup >= 2.0, f"expected >= 2x with {WORKERS} workers, got {speedup:.2f}x"
    finally:
        pool.shutdown()


def test_parallel_parity_on_small_tables(results_dir):
    """The cost gate must keep small inputs serial: >= 0.9x parity."""
    parallel, serial, pool = _engines(_SMALL_FACT_ROWS)
    try:
        expected = serial.execute(_JOIN_AGG_QUERY).rows
        assert parallel.execute(_JOIN_AGG_QUERY).rows == expected

        plan = "\n".join(
            row[0] for row in parallel.execute(f"EXPLAIN {_JOIN_AGG_QUERY}").rows
        )
        assert "serial [cost" in plan, f"cost gate failed to choose serial:\n{plan}"

        parallel_time = _timeit(lambda: parallel.execute(_JOIN_AGG_QUERY), repeats=20)
        serial_time = _timeit(lambda: serial.execute(_JOIN_AGG_QUERY), repeats=20)
        ratio = serial_time / parallel_time

        emit(
            f"small-table parity ({_SMALL_FACT_ROWS:,} rows: cost model must stay serial)",
            f"serial engine:           {serial_time * 1000:8.3f} ms\n"
            f"parallel-enabled engine: {parallel_time * 1000:8.3f} ms\n"
            f"ratio:                   {ratio:8.2f}x (gate >= 0.9x)",
        )
        (results_dir / "parallel_parity.txt").write_text(
            f"serial_ms={serial_time * 1000:.3f}\nparallel_ms={parallel_time * 1000:.3f}\n"
            f"ratio={ratio:.2f}\n"
        )
        assert ratio >= 0.9, f"parallel-enabled engine lost more than 10% on small inputs: {ratio:.2f}x"
    finally:
        pool.shutdown()

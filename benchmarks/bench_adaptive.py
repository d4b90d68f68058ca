"""Adaptive optimizer benchmark: top-k pushdown and re-planning wins.

Two experiments over the PR's optimizer additions:

* **top-k pushdown** — ``ORDER BY ... LIMIT k`` over a large skewed column:
  the bounded partition pass of ``order_vectors(..., prefix=k)`` versus the
  stable full sort (``prefix=None``) then slice.  The partition pass must
  win >= 3x with identical rows, and the engine's cost model must pick it
  for the query.
* **adaptive re-plan on a distribution shift** — a query planned while the
  table holds a handful of rows (the cost model correctly picks a full
  sort), after which a bulk INSERT grows the table ~4 orders of magnitude.
  The adaptive engine notices the estimated-vs-actual blow-up on the first
  post-shift execution, flags the cached plan, and every later execution
  runs the re-planned top-k operator; the engine with feedback disabled
  keeps re-binding the stale full-sort plan.  Total post-shift time must
  favour the adaptive engine.
"""

import time

import numpy as np

from repro.backends.memdb.engine import MemDatabase, PlanCache
from repro.backends.memdb.executor import order_vectors
from repro.backends.memdb.parser import parse_one

from conftest import emit


def _timeit(callable_, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - started)
    return best


# ---------------------------------------------------------------------------
# Experiment 1: top-k operator vs sort-then-slice
# ---------------------------------------------------------------------------

_TOPK_ROWS = 400_000
_TOPK_QUERY = "SELECT t.id, t.v FROM t ORDER BY t.v LIMIT 10"


def test_topk_speedup_over_sort_then_slice(results_dir):
    """The acceptance gate: >= 3x on ORDER BY ... LIMIT, identical rows."""
    ids = np.arange(_TOPK_ROWS, dtype=np.int64)
    rng = np.random.default_rng(42)
    # Heavy skew: most mass near zero, a long tail, plenty of exact ties.
    values = np.round(rng.zipf(1.3, size=_TOPK_ROWS).astype(np.float64) / 4.0, 2)
    frame = {"t.id": ids, "t.v": values}
    order_by = parse_one(_TOPK_QUERY).order_by

    def ordered(prefix):
        return order_vectors([ids, values], order_by, _TOPK_ROWS, frame, prefix=prefix)

    expected = list(zip(*(column[:10].tolist() for column in ordered(None))))
    actual = list(zip(*(column.tolist() for column in ordered(10))))
    assert actual == expected and len(actual) == 10

    db = MemDatabase(plan_cache=PlanCache())
    db.load_table("t", {"id": ids, "v": values})
    explain = "\n".join(row[0] for row in db.execute(f"EXPLAIN {_TOPK_QUERY}").rows)
    assert "top-k (k=10)" in explain
    assert db.execute(_TOPK_QUERY).rows == expected

    topk_time = _timeit(lambda: ordered(10), repeats=5)
    sort_time = _timeit(lambda: ordered(None), repeats=5)
    speedup = sort_time / topk_time

    emit(
        "top-k pushdown (ORDER BY ... LIMIT 10, 400k skewed rows)",
        f"sort-then-slice: {sort_time * 1000:8.2f} ms\n"
        f"top-k operator:  {topk_time * 1000:8.2f} ms\n"
        f"speedup:         {speedup:8.2f}x",
    )
    (results_dir / "adaptive_topk.txt").write_text(
        f"sort_ms={sort_time * 1000:.3f}\ntopk_ms={topk_time * 1000:.3f}\nspeedup={speedup:.2f}\n"
    )
    assert speedup >= 3.0, f"expected >= 3x from top-k pushdown, got {speedup:.2f}x"


# ---------------------------------------------------------------------------
# Experiment 2: adaptive re-plan vs stale plan on a distribution shift
# ---------------------------------------------------------------------------

_SHIFT_SEED_ROWS = 20
_SHIFT_BULK_ROWS = 250_000
_SHIFT_EXECUTIONS = 8
_SHIFT_QUERY = "SELECT f.x, f.y FROM f ORDER BY f.y LIMIT 10"


def _shift_database(enable_adaptive: bool) -> MemDatabase:
    db = MemDatabase(plan_cache=PlanCache(), enable_adaptive=enable_adaptive)
    db.execute("CREATE TABLE f (x BIGINT NOT NULL, y DOUBLE NOT NULL)")
    rows = ", ".join(f"({i % 5}, {i}.0)" for i in range(_SHIFT_SEED_ROWS))
    db.execute(f"INSERT INTO f (x, y) VALUES {rows}")
    # Plan (and cache) the query against the tiny table: sort wins at n=20.
    db.execute(_SHIFT_QUERY)
    # The shift: the table grows by four orders of magnitude.
    chunk = 25_000
    for start in range(0, _SHIFT_BULK_ROWS, chunk):
        rows = ", ".join(
            f"({i % 7}, {i % 9973}.5)" for i in range(start, start + chunk)
        )
        db.execute(f"INSERT INTO f (x, y) VALUES {rows}")
    return db


def _post_shift_seconds(db: MemDatabase) -> tuple[float, list]:
    rows = None
    started = time.perf_counter()
    for _ in range(_SHIFT_EXECUTIONS):
        rows = db.execute(_SHIFT_QUERY).rows
    return time.perf_counter() - started, rows


def test_adaptive_replan_beats_stale_plan(results_dir):
    """Post-shift executions: adaptive re-plan must beat the pinned stale plan."""
    adaptive = _shift_database(enable_adaptive=True)
    pinned = _shift_database(enable_adaptive=False)

    adaptive_seconds, adaptive_rows = _post_shift_seconds(adaptive)
    pinned_seconds, pinned_rows = _post_shift_seconds(pinned)
    assert adaptive_rows == pinned_rows and len(adaptive_rows) == 10

    stats = adaptive.engine_stats()["adaptive"]
    assert stats["replans"] >= 1, "adaptive engine never re-planned"
    assert adaptive.plan_cache.stats()["replans"] >= 1
    assert pinned.engine_stats()["adaptive"]["replans"] == 0

    ratio = pinned_seconds / adaptive_seconds
    emit(
        f"adaptive re-plan on a distribution shift ({_SHIFT_EXECUTIONS} post-shift executions)",
        f"stale plan (feedback off): {pinned_seconds * 1000:8.2f} ms\n"
        f"adaptive re-plan:          {adaptive_seconds * 1000:8.2f} ms\n"
        f"speedup:                   {ratio:8.2f}x\n"
        f"replans: {stats['replans']}, corrections: {stats['corrections']}",
    )
    (results_dir / "adaptive_replan.txt").write_text(
        f"stale_ms={pinned_seconds * 1000:.3f}\nadaptive_ms={adaptive_seconds * 1000:.3f}\n"
        f"speedup={ratio:.2f}\nreplans={stats['replans']}\n"
    )
    assert ratio >= 1.5, f"adaptive re-plan should beat the stale plan, got {ratio:.2f}x"

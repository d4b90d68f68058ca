"""Top-k pushdown benchmark.

``ORDER BY ... LIMIT k`` over a large skewed column: the bounded partition
pass of ``order_vectors(..., prefix=k)`` versus the stable full sort
(``prefix=None``) then slice.  The partition pass must win >= 3x with
identical rows, and the engine's cost model must pick it for the query.
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
# Top-k operator vs sort-then-slice
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
    (results_dir / "topk.txt").write_text(
        f"sort_ms={sort_time * 1000:.3f}\ntopk_ms={topk_time * 1000:.3f}\nspeedup={speedup:.2f}\n"
    )
    assert speedup >= 3.0, f"expected >= 3x from top-k pushdown, got {speedup:.2f}x"

"""Window-kernel benchmark: vectorized sort-once kernels vs a Python loop.

Two experiments over the hierarchical XPath-style tree workload
(`repro.bench.workloads.dblp_tree_columns` — a DBLP-shaped document tree
with pre/post-order node encodings):

* **window kernel speedup** — the sibling-position / venue-rank / running-
  score query (`tree_sibling_window_sql`) run by the engine's vectorized
  segment-boundary kernels vs a faithful per-partition Python loop baseline
  that receives the rows pre-extracted (so the baseline pays for none of the
  engine's scan or materialization work).  Rows must match exactly; the
  vectorized engine must win >= 2x at full scale.
* **recursive descendant parity** — the XPath descendant axis computed two
  ways: a recursive CTE over the parent edge and the pre/post interval
  containment join.  Both must return the identical node set, and the
  EXPLAIN ANALYZE plan must surface the recursive fixpoint operator.

``REPRO_BENCH_WINDOW_ROWS`` scales the tree (default 120,000 nodes; CI smoke
jobs set it smaller — the 2x gate is only enforced at full scale, row
equality always is).
"""

import os
import time
from collections import defaultdict

import pytest

from repro.backends.memdb.engine import MemDatabase, PlanCache
from repro.bench.workloads import (
    dblp_tree_columns,
    tree_descendants_interval_sql,
    tree_descendants_recursive_sql,
    tree_sibling_window_sql,
)

from conftest import emit

_FULL_TREE_ROWS = 120_000
_TREE_ROWS = int(os.environ.get("REPRO_BENCH_WINDOW_ROWS", _FULL_TREE_ROWS))
_RECURSION_ROWS = min(_TREE_ROWS, 30_000)


def _load_tree(num_nodes: int) -> MemDatabase:
    db = MemDatabase(plan_cache=PlanCache(maxsize=8))
    db.load_table("tree", dblp_tree_columns(num_nodes))
    db.execute("ANALYZE")
    return db


def _python_window_baseline(rows):
    """Per-partition Python loop computing the same three window columns.

    ``rows`` are pre-extracted ``(parent, pre, id, venue, score)`` tuples;
    the baseline groups/sorts per partition and walks each partition with a
    plain loop — the implementation the vectorized kernels replace.
    """
    by_parent = defaultdict(list)
    by_venue = defaultdict(list)
    for row in rows:
        by_parent[row[0]].append(row)
        by_venue[row[3]].append(row)

    sibling_pos = {}
    running_score = {}
    for members in by_parent.values():
        members.sort(key=lambda row: row[1])
        running = 0.0
        for position, row in enumerate(members, start=1):
            sibling_pos[row[2]] = position
            running += row[4]
            running_score[row[2]] = running

    venue_rank = {}
    for members in by_venue.values():
        members.sort(key=lambda row: (-row[4], row[2]))
        previous_key = None
        rank = 0
        for position, row in enumerate(members, start=1):
            key = (-row[4], row[2])
            if key != previous_key:
                rank = position
                previous_key = key
            venue_rank[row[2]] = rank

    out = [
        (row[0], row[1], row[2], sibling_pos[row[2]], venue_rank[row[2]], running_score[row[2]])
        for row in rows
    ]
    out.sort(key=lambda row: (row[0], row[1]))
    return out


def _normalize(rows):
    return [
        tuple(round(value, 7) if isinstance(value, float) else value for value in row)
        for row in rows
    ]


def _timeit(callable_, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - started)
    return best


def test_window_kernels_beat_python_loop(results_dir):
    """Identical rows always; >= 2x vectorized vs Python loop at full scale."""
    db = _load_tree(_TREE_ROWS)
    query = tree_sibling_window_sql()
    base_rows = db.execute("SELECT parent, pre, id, venue, score FROM tree").rows

    expected = _normalize(_python_window_baseline(base_rows))
    actual = _normalize(db.execute(query).rows)
    assert actual == expected, "vectorized window kernels diverged from the Python loop"

    engine_time = _timeit(lambda: db.execute(query), repeats=3)
    python_time = _timeit(lambda: _python_window_baseline(base_rows), repeats=3)
    speedup = python_time / engine_time

    emit(
        f"window kernels vs per-partition Python loop ({_TREE_ROWS:,} tree nodes)",
        f"python loop:    {python_time * 1000:8.2f} ms (rows pre-extracted)\n"
        f"vectorized:     {engine_time * 1000:8.2f} ms (full query incl. scan)\n"
        f"speedup:        {speedup:8.2f}x (gate >= 2x at {_FULL_TREE_ROWS:,} rows)",
    )
    (results_dir / "window_kernels.txt").write_text(
        f"python_ms={python_time * 1000:.3f}\nengine_ms={engine_time * 1000:.3f}\n"
        f"speedup={speedup:.2f}\nrows={_TREE_ROWS}\n"
    )

    if _TREE_ROWS < _FULL_TREE_ROWS:
        pytest.skip(
            f"speedup gate needs the full {_FULL_TREE_ROWS:,}-node tree "
            f"(REPRO_BENCH_WINDOW_ROWS={_TREE_ROWS}); rows verified identical, "
            f"measured {speedup:.2f}x"
        )
    assert speedup >= 2.0, f"expected >= 2x from vectorized kernels, got {speedup:.2f}x"


def test_recursive_descendants_match_interval_encoding(results_dir):
    """Recursive-CTE reachability equals the pre/post interval predicate."""
    db = _load_tree(_RECURSION_ROWS)
    recursive_sql = tree_descendants_recursive_sql(0)
    interval_sql = tree_descendants_interval_sql(0)

    recursive_rows = db.execute(recursive_sql).rows
    interval_rows = db.execute(interval_sql).rows
    assert recursive_rows == interval_rows, "descendant axis encodings disagree"
    assert len(recursive_rows) == _RECURSION_ROWS  # the whole tree hangs off node 0

    plan = "\n".join(row[0] for row in db.execute(f"EXPLAIN ANALYZE {recursive_sql}").rows)
    assert "recursive-fixpoint" in plan and "iterations=" in plan

    recursive_time = _timeit(lambda: db.execute(recursive_sql), repeats=3)
    interval_time = _timeit(lambda: db.execute(interval_sql), repeats=3)
    emit(
        f"descendant axis: recursion vs pre/post intervals ({_RECURSION_ROWS:,} nodes)",
        f"recursive CTE:  {recursive_time * 1000:8.2f} ms\n"
        f"interval join:  {interval_time * 1000:8.2f} ms\n"
        f"(same {len(recursive_rows):,} descendants either way)",
    )
    (results_dir / "window_recursive_parity.txt").write_text(
        f"recursive_ms={recursive_time * 1000:.3f}\ninterval_ms={interval_time * 1000:.3f}\n"
        f"nodes={_RECURSION_ROWS}\n"
    )

"""Morsel-driven parallel execution for the embedded columnar engine.

The subsystem splits column arrays into contiguous *morsels* (fixed-size row
ranges) and executes the engine's vectorized operators — scan filters,
expression evaluation, hash-join probes, and partitioned group aggregation —
across a shared worker pool.  The executor's numpy kernels release the GIL on
large buffers, so plain threads scale the hot loops across cores without any
serialization cost.

Two design rules govern every operator in this package:

* **Order-restoring merges.**  Each morsel's result is merged back in morsel
  order (concatenation for row-parallel operators, key-ordered scatter for
  partitioned aggregation), so a parallel execution produces *byte-identical*
  results to the serial operators in :mod:`..executor` — the differential
  tests compare the two engines bit for bit, and parallelism is purely a
  physical choice.
* **Cost-gated dispatch.**  Whether a query block runs parallel is a costed
  plan decision (:class:`~..optimizer.cost.ParallelDecision`), not a global
  switch: the planner compares estimated rows x operator cost against the
  pool's scheduling overhead, and small inputs stay serial.
"""

from __future__ import annotations

from .morsel import DEFAULT_MORSEL_ROWS, morsel_ranges
from .pool import WorkerPool, parallel_env_enabled, shared_worker_pool
from .operators import (
    parallel_apply_filter,
    parallel_evaluate,
    parallel_fused_aggregate,
    parallel_gather,
    parallel_grouped_projection,
    parallel_hash_join_frames,
    parallel_join_indices,
    parallel_plain_projection,
)

__all__ = [
    "DEFAULT_MORSEL_ROWS",
    "WorkerPool",
    "morsel_ranges",
    "parallel_apply_filter",
    "parallel_env_enabled",
    "parallel_evaluate",
    "parallel_fused_aggregate",
    "parallel_gather",
    "parallel_grouped_projection",
    "parallel_hash_join_frames",
    "parallel_join_indices",
    "parallel_plain_projection",
    "shared_worker_pool",
]

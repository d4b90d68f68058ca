"""Morsel-parallel operator variants, byte-identical to the serial executor.

Every function here reproduces one serial operator from :mod:`..executor`
(or the fused join-aggregate from :mod:`..planner`) with the work split
across a :class:`~.pool.WorkerPool`, under the merge disciplines that make
the output *bit-for-bit* equal to the serial result:

* **Row-parallel operators** (expression evaluation, scan filters, the
  hash-join probe) split the input into contiguous morsels and concatenate
  per-morsel results in morsel order.  All expression kernels are
  elementwise and the probe's ``searchsorted`` is a pure function of the
  (serially built) sorted build side, so concatenation *is* the serial
  answer.  Dictionary-encoded text survives the round trip: morsels sliced
  from one :class:`~..column.DictArray` share its dictionary, and
  :func:`~..column.concat_values` concatenates their codes.
* **Partitioned aggregation** splits rows by a hash of the *group key* —
  never by row range — so every group's rows land in exactly one partition,
  in input order.  Per-group accumulation (``np.bincount`` is a sequential
  C loop) therefore adds the same floats in the same order as the serial
  single-pass aggregate, which keeps even non-associative float sums
  identical.  The merge scatters each partition's groups into the globally
  key-sorted output (partitions are disjoint in key space, so the sorted
  concatenation of their unique keys equals the serial ``np.unique`` order).

Group keys are partitioned on the *exact int64 codes* the serial executor
groups on (:func:`~..column.encoded_codes`): integers pass through, floats
go through the monotone bit transform with NaN canonicalized, text becomes
dictionary codes, and all NULL keys share one code.  Every key shape —
NULL-heavy floats, object strings, multi-key GROUP BY — therefore
partitions exactly; the old serial fallbacks for NaN and object keys are
gone.  The remaining serial declines (``None`` returns) are semantic:
HAVING clauses, DISTINCT aggregates and nested aggregate expressions run
through the serial :class:`~..executor.GroupedEvaluator`, and malformed
``SUM(*)``-style calls fall through so the serial path raises its error.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..ast_nodes import Expression, FunctionCall, Select, SelectItem, Star
from ..column import (
    DictArray,
    concat_values,
    encoded_codes,
    gather_values,
    join_key_codes,
    null_mask,
    text_codes,
)
from ..executor import (
    ExpressionEvaluator,
    Frame,
    apply_filter,
    hash_join_frames,
    item_output_name,
    plain_projection,
)
from ....obs.tracing import annotate_current
from .morsel import morsel_ranges
from .pool import WorkerPool


def _slice_frame(frame: Frame, length: int, start: int, stop: int) -> Frame:
    """A morsel view of a frame (row-aligned columns sliced, others passed)."""
    return {
        key: values[start:stop] if len(values) == length else values
        for key, values in frame.items()
    }


def _aligned(frame: Frame, length: int) -> bool:
    return all(len(values) == length for values in frame.values())


# ---------------------------------------------------------------------------
# Row-parallel operators
# ---------------------------------------------------------------------------


def parallel_evaluate(
    frame: Frame, length: int, expression: Expression, pool: WorkerPool
) -> np.ndarray:
    """Evaluate an expression morsel-wise; identical to the serial evaluator.

    Every expression kernel in :class:`ExpressionEvaluator` is elementwise,
    so concatenating per-morsel results in morsel order reproduces the
    whole-column evaluation exactly.  Dictionary-encoded results stay
    encoded: morsels of one column share its dictionary object, which
    :func:`~..column.concat_values` recognizes and concatenates as codes.
    """
    ranges = morsel_ranges(length, pool.workers)
    if len(ranges) <= 1:
        return ExpressionEvaluator(frame, length).evaluate(expression)

    def evaluate(bounds: tuple[int, int]) -> np.ndarray:
        start, stop = bounds
        morsel = _slice_frame(frame, length, start, stop)
        return ExpressionEvaluator(morsel, stop - start).evaluate(expression)

    return concat_values(pool.map(evaluate, ranges))


def parallel_apply_filter(
    frame: Frame, length: int, predicate: Expression, pool: WorkerPool
) -> tuple[Frame, int]:
    """Filter a frame by a predicate, mask and gather both morsel-parallel."""
    ranges = morsel_ranges(length, pool.workers)
    if len(ranges) <= 1 or not _aligned(frame, length):
        return apply_filter(frame, length, predicate)

    keys = list(frame.keys())

    def filter_morsel(bounds: tuple[int, int]) -> tuple[list[np.ndarray], int]:
        start, stop = bounds
        morsel = _slice_frame(frame, length, start, stop)
        mask = ExpressionEvaluator(morsel, stop - start).evaluate(predicate).astype(
            bool, copy=False
        )
        return [morsel[key][mask] for key in keys], int(mask.sum())

    pieces = pool.map(filter_morsel, ranges)
    filtered = {
        key: concat_values([piece[0][position] for piece in pieces])
        for position, key in enumerate(keys)
    }
    return filtered, int(sum(piece[1] for piece in pieces))


def parallel_join_indices(
    left_keys, right_keys, pool: WorkerPool
) -> tuple[np.ndarray, np.ndarray]:
    """Morsel-parallel probe of the code-based equi-join (exact replica).

    Both key columns are first translated into the shared exact ``int64``
    code space (:func:`~..column.join_key_codes` — dictionary codes unioned
    for text, the monotone bit transform for floats, NULLs flagged
    invalid), exactly as the serial :func:`~..executor.join_indices` does.
    The build side (sort of the right codes) stays serial — it is one
    stable ``argsort`` — while the probe side is split into morsels: each
    morsel's ``searchsorted`` bounds, match counts and within-row offsets
    are pure per-row functions, so the concatenation equals the serial
    output including tie order.
    """
    left, right, left_valid, right_valid = join_key_codes(left_keys, right_keys)

    left_map = right_map = None
    if not left_valid.all():
        left_map = np.flatnonzero(left_valid)
        left = left[left_map]
    if not right_valid.all():
        right_map = np.flatnonzero(right_valid)
        right = right[right_map]

    order = np.argsort(right, kind="stable")
    sorted_right = right[order]

    ranges = morsel_ranges(int(left.size), pool.workers)

    def probe(bounds: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
        start, stop = bounds
        segment = left[start:stop]
        lo = np.searchsorted(sorted_right, segment, side="left")
        hi = np.searchsorted(sorted_right, segment, side="right")
        counts = hi - lo
        total = int(counts.sum())
        left_idx = np.repeat(np.arange(start, stop, dtype=np.int64), counts)
        starts = np.repeat(lo, counts)
        within = np.arange(total, dtype=np.int64) - np.repeat(np.cumsum(counts) - counts, counts)
        return left_idx, order[starts + within]

    if len(ranges) <= 1:
        pieces = [probe(bounds) for bounds in ranges] if ranges else []
    else:
        annotate_current("probe_morsels", len(ranges))
        pieces = pool.map(probe, ranges)
    if pieces:
        left_idx = np.concatenate([piece[0] for piece in pieces])
        right_idx = np.concatenate([piece[1] for piece in pieces])
    else:
        left_idx = np.empty(0, dtype=np.int64)
        right_idx = np.empty(0, dtype=np.int64)
    if left_map is not None:
        left_idx = left_map[left_idx]
    if right_map is not None:
        right_idx = right_map[right_idx]
    return left_idx, right_idx


def parallel_gather(values, indices: np.ndarray, pool: WorkerPool):
    """``values[indices]`` with the gather split into morsels of ``indices``.

    Dictionary-encoded columns gather their codes (no decode); the morsel
    pieces share the source dictionary, so the concatenation stays encoded.
    """
    ranges = morsel_ranges(int(indices.size), pool.workers)
    if len(ranges) <= 1:
        return gather_values(values, indices)
    pieces = pool.map(
        lambda bounds: gather_values(values, indices[bounds[0]:bounds[1]]), ranges
    )
    return concat_values(pieces)


def parallel_hash_join_frames(
    left_frame: Frame,
    left_length: int,
    right_frame: Frame,
    right_length: int,
    left_key_expr: Expression,
    right_key_expr: Expression,
    pool: WorkerPool,
) -> tuple[Frame, int]:
    """:func:`~..executor.hash_join_frames` with pool-backed kernels.

    The column-merge body lives in the serial function — only the evaluate,
    probe and gather strategies are swapped — so the two paths share one
    implementation of the merge rules.
    """
    return hash_join_frames(
        left_frame,
        left_length,
        right_frame,
        right_length,
        left_key_expr,
        right_key_expr,
        evaluate=lambda frame, length, expr: parallel_evaluate(frame, length, expr, pool),
        join=lambda left, right: parallel_join_indices(left, right, pool),
        gather=lambda values, indices: parallel_gather(values, indices, pool),
    )


# ---------------------------------------------------------------------------
# Partitioned aggregation
# ---------------------------------------------------------------------------


def _partition_ids(code_columns: Sequence[np.ndarray], partitions: int) -> np.ndarray:
    """Partition id per row (equal key rows -> equal partition).

    Keys arrive as exact ``int64`` codes, so a deterministic integer mix
    over the code columns partitions every key shape exactly — floats,
    NULLs, text and multi-key tuples included.  Collisions only cost
    balance, never correctness: a partition owning two key values still
    factorizes them into separate groups.
    """
    mixed = code_columns[0].astype(np.int64, copy=True)
    for column in code_columns[1:]:
        # FNV-style odd multiplier; int64 wraparound is deterministic.
        mixed *= np.int64(0x100000001B3)
        mixed += column
    return mixed % partitions


class _PartitionedGroups:
    """Group structure from a key-hash partitioning, merged in key order.

    Exposes exactly what the serial aggregates consume — first-occurrence
    indices in global key-sorted order, the per-row inverse — plus
    per-partition machinery so each aggregate accumulates a group's rows in
    input order (the serial ``bincount`` order).  Accepts one or more
    ``int64`` code columns; multiple columns reproduce the serial
    ``np.unique(..., axis=0)`` multi-key grouping (lexicographic order,
    first key most significant).
    """

    __slots__ = ("first_indices", "inverse", "num_groups", "_parts")

    def __init__(self, code_columns: Sequence[np.ndarray], pool: WorkerPool) -> None:
        length = len(code_columns[0])
        partitions = max(2, pool.workers)
        part_ids = _partition_ids(code_columns, partitions)
        buckets = [np.flatnonzero(part_ids == p) for p in range(partitions)]
        buckets = [rows for rows in buckets if len(rows)]
        annotate_current("group_partitions", len(buckets))
        multi = len(code_columns) > 1

        def factorize(rows: np.ndarray):
            if multi:
                sub = np.stack([column[rows] for column in code_columns], axis=1)
                unique, first, inverse = np.unique(
                    sub, axis=0, return_index=True, return_inverse=True
                )
            else:
                unique, first, inverse = np.unique(
                    code_columns[0][rows], return_index=True, return_inverse=True
                )
            return rows, unique, rows[first], inverse.ravel()

        parts = pool.map(factorize, buckets)

        if parts:
            all_unique = np.concatenate([part[1] for part in parts], axis=0)
            all_first = np.concatenate([part[2] for part in parts])
        else:
            shape = (0, len(code_columns)) if multi else 0
            all_unique = np.empty(shape, dtype=np.int64)
            all_first = np.empty(0, dtype=np.int64)
        if multi:
            # np.unique(axis=0) sorts rows lexicographically with the first
            # column most significant; np.lexsort's *last* key is primary.
            order = np.lexsort(
                tuple(all_unique[:, i] for i in reversed(range(all_unique.shape[1])))
            )
        else:
            order = np.argsort(all_unique, kind="stable")
        self.num_groups = int(len(order))
        self.first_indices = all_first[order]
        # Local group slot -> global (key-sorted) group id.
        global_of = np.empty(self.num_groups, dtype=np.int64)
        global_of[order] = np.arange(self.num_groups, dtype=np.int64)
        self.inverse = np.empty(length, dtype=np.int64)
        self._parts: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        base = 0
        for rows, unique, _first, inverse in parts:
            count = len(unique)
            ids = global_of[base : base + count]
            self.inverse[rows] = ids[inverse]
            self._parts.append((rows, inverse, ids))
            base += count

    # ------------------------------------------------------------- aggregates

    def counts(self) -> np.ndarray:
        """Per-group row counts (identical to ``np.bincount(inverse)``)."""
        result = np.zeros(self.num_groups, dtype=np.int64)
        for rows, inverse, ids in self._parts:
            result[ids] = np.bincount(inverse, minlength=len(ids))
        return result

    def masked_counts(self, mask: np.ndarray) -> np.ndarray:
        """Counts of mask-selected rows — ``COUNT(col)``'s NULL skipping."""
        result = np.zeros(self.num_groups, dtype=np.int64)
        for rows, inverse, ids in self._parts:
            result[ids] = np.bincount(inverse[mask[rows]], minlength=len(ids))
        return result

    def sums(
        self, weights: np.ndarray, pool: WorkerPool, mask: np.ndarray | None = None
    ) -> np.ndarray:
        """Per-group float sums, each group accumulated in input order.

        A group's rows all live in one partition with ascending row indices,
        and ``np.bincount`` adds them sequentially — the same float-addition
        order as the serial single-pass ``bincount``, hence identical bits.
        ``mask`` drops NULL rows first, exactly like the serial aggregate.
        """
        result = np.zeros(self.num_groups, dtype=np.float64)

        def partial(part: tuple[np.ndarray, np.ndarray, np.ndarray]):
            rows, inverse, ids = part
            if mask is None:
                return ids, np.bincount(inverse, weights=weights[rows], minlength=len(ids))
            keep = mask[rows]
            return ids, np.bincount(
                inverse[keep], weights=weights[rows][keep], minlength=len(ids)
            )

        for ids, sums in pool.map(partial, self._parts):
            result[ids] = sums
        return result

    def reduce_minmax(
        self,
        values: np.ndarray,
        minimum: bool,
        pool: WorkerPool,
        mask: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-group MIN/MAX via the serial ``reduceat`` discipline.

        Returns ``(group ids, reduced values)`` covering only groups with at
        least one mask-selected row; the caller scatters into its NULL-filled
        result, mirroring the serial all-NULL-group handling.
        """
        reducer = np.minimum if minimum else np.maximum

        def partial(part: tuple[np.ndarray, np.ndarray, np.ndarray]):
            rows, inverse, ids = part
            sub_values = values[rows]
            sub_inverse = inverse
            if mask is not None:
                keep = mask[rows]
                sub_values = sub_values[keep]
                sub_inverse = inverse[keep]
            if not len(sub_values):
                return ids[:0], sub_values
            order = np.argsort(sub_inverse, kind="stable")
            sorted_inverse = sub_inverse[order]
            sorted_values = sub_values[order]
            boundaries = np.concatenate(([0], np.flatnonzero(np.diff(sorted_inverse)) + 1))
            return ids[sorted_inverse[boundaries]], reducer.reduceat(sorted_values, boundaries)

        pieces = [piece for piece in pool.map(partial, self._parts) if len(piece[0])]
        if not pieces:
            return np.empty(0, dtype=np.int64), values[:0]
        return (
            np.concatenate([piece[0] for piece in pieces]),
            np.concatenate([piece[1] for piece in pieces]),
        )


def partitioned_groups(
    code_columns: Sequence[np.ndarray], pool: WorkerPool
) -> _PartitionedGroups:
    """Build the partitioned group structure over exact int64 code columns."""
    return _PartitionedGroups(code_columns, pool)


# ---------------------------------------------------------------------------
# Projection-level operators
# ---------------------------------------------------------------------------


def parallel_plain_projection(
    items: Sequence[SelectItem], frame: Frame, length: int, pool: WorkerPool
) -> tuple[list[str], list[np.ndarray]]:
    """:func:`~..executor.plain_projection` with the pool-backed evaluator."""
    return plain_projection(
        items,
        frame,
        length,
        evaluate=lambda expression: parallel_evaluate(frame, length, expression, pool),
    )


#: Aggregate calls the partitioned merge reproduces exactly.
_PARTITIONED_AGGREGATES = frozenset({"count", "sum", "total", "avg", "min", "max"})


def parallel_grouped_projection(
    select: Select, frame: Frame, length: int, pool: WorkerPool
) -> tuple[list[str], list[np.ndarray]] | None:
    """Partitioned replica of :func:`~..executor.grouped_projection`.

    Covers GROUP BY over any number of keys — partitioned on the exact
    ``int64`` codes the serial path factorizes on — with top-level
    COUNT/SUM/TOTAL/AVG/MIN/MAX aggregates, NULL skipping and text MIN/MAX
    included.  HAVING, DISTINCT aggregates, nested aggregate expressions
    and malformed ``SUM(*)``-style calls return ``None`` and run serially
    (the last so the serial path raises its error).
    """
    if (
        not select.group_by
        or select.having is not None
        or length == 0
        or any(isinstance(item.expression, Star) for item in select.items)
    ):
        return None
    for item in select.items:
        expression = item.expression
        if not expression.has_aggregate:
            continue
        if (
            not isinstance(expression, FunctionCall)
            or expression.name not in _PARTITIONED_AGGREGATES
            or expression.distinct
            or len(expression.arguments) > 1
            or any(argument.has_aggregate for argument in expression.arguments)
        ):
            return None
        if (expression.is_star or not expression.arguments) and expression.name != "count":
            # SUM(*)/AVG(*)/... are errors; the serial path raises them.
            return None

    # Factorize on the same exact int64 codes as the serial grouped path:
    # equal keys share a code, all NULL keys share one code, and the global
    # key-sorted merge order equals the serial np.unique order.
    code_columns = [
        encoded_codes(parallel_evaluate(frame, length, expression, pool))
        for expression in select.group_by
    ]
    groups = partitioned_groups(code_columns, pool)

    star_counts = groups.counts()
    names: list[str] = []
    vectors: list[np.ndarray] = []
    for position, item in enumerate(select.items):
        name = item_output_name(item, position)
        names.append(name)
        expression = item.expression
        if not expression.has_aggregate:
            full = parallel_evaluate(frame, length, expression, pool)
            vectors.append(full[groups.first_indices])
            continue
        call = expression
        assert isinstance(call, FunctionCall)
        if call.is_star or not call.arguments:
            vectors.append(star_counts.copy())
            continue
        raw = parallel_evaluate(frame, length, call.arguments[0], pool)
        is_text = isinstance(raw, DictArray) or raw.dtype.kind in ("O", "U")
        mask = ~null_mask(raw)
        counts = groups.masked_counts(mask)
        if call.name == "count":
            vectors.append(counts)
        elif is_text:
            if call.name not in ("min", "max"):
                return None  # serial path raises the text-aggregate error
            all_codes, vocabulary = text_codes(raw)
            ids, reduced = groups.reduce_minmax(
                all_codes, minimum=call.name == "min", pool=pool, mask=mask
            )
            result = np.empty(groups.num_groups, dtype=object)
            result[:] = None
            if len(ids):
                decoded = vocabulary[reduced]
                for group, value in zip(ids.tolist(), decoded.tolist()):
                    result[group] = value
            vectors.append(result)
        else:
            values = raw.astype(np.float64, copy=False)
            if call.name in ("sum", "total"):
                sums = groups.sums(values, pool, mask=mask)
                vectors.append(np.where(counts == 0, np.nan, sums) if call.name == "sum" else sums)
            elif call.name == "avg":
                sums = groups.sums(values, pool, mask=mask)
                vectors.append(np.where(counts == 0, np.nan, sums / np.maximum(counts, 1)))
            else:
                result = np.full(groups.num_groups, np.nan)
                ids, reduced = groups.reduce_minmax(
                    values, minimum=call.name == "min", pool=pool, mask=mask
                )
                result[ids] = reduced
                vectors.append(result)
    return names, vectors


def parallel_fused_aggregate(
    joined: Frame,
    joined_length: int,
    key_expr: Expression,
    outputs: Sequence[tuple[str, str, Expression | None]],
    pool: WorkerPool,
) -> tuple[list[str], list[np.ndarray]] | None:
    """Partitioned replica of the fused join-aggregate's grouping stage.

    ``outputs`` is the fused operator's (name, kind, argument) list.  The
    key is factorized on its exact int64 codes (the fused serial path uses
    the same :func:`~..column.encoded_codes`), so integer state indices —
    the paper's hot key — as well as float and dictionary-encoded keys
    partition exactly; the key output gathers from the evaluated column so
    its dtype (or dictionary encoding) survives.
    """
    if joined_length == 0:
        return None
    key_values = parallel_evaluate(joined, joined_length, key_expr, pool)
    groups = partitioned_groups([encoded_codes(key_values)], pool)
    names: list[str] = []
    vectors: list[np.ndarray] = []
    for name, kind, argument in outputs:
        names.append(name)
        if kind == "key":
            vectors.append(key_values[groups.first_indices])
        elif kind == "count":
            vectors.append(groups.counts())
        else:
            weights = parallel_evaluate(joined, joined_length, argument, pool).astype(
                np.float64, copy=False
            )
            # SUM skips NULL arguments and is NULL where it skipped every row.
            valid = ~np.isnan(weights)
            sums = groups.sums(weights, pool, mask=valid)
            vectors.append(np.where(groups.masked_counts(valid) == 0, np.nan, sums))
    return names, vectors

"""Vectorized execution kernels for the embedded columnar engine.

The compiled plans of :mod:`.planner` run every SELECT through the kernels
here, in the textbook pipeline order — FROM, JOIN (vectorized hash join),
WHERE, GROUP BY (vectorized hash aggregation), HAVING, projection, DISTINCT,
ORDER BY, LIMIT — operating on whole numpy columns throughout, which is the
"columnar, vectorized execution" behaviour the engine substitutes for
DuckDB.
"""

from __future__ import annotations

import math
import operator as _operator
from functools import lru_cache, partial
from typing import Callable, Mapping, Sequence

import numpy as np

from ...errors import SQLExecutionError
from .ast_nodes import (
    AGGREGATE_FUNCTIONS,
    BinaryOp,
    CaseExpression,
    ColumnRef,
    CompoundSelect,
    Expression,
    FunctionCall,
    InList,
    IsNull,
    Literal,
    OrderItem,
    Select,
    SelectItem,
    Star,
    UnaryOp,
    WindowFunction,
    WindowSpec,
    transform_expression,
)
from .column import (
    DictArray,
    compare_values,
    encoded_codes,
    gather_values,
    join_key_codes,
    null_mask,
    sort_keys,
    text_codes,
    to_pylist,
)
from .table import TransientTable

#: Compute frames map column keys to plain numpy vectors or dictionary-
#: encoded text vectors (:class:`DictArray`); every kernel below accepts
#: both.
Frame = dict[str, np.ndarray]


def _sql_round(values: np.ndarray, decimals: int = 0) -> np.ndarray:
    """SQL ROUND: half-away-from-zero (SQLite/DuckDB), not numpy's banker's rounding.

    Negative ``decimals`` rounds to tens/hundreds like DuckDB; SQLite instead
    clamps a negative digit count to 0 (the engines disagree with each other).
    """
    scale = 10.0 ** decimals
    scaled = np.asarray(values, dtype=np.float64) * scale
    return np.trunc(scaled + np.copysign(0.5, scaled)) / scale


#: One-argument scalar functions that are a single numpy ufunc.
#: ``log`` is base-10 to match SQLite/DuckDB (natural log is ``ln``).
_SCALAR_FUNCTIONS = {
    "abs": np.abs,
    "floor": np.floor,
    "ceil": np.ceil,
    "ceiling": np.ceil,
    "sqrt": np.sqrt,
    "exp": np.exp,
    "ln": np.log,
    "log": np.log10,
    "log10": np.log10,
    "log2": np.log2,
    "sin": np.sin,
    "cos": np.cos,
}


def _broadcast(value, length: int):
    """``value`` as a column of ``length`` rows; row-aligned vectors pass through."""
    if getattr(value, "ndim", 0) == 1 and len(value) == length:
        return value
    return np.full(length, value)


def _text_operand(values) -> tuple[np.ndarray, np.ndarray]:
    """``(str_array, valid)`` view of a ``||`` operand.

    Invalid (NULL) slots carry ``""`` in the string array; the caller
    propagates NULL through the concatenation via the validity mask.
    """
    if isinstance(values, DictArray):
        valid = ~values.is_null()
        if len(values.dictionary):
            text = values.dictionary[np.where(values.codes >= 0, values.codes, 0)]
            if not valid.all():
                text = text.copy()
                text[~valid] = ""
        else:
            text = np.full(len(values), "", dtype="<U1")
        return text, valid
    array = np.atleast_1d(values)
    valid = ~null_mask(array)
    if array.dtype == object:
        filled = array.copy()
        filled[~valid] = ""
        return filled.astype(str), valid
    if array.dtype.kind == "f" and not valid.all():
        filled = array.astype(object)
        filled[~valid] = ""
        return filled.astype(str), valid
    return array.astype(str), valid


def _concat_strings(left, right) -> np.ndarray:
    """SQL ``||``: string concatenation with NULL propagation."""
    left_text, left_valid = _text_operand(left)
    right_text, right_valid = _text_operand(right)
    joined = np.char.add(left_text, right_text)
    valid = left_valid & right_valid
    if valid.all():
        return joined
    result = joined.astype(object)
    result[~valid] = None
    return result


# ---------------------------------------------------------------------------
# Operator kernels
# ---------------------------------------------------------------------------
#
# Every kernel takes operands that are either row-aligned vectors or 0-d
# scalars (literals and constant subtrees stay 0-d until the evaluator's
# single top-level broadcast) and relies on numpy broadcasting between the
# two, so a literal costs no ``np.full`` and an operand that already has
# the wanted dtype is never copied.

#: dtype kinds of plain numeric operands.  Anything else (``<U`` text,
#: object, dictionary codes) is row-aligned before it reaches a kernel.
_NUMERIC_KINDS = frozenset("iufb")

#: The NULL literal: NaN, like a NULL in any nullable numeric column.
_NULL = np.asarray(np.nan)


@lru_cache(maxsize=1024, typed=True)
def _scalar_array(value: object, negative_zero: bool) -> np.ndarray:
    """A literal's value as a read-only 0-d array, one per distinct value and type.

    Gate steps spell the same few shifts and masks in every block of every
    plan: wrapped once, not once per evaluation, and shared instead of kept
    per node.  ``0.0 == -0.0``, so the sign of a zero is part of the key.
    """
    array = np.array(value)
    array.flags.writeable = False
    return array


def _int_operand(values):
    """``(int64 values, NULL mask)`` of a bitwise operand.

    The mask is the plain ``False`` for integer operands, which cannot hold
    NULL: they pass through uncopied and unchecked, and only float and
    object operands pay for a ``null_mask``.  Reals truncate toward zero
    like SQLite's cast to INTEGER.
    """
    if values.dtype.kind in "iub":
        return values.astype(np.int64, copy=False), False
    nulls = null_mask(values)
    if not nulls.any():
        return values.astype(np.int64), False
    return np.where(nulls, 0, values).astype(np.int64), nulls


def _bitwise(operation):
    """Kernel for one of ``& | << >>``: int64 arithmetic, NULL in -> NULL out."""

    def kernel(left, right):
        left, left_nulls = _int_operand(left)
        right, right_nulls = _int_operand(right)
        nulls = left_nulls | right_nulls
        result = operation(left, right)
        return result if nulls is False else np.where(nulls, np.nan, result)

    return kernel


def _bit_not(operand):
    values, nulls = _int_operand(operand)
    return ~values if nulls is False else np.where(nulls, np.nan, ~values)


def _divide(left, right):
    # SQL semantics: integer / integer stays integral and truncates toward
    # zero (SQLite/DuckDB), unlike Python's floor division; a zero divisor
    # yields NULL (NaN), not an error.
    if left.dtype.kind in "iu" and right.dtype.kind in "iu":
        zero = right == 0
        divisor = np.where(zero, 1, right)
        with np.errstate(divide="ignore"):
            quotient = left // divisor
            remainder = left - quotient * divisor
        # Floor division rounded away from zero on sign mismatch: bump back
        # toward zero to get truncation.
        truncated = quotient + ((remainder != 0) & ((left < 0) != (divisor < 0)))
        if zero.any():
            return np.where(zero, np.nan, truncated.astype(np.float64))
        return truncated
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(right == 0, np.nan, left / np.where(right == 0, 1, right))


def _modulo(left, right):
    # SQL modulo truncates toward zero (sign of the dividend), unlike
    # Python's floored modulo: -7 % 3 is -1 in SQLite, 2 in Python.  Float
    # operands keep fmod semantics like DuckDB (2.5 % 2 = 0.5); SQLite
    # instead casts both sides to INTEGER first.  A zero divisor yields NULL
    # (NaN) like both engines.
    zero = right == 0
    with np.errstate(invalid="ignore", divide="ignore"):
        remainder = np.fmod(left, np.where(zero, 1, right))
    if zero.any():
        return np.where(zero, np.nan, remainder.astype(np.float64))
    return remainder


def _logical_and(left, right):
    return left.astype(bool, copy=False) & right.astype(bool, copy=False)


def _logical_or(left, right):
    return left.astype(bool, copy=False) | right.astype(bool, copy=False)


#: operator -> (kernel, whether the kernel is defined on text operands).
_BINARY_OPERATORS = {
    "+": (_operator.add, False),
    "-": (_operator.sub, False),
    "*": (_operator.mul, False),
    "/": (_divide, False),
    "%": (_modulo, False),
    "&": (_bitwise(_operator.and_), False),
    "|": (_bitwise(_operator.or_), False),
    "<<": (_bitwise(_operator.lshift), False),
    ">>": (_bitwise(_operator.rshift), False),
    "and": (_logical_and, False),
    "or": (_logical_or, False),
    "||": (_concat_strings, True),
    # One comparison kernel for every representation (numeric, object,
    # dictionary codes) with SQL's three-valued logic collapsed to filter
    # semantics: NULL on either side is False.
    **{op: (partial(compare_values, op), True) for op in ("=", "!=", "<", "<=", ">", ">=")},
}

_UNARY_OPERATORS = {
    "-": _operator.neg,
    "+": lambda operand: operand,
    "~": _bit_not,
    "not": lambda operand: ~operand.astype(bool, copy=False),
}


def _row_aligned(value, length: int):
    """Broadcast a non-numeric scalar; the text kernels index their operands."""
    if value.dtype.kind in _NUMERIC_KINDS:
        return value
    return _broadcast(value, length)


#: What numpy raises when an arithmetic kernel meets a text operand: no ufunc
#: loop or common dtype (TypeError), ``int('x')`` (ValueError), an object
#: array's elements lacking the ufunc's method (AttributeError).
_KERNEL_ERRORS = (TypeError, ValueError, AttributeError)


def apply_binary(operator: str, left, right, length: int):
    """Apply a binary SQL operator to two evaluated operands of ``length`` rows."""
    try:
        kernel, on_text = _BINARY_OPERATORS[operator]
    except KeyError:
        raise SQLExecutionError(f"unsupported binary operator {operator!r}") from None
    if on_text:
        if not (left.dtype.kind in _NUMERIC_KINDS and right.dtype.kind in _NUMERIC_KINDS):
            left = _broadcast(left, length)
            right = _broadcast(right, length)
        return kernel(left, right)
    try:
        return kernel(left, right)
    except _KERNEL_ERRORS as error:
        raise _text_operand_error(operator, error, left, right) from error


def apply_unary(operator: str, operand):
    """Apply a unary SQL operator to one evaluated operand."""
    try:
        kernel = _UNARY_OPERATORS[operator]
    except KeyError:
        raise SQLExecutionError(f"unsupported unary operator {operator!r}") from None
    try:
        return kernel(operand)
    except _KERNEL_ERRORS as error:
        raise _text_operand_error(operator, error, operand) from error


def _text_operand_error(operator: str, error: Exception, *operands) -> Exception:
    """What a failed arithmetic kernel raises: numpy's error only when no operand is text.

    SQLite would coerce a text operand to a number; this engine defines
    arithmetic on numbers only and says so instead of leaking the kernel's
    ``TypeError`` / ``ValueError``.
    """
    if all(values.dtype.kind in _NUMERIC_KINDS for values in operands):
        return error
    return SQLExecutionError(f"operator {operator!r} is not defined on text operands")


class ExpressionEvaluator:
    """Evaluates scalar (non-aggregate) expressions over a column frame.

    The one expression evaluator of the engine: compiled plans, DELETE
    predicates and the morsel-parallel operators all call :meth:`evaluate`.
    Internally a node evaluates to a row-aligned vector or — for literals
    and constant subtrees — a 0-d scalar; only :meth:`evaluate` broadcasts.
    """

    __slots__ = ("_frame", "_length")

    def __init__(self, frame: Frame, length: int) -> None:
        self._frame = frame
        self._length = length

    def evaluate(self, expression: Expression) -> np.ndarray:
        """Evaluate ``expression`` to a column of ``length`` values."""
        return _broadcast(self._eval(expression), self._length)

    def _eval(self, expression: Expression):
        try:
            handler = _NODE_HANDLERS[type(expression)]
        except KeyError:
            raise SQLExecutionError(
                f"unsupported expression node {type(expression).__name__}"
            ) from None
        return handler(self, expression)

    # ------------------------------------------------------- node handlers

    def _literal(self, node: Literal):
        value = node.value
        if value is None:
            return _NULL
        return _scalar_array(value, value == 0 and math.copysign(1, value) < 0)

    def _column(self, ref: ColumnRef):
        try:
            return self._frame[ref.frame_key]
        except KeyError:
            available = sorted(k for k in self._frame if "." not in k)
            raise SQLExecutionError(
                f"unknown column {ref.key()!r}; available columns: {available}"
            ) from None

    def _unary(self, node: UnaryOp):
        return apply_unary(node.operator, self._eval(node.operand))

    def _binary(self, node: BinaryOp):
        return apply_binary(
            node.operator, self._eval(node.left), self._eval(node.right), self._length
        )

    def _is_null(self, node: IsNull):
        nulls = null_mask(_row_aligned(self._eval(node.operand), self._length))
        return ~nulls if node.negated else nulls

    def _in_list(self, node: InList):
        operand = _row_aligned(self._eval(node.operand), self._length)
        mask = np.zeros(self._length, dtype=bool)
        for value in node.values:
            mask |= apply_binary("=", operand, self._eval(value), self._length)
        if node.negated:
            # NULL NOT IN (...) is unknown, never true: a NULL operand
            # must not pass the negated filter either.
            return ~mask & ~null_mask(operand)
        return mask

    def _star(self, node: Star):
        raise SQLExecutionError("'*' is only allowed as a projection or inside COUNT(*)")

    def _window(self, node: WindowFunction):
        raise SQLExecutionError("window functions are only allowed in the SELECT list")

    def _function(self, node: FunctionCall):
        name = node.name
        if name in AGGREGATE_FUNCTIONS:
            raise SQLExecutionError(
                f"aggregate {name.upper()}() used outside of an aggregating SELECT"
            )
        handler = _FUNCTION_HANDLERS.get(name)
        if handler is not None:
            return handler(self, node)
        function = _SCALAR_FUNCTIONS.get(name)
        if function is None:
            raise SQLExecutionError(f"unknown function {name!r}")
        if len(node.arguments) != 1:
            raise SQLExecutionError(f"{name}() takes exactly one argument")
        return function(self._eval(node.arguments[0]))

    def _power(self, node: FunctionCall):
        if len(node.arguments) != 2:
            raise SQLExecutionError(f"{node.name}() takes two arguments")
        return np.power(self._eval(node.arguments[0]), self._eval(node.arguments[1]))

    def _round(self, node: FunctionCall):
        if len(node.arguments) not in (1, 2):
            raise SQLExecutionError("round() takes one or two arguments")
        decimals = 0
        if len(node.arguments) == 2:
            digits = node.arguments[1]
            sign = 1
            if isinstance(digits, UnaryOp) and digits.operator in ("-", "+"):
                sign = -1 if digits.operator == "-" else 1
                digits = digits.operand
            if not isinstance(digits, Literal) or not isinstance(digits.value, (int, float)):
                raise SQLExecutionError("round() requires a literal number of digits")
            decimals = sign * int(digits.value)
        return _sql_round(self._eval(node.arguments[0]), decimals)

    def _coalesce(self, node: FunctionCall):
        if not node.arguments:
            raise SQLExecutionError("coalesce() needs at least one argument")
        operands = [self.evaluate(argument) for argument in node.arguments]
        if any(
            isinstance(operand, DictArray) or operand.dtype.kind in ("O", "U")
            for operand in operands
        ):
            # Text-capable path: fill NULL slots left to right.
            result = np.array(np.asarray(operands[0], dtype=object), dtype=object)
            missing = null_mask(result)
            for candidate in operands[1:]:
                if not missing.any():
                    break
                candidate = np.asarray(candidate, dtype=object)
                result[missing] = candidate[missing]
                missing = null_mask(result)
            return result
        result = operands[0].astype(float)
        for candidate in operands[1:]:
            result = np.where(np.isnan(result), candidate, result)
        return result

    def _case(self, node: CaseExpression):
        result = None
        decided = np.zeros(self._length, dtype=bool)
        for condition, branch in zip(node.conditions, node.results):
            mask = self._eval(condition).astype(bool, copy=False) & ~decided
            result = np.where(mask, self._eval(branch), np.nan if result is None else result)
            decided |= mask
        default = _NULL if node.default is None else self._eval(node.default)
        return np.where(decided, result, default)


_NODE_HANDLERS = {
    Literal: ExpressionEvaluator._literal,
    ColumnRef: ExpressionEvaluator._column,
    UnaryOp: ExpressionEvaluator._unary,
    BinaryOp: ExpressionEvaluator._binary,
    FunctionCall: ExpressionEvaluator._function,
    CaseExpression: ExpressionEvaluator._case,
    IsNull: ExpressionEvaluator._is_null,
    InList: ExpressionEvaluator._in_list,
    Star: ExpressionEvaluator._star,
    WindowFunction: ExpressionEvaluator._window,
}

#: Scalar functions that are more than one numpy ufunc over one argument.
_FUNCTION_HANDLERS = {
    "power": ExpressionEvaluator._power,
    "pow": ExpressionEvaluator._power,
    "round": ExpressionEvaluator._round,
    "coalesce": ExpressionEvaluator._coalesce,
}


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


class GroupedEvaluator:
    """Evaluates expressions (possibly containing aggregates) per group."""

    def __init__(
        self,
        frame: Frame,
        length: int,
        inverse: np.ndarray,
        num_groups: int,
        first_indices: np.ndarray,
    ) -> None:
        self._scalar = ExpressionEvaluator(frame, length)
        self._length = length
        self._inverse = inverse
        self._num_groups = num_groups
        self._first_indices = first_indices

    def evaluate(self, expression: Expression) -> np.ndarray:
        """Evaluate ``expression`` to one value per group."""
        return _broadcast(self._eval(expression), self._num_groups)

    def _eval(self, expression: Expression):
        if isinstance(expression, FunctionCall) and expression.name in AGGREGATE_FUNCTIONS:
            return self._aggregate(expression)
        if isinstance(expression, BinaryOp):
            return apply_binary(
                expression.operator,
                self._eval(expression.left),
                self._eval(expression.right),
                self._num_groups,
            )
        if isinstance(expression, UnaryOp):
            return apply_unary(expression.operator, self._eval(expression.operand))
        # No aggregate inside: evaluate on the full frame and take each group's
        # first row (legal because grouped non-aggregate expressions must be
        # functions of the grouping key in the supported SQL subset).
        value = self._scalar._eval(expression)
        return value[self._first_indices] if value.ndim else value

    def _aggregate(self, call: FunctionCall) -> np.ndarray:
        name = call.name
        if call.is_star or not call.arguments:
            if name != "count":
                raise SQLExecutionError(f"{name.upper()}(*) is not a valid aggregate")
            return np.bincount(self._inverse, minlength=self._num_groups).astype(np.int64)

        raw = self._scalar.evaluate(call.arguments[0])
        is_text = isinstance(raw, DictArray) or raw.dtype.kind in ("O", "U")
        # SQL aggregates skip NULLs: COUNT(col) counts non-NULL rows,
        # SUM/AVG/MIN/MAX reduce the valid rows only, and an all-NULL group
        # yields NULL (COUNT yields 0).
        mask = ~null_mask(raw)
        if call.distinct:
            # Deduplicate (group, value) pairs — on *exact* integer codes,
            # so wide int64 values and NULLs dedup correctly — before
            # aggregating.
            keys = np.stack([self._inverse, encoded_codes(raw)], axis=1)
            _unique, unique_indices = np.unique(keys, axis=0, return_index=True)
            distinct_mask = np.zeros(self._length, dtype=bool)
            distinct_mask[unique_indices] = True
            mask &= distinct_mask

        inverse = self._inverse[mask]
        counts = np.bincount(inverse, minlength=self._num_groups)
        if name == "count":
            return counts.astype(np.int64)

        if is_text:
            if name not in ("min", "max"):
                raise SQLExecutionError(f"{name.upper()}() is not defined on text columns")
            return self._reduce_text_minmax(name, raw, mask, inverse, counts)

        values = raw.astype(np.float64, copy=False)[mask]
        if name in ("sum", "total"):
            sums = np.bincount(inverse, weights=values, minlength=self._num_groups)
            if name == "sum":
                sums = np.where(counts == 0, np.nan, sums)
            return sums
        if name == "avg":
            sums = np.bincount(inverse, weights=values, minlength=self._num_groups)
            return np.where(counts == 0, np.nan, sums / np.maximum(counts, 1))
        if name in ("min", "max"):
            result = np.full(self._num_groups, np.nan)
            if len(values):
                order = np.argsort(inverse, kind="stable")
                sorted_inverse = inverse[order]
                sorted_values = values[order]
                boundaries = np.concatenate(([0], np.flatnonzero(np.diff(sorted_inverse)) + 1))
                reducer = np.minimum if name == "min" else np.maximum
                reduced = reducer.reduceat(sorted_values, boundaries)
                result[sorted_inverse[boundaries]] = reduced
            return result
        raise SQLExecutionError(f"unsupported aggregate {name!r}")

    def _reduce_text_minmax(
        self,
        name: str,
        raw,
        mask: np.ndarray,
        inverse: np.ndarray,
        counts: np.ndarray,
    ) -> np.ndarray:
        """MIN/MAX over a text column: reduce the integer codes, decode once."""
        all_codes, vocabulary = text_codes(raw)
        codes = all_codes[mask]
        result = np.empty(self._num_groups, dtype=object)
        result[:] = None
        if len(codes):
            order = np.argsort(inverse, kind="stable")
            sorted_inverse = inverse[order]
            sorted_codes = codes[order]
            boundaries = np.concatenate(([0], np.flatnonzero(np.diff(sorted_inverse)) + 1))
            reducer = np.minimum if name == "min" else np.maximum
            reduced = reducer.reduceat(sorted_codes, boundaries)
            groups = sorted_inverse[boundaries]
            decoded = vocabulary[reduced]
            for group, value in zip(groups.tolist(), decoded.tolist()):
                result[group] = value
        return result


# ---------------------------------------------------------------------------
# Window functions (vectorized sort-once, segment-boundary kernels)
# ---------------------------------------------------------------------------

#: Ranking-family window functions (no frame; position/peer based).
WINDOW_RANKING_FUNCTIONS = {"row_number", "rank", "dense_rank", "lag", "lead"}

#: Aggregates usable as running window functions over a frame.
WINDOW_AGGREGATE_FUNCTIONS = {"sum", "count", "min", "max", "avg", "total"}


def validate_window_usage(select: Select, has_aggregates: bool) -> bool:
    """Check window placement rules; returns whether the SELECT has windows.

    The planner calls it at compile time to reject window calls outside the
    SELECT list, and windows mixed with GROUP BY / plain aggregates
    (evaluation order would be ambiguous in the supported subset).
    """
    outside: list[Expression] = []
    if select.where is not None:
        outside.append(select.where)
    outside.extend(select.group_by)
    if select.having is not None:
        outside.append(select.having)
    outside.extend(item.expression for item in select.order_by)
    for join in select.joins:
        outside.append(join.condition)
    for expression in outside:
        if expression.has_window:
            raise SQLExecutionError("window functions are only allowed in the SELECT list")
    if select.has_windows and (select.group_by or has_aggregates):
        raise SQLExecutionError(
            "window functions cannot be combined with GROUP BY or plain aggregates"
        )
    return select.has_windows


def _collect_windows(expression: Expression, out: list[WindowFunction]) -> None:
    if isinstance(expression, WindowFunction):
        if expression not in out:
            out.append(expression)
    elif expression.has_window:
        for child in expression.children():
            _collect_windows(child, out)


def _replace_windows(
    expression: Expression, mapping: Mapping[WindowFunction, ColumnRef]
) -> Expression:
    """Substitute computed window columns for their WindowFunction nodes."""
    return transform_expression(
        expression, lambda node: mapping[node] if isinstance(node, WindowFunction) else node
    )


class _SortedWindow:
    """Partition/peer segment geometry of one sorted window pass.

    All fields are per-row arrays in *sorted* coordinates: ``order`` maps
    sorted position -> input row, ``part_start``/``part_end`` are each row's
    partition bounds, ``pos`` its offset inside the partition, and
    ``peer_start``/``peer_end`` the bounds of its ORDER-BY peer group (rows
    comparing equal on every window ORDER BY key).
    """

    __slots__ = ("order", "n", "part_start", "part_end", "pos", "peer_start", "peer_end", "new_peer")

    def __init__(self, order, n, part_start, part_end, pos, peer_start, peer_end, new_peer):
        self.order = order
        self.n = n
        self.part_start = part_start
        self.part_end = part_end
        self.pos = pos
        self.peer_start = peer_start
        self.peer_end = peer_end
        self.new_peer = new_peer


def _sorted_partitions(
    evaluator: ExpressionEvaluator,
    partition_by: Sequence[Expression],
    order_by: Sequence[OrderItem],
    length: int,
) -> _SortedWindow:
    """Sort once by (partition keys, order keys); derive segment boundaries.

    Partition keys use :func:`encoded_codes` (exact int64, text on
    dictionary codes) and order keys :func:`sort_keys` (NULLs first
    ascending, DESC by negation), so partition identity and peer equality
    are decided on exact integer compares — the same key space the sort,
    group-by and join operators already share.
    """
    part_codes = [encoded_codes(evaluator.evaluate(e)) for e in partition_by]
    order_codes = [
        sort_keys(evaluator.evaluate(item.expression), item.descending) for item in order_by
    ]
    keys = list(reversed(order_codes)) + list(reversed(part_codes))
    order = np.lexsort(keys) if keys else np.arange(length, dtype=np.int64)
    n = length

    new_part = np.zeros(n, dtype=bool)
    if n:
        new_part[0] = True
    for code in part_codes:
        sorted_code = code[order]
        new_part[1:] |= sorted_code[1:] != sorted_code[:-1]
    part_starts = np.flatnonzero(new_part)
    counts = np.diff(np.append(part_starts, n))
    part_start = np.repeat(part_starts, counts)
    part_end = np.repeat(part_starts + counts - 1, counts)
    pos = np.arange(n, dtype=np.int64) - part_start

    new_peer = new_part.copy()
    for code in order_codes:
        sorted_code = code[order]
        new_peer[1:] |= sorted_code[1:] != sorted_code[:-1]
    peer_starts = np.flatnonzero(new_peer)
    peer_counts = np.diff(np.append(peer_starts, n))
    peer_start = np.repeat(peer_starts, peer_counts)
    peer_end = np.repeat(peer_starts + peer_counts - 1, peer_counts)
    return _SortedWindow(order, n, part_start, part_end, pos, peer_start, peer_end, new_peer)


def _scatter(win: _SortedWindow, sorted_values: np.ndarray) -> np.ndarray:
    """Map a sorted-domain result column back to input row order."""
    out = np.empty(win.n, dtype=sorted_values.dtype)
    out[win.order] = sorted_values
    return out


def _frame_bounds(spec: WindowSpec, win: _SortedWindow) -> tuple[np.ndarray, np.ndarray]:
    """Per-row inclusive frame bounds ``(lo, hi)`` in sorted coordinates.

    The default frame (no ROWS clause) is SQLite's RANGE UNBOUNDED
    PRECEDING .. CURRENT ROW *including peers* when the window has an ORDER
    BY, and the whole partition otherwise.  Explicit ROWS frames count
    physical rows and are clipped to the partition; an inverted pair
    (``hi < lo``) denotes an empty frame, which aggregates map to NULL
    (COUNT to 0).
    """
    if spec.frame is None:
        lo = win.part_start
        hi = win.peer_end if spec.order_by else win.part_end
        return lo, hi
    start, end = spec.frame
    if start.kind == "unbounded_following" or end.kind == "unbounded_preceding":
        raise SQLExecutionError("invalid window frame: UNBOUNDED on the wrong side")
    i = np.arange(win.n, dtype=np.int64)
    if start.kind == "unbounded_preceding":
        lo = win.part_start
    elif start.kind == "current":
        lo = i
    elif start.kind == "preceding":
        lo = np.maximum(i - start.offset, win.part_start)
    else:  # following
        lo = np.minimum(i + start.offset, win.part_end + 1)
    if end.kind == "unbounded_following":
        hi = win.part_end
    elif end.kind == "current":
        hi = i
    elif end.kind == "following":
        hi = np.minimum(i + end.offset, win.part_end)
    else:  # preceding
        hi = np.maximum(i - end.offset, win.part_start - 1)
    return lo, hi


def _range_reduce(filled: np.ndarray, lo: np.ndarray, hi: np.ndarray, reducer) -> np.ndarray:
    """``reducer`` over ``filled[lo..hi]`` per row via a sparse table.

    Precomputes log(n) doubling levels (level k reduces spans of ``2**k``)
    and answers every row's range with two overlapping block lookups — the
    classic O(n log n) preprocessing / O(1) query min-max structure, fully
    vectorized.  Rows with empty frames must be masked by the caller.
    """
    n = len(filled)
    levels = [filled]
    size = 1
    while size * 2 <= n:
        previous = levels[-1]
        nxt = previous.copy()
        nxt[: n - size] = reducer(previous[: n - size], previous[size:])
        levels.append(nxt)
        size *= 2
    width = hi - lo + 1
    k = np.zeros(n, dtype=np.int64)
    positive = width > 0
    if positive.any():
        k[positive] = np.floor(np.log2(width[positive])).astype(np.int64)
    out = np.empty(n, dtype=filled.dtype)
    for level in np.unique(k) if n else ():
        mask = k == level
        block = 1 << int(level)
        out[mask] = reducer(
            levels[int(level)][lo[mask]], levels[int(level)][hi[mask] - block + 1]
        )
    return out


def _window_lag_lead(
    wf: WindowFunction, win: _SortedWindow, evaluator: ExpressionEvaluator
) -> np.ndarray:
    if wf.is_star or not 1 <= len(wf.arguments) <= 3:
        raise SQLExecutionError(f"{wf.name}() takes 1 to 3 arguments")
    offset = 1
    if len(wf.arguments) >= 2:
        literal = wf.arguments[1]
        if (
            not isinstance(literal, Literal)
            or isinstance(literal.value, bool)
            or not isinstance(literal.value, int)
        ):
            raise SQLExecutionError(f"{wf.name}() offset must be an integer literal")
        offset = int(literal.value)
        if offset < 0:
            raise SQLExecutionError(f"{wf.name}() offset must be non-negative")
    values = evaluator.evaluate(wf.arguments[0])
    default = evaluator.evaluate(wf.arguments[2]) if len(wf.arguments) == 3 else None

    i = np.arange(win.n, dtype=np.int64)
    target = i - offset if wf.name == "lag" else i + offset
    ok = (target >= win.part_start) & (target <= win.part_end)
    safe = np.clip(target, 0, max(win.n - 1, 0))

    def is_text(column) -> bool:
        return isinstance(column, DictArray) or np.asarray(column).dtype.kind in ("O", "U")

    if is_text(values) or (default is not None and is_text(default)):
        sorted_values = np.asarray(gather_values(values, win.order), dtype=object)
        out = np.empty(win.n, dtype=object)
        out[:] = None
        if default is not None:
            sorted_default = np.asarray(gather_values(default, win.order), dtype=object)
            out[~ok] = sorted_default[~ok]
        out[ok] = sorted_values[safe[ok]]
        return _scatter(win, out)
    sorted_values = np.asarray(values, dtype=np.float64)[win.order]
    if default is None:
        sorted_default = np.full(win.n, np.nan)
    else:
        sorted_default = np.asarray(default, dtype=np.float64)[win.order]
    return _scatter(win, np.where(ok, sorted_values[safe], sorted_default))


def _window_aggregate(
    wf: WindowFunction, win: _SortedWindow, evaluator: ExpressionEvaluator
) -> np.ndarray:
    name = wf.name
    lo, hi = _frame_bounds(wf.spec, win)
    if name == "count" and (wf.is_star or not wf.arguments):
        return _scatter(win, np.maximum(hi - lo + 1, 0).astype(np.int64))
    if wf.is_star or len(wf.arguments) != 1:
        raise SQLExecutionError(f"{name.upper()}() window function takes exactly one argument")
    values = evaluator.evaluate(wf.arguments[0])
    if isinstance(values, DictArray) or np.asarray(values).dtype.kind in ("O", "U"):
        raise SQLExecutionError(
            f"{name.upper()}() window function is not supported on text columns"
        )
    sorted_values = np.asarray(values, dtype=np.float64)[win.order]
    valid = ~np.isnan(sorted_values)
    count_prefix = np.concatenate(([0], np.cumsum(valid.astype(np.int64))))
    hi1 = np.maximum(hi + 1, lo)  # empty frames collapse to a zero-width span
    cnt = count_prefix[hi1] - count_prefix[lo]
    if name == "count":
        return _scatter(win, cnt.astype(np.int64))
    if name in ("sum", "total", "avg"):
        sum_prefix = np.concatenate(([0.0], np.cumsum(np.where(valid, sorted_values, 0.0))))
        totals = sum_prefix[hi1] - sum_prefix[lo]
        if name == "total":
            return _scatter(win, totals)
        if name == "avg":
            return _scatter(win, np.where(cnt == 0, np.nan, totals / np.maximum(cnt, 1)))
        return _scatter(win, np.where(cnt == 0, np.nan, totals))
    # MIN / MAX: NULLs filled with the reducer's identity; empty and
    # all-NULL frames are masked to NULL afterwards via the valid count.
    fill = np.inf if name == "min" else -np.inf
    reducer = np.minimum if name == "min" else np.maximum
    filled = np.where(valid, sorted_values, fill)
    last = max(win.n - 1, 0)
    safe_lo = np.minimum(lo, last)
    safe_hi = np.maximum(np.minimum(hi, last), safe_lo)
    reduced = _range_reduce(filled, safe_lo, safe_hi, reducer)
    return _scatter(win, np.where(cnt == 0, np.nan, reduced))


def _window_function_column(
    wf: WindowFunction, win: _SortedWindow, evaluator: ExpressionEvaluator
) -> np.ndarray:
    name = wf.name
    if name in ("row_number", "rank", "dense_rank"):
        if wf.arguments or wf.is_star:
            raise SQLExecutionError(f"{name}() takes no arguments")
        if name == "row_number":
            return _scatter(win, (win.pos + 1).astype(np.int64))
        if name == "rank":
            return _scatter(win, (win.peer_start - win.part_start + 1).astype(np.int64))
        ordinal = np.cumsum(win.new_peer.astype(np.int64))
        return _scatter(win, (ordinal - ordinal[win.part_start] + 1).astype(np.int64))
    if name in ("lag", "lead"):
        return _window_lag_lead(wf, win, evaluator)
    if name in WINDOW_AGGREGATE_FUNCTIONS:
        return _window_aggregate(wf, win, evaluator)
    raise SQLExecutionError(f"unknown window function {name!r}")


def compute_window_columns(
    windows: Sequence[WindowFunction], frame: Frame, length: int
) -> dict[WindowFunction, np.ndarray]:
    """Evaluate every window function once; one sort per distinct key set.

    Functions sharing ``(PARTITION BY, ORDER BY)`` keys share a single
    lexsort and segment-boundary pass; only the per-function kernel (rank
    arithmetic, shifted gather, prefix-sum frame reduction) differs.
    """
    evaluator = ExpressionEvaluator(frame, length)
    groups: dict[tuple, list[WindowFunction]] = {}
    for wf in windows:
        groups.setdefault((wf.spec.partition_by, wf.spec.order_by), []).append(wf)
    results: dict[WindowFunction, np.ndarray] = {}
    for (partition_by, order_by), funcs in groups.items():
        win = _sorted_partitions(evaluator, partition_by, order_by, length)
        for wf in funcs:
            results[wf] = _window_function_column(wf, win, evaluator)
    return results


def windowed_projection(
    select: Select, frame: Frame, length: int
) -> tuple[list[str], list[np.ndarray], Frame]:
    """Window physical operator: compute window columns, then project.

    Window results are 1:1 with the (post-WHERE) input rows, so the
    returned extended frame keeps the aligned-ORDER-BY path of
    :func:`postprocess_select` available — ORDER BY may still reference
    source columns alongside window aliases.
    """
    windows: list[WindowFunction] = []
    for item in select.items:
        if isinstance(item.expression, Star):
            raise SQLExecutionError("'*' projection cannot be combined with window functions")
        _collect_windows(item.expression, windows)
    results = compute_window_columns(windows, frame, length)
    extended: Frame = dict(frame)
    mapping: dict[WindowFunction, ColumnRef] = {}
    for index, wf in enumerate(windows):
        key = f"__win{index}"
        extended[key] = results[wf]
        mapping[wf] = ColumnRef(key)
    items = tuple(
        SelectItem(
            _replace_windows(item.expression, mapping),
            item.alias or item_output_name(item, position),
        )
        for position, item in enumerate(select.items)
    )
    names, vectors = plain_projection(items, extended, length)
    return names, vectors, extended


# ---------------------------------------------------------------------------
# Recursive common table expressions (breadth-first fixpoint)
# ---------------------------------------------------------------------------

#: Default iteration cap for ``WITH RECURSIVE`` fixpoints.
DEFAULT_RECURSION_LIMIT = 1000


def _self_reference_count(select: Select, name: str) -> int:
    count = 0
    if select.source is not None and select.source.name == name:
        count += 1
    for join in select.joins:
        if join.source.name == name:
            count += 1
    return count


def _dedup_key(row: tuple) -> tuple:
    """UNION-dedup key: NULLs compare equal, 2 and 2.0 compare equal."""
    key = []
    for value in row:
        if value is None:
            key.append(None)
        elif isinstance(value, bool):
            key.append(float(value))
        elif isinstance(value, (int, float, np.number)):
            number = float(value)
            key.append(None if number != number else number)
        else:
            key.append(value)
    return tuple(key)


def rows_from_vectors(vectors: Sequence[np.ndarray]) -> list[tuple]:
    """Materialize result vectors as Python row tuples (``None`` for NULL).

    ``ndarray.tolist`` converts whole columns to Python scalars at C speed;
    dictionary-encoded text decodes once here, at the representation
    boundary.
    """
    return list(zip(*[to_pylist(values) for values in vectors]))


def _column_array(values: list):
    """Rebuild one column vector from Python values (fixpoint accumulation).

    Text columns become object arrays (``None`` at NULLs); all-integer
    columns come back as int64; anything else is float64 with NaN NULLs.
    """
    if any(isinstance(value, str) for value in values):
        out = np.empty(len(values), dtype=object)
        out[:] = values
        return out
    all_int = bool(values)
    clean = []
    for value in values:
        if value is None:
            clean.append(np.nan)
            all_int = False
        elif isinstance(value, bool):
            clean.append(int(value))
        elif isinstance(value, (int, np.integer)):
            clean.append(int(value))
        else:
            clean.append(float(value))
            all_int = False
    if all_int:
        return np.array(clean, dtype=np.int64)
    return np.array(clean, dtype=np.float64)


def vectors_from_rows(width: int, rows: Sequence[tuple]) -> list[np.ndarray]:
    """Inverse of :func:`rows_from_vectors` for ``width`` columns."""
    return [_column_array([row[index] for row in rows]) for index in range(width)]


def cte_output_names(name: str, alias_columns: Sequence[str], names: Sequence[str]) -> list[str]:
    """A CTE's output names: its declared column alias list, else its query's."""
    if not alias_columns:
        return list(names)
    if len(alias_columns) != len(names):
        raise SQLExecutionError(
            f"CTE {name!r} declares {len(alias_columns)} columns "
            f"but its query returns {len(names)}"
        )
    return list(alias_columns)


def run_compound_cte(
    name: str,
    compound: CompoundSelect,
    recursive: bool,
    alias_columns: Sequence[str],
    run_base: "Callable[[], tuple[list[str], list[np.ndarray]]]",
    run_step: "Callable[[TransientTable | None], tuple[list[str], list[np.ndarray]]]",
    recursion_limit: int = DEFAULT_RECURSION_LIMIT,
    observe_iteration: "Callable[[int, int], None] | None" = None,
) -> tuple[list[str], list[np.ndarray]]:
    """Evaluate a ``UNION [ALL]`` CTE body, recursively when self-referencing.

    The fixpoint driver behind the compiled plan's UNION CTE operator:
    ``run_base`` evaluates the base term once, then ``run_step``
    evaluates the recursive term against a frontier table bound to the
    CTE's own name — breadth-first semi-naive evaluation, where each step
    sees only the rows the previous step produced.  ``UNION`` deduplicates
    against everything already emitted (NULLs compare equal), so cycles in
    the underlying data still terminate; ``UNION ALL`` only terminates when
    a step comes back empty, and trips ``recursion_limit`` otherwise
    instead of hanging.  ``observe_iteration(iteration, new_rows)`` feeds
    tracing/EXPLAIN iteration counts.
    """
    if _self_reference_count(compound.left, name):
        raise SQLExecutionError(
            f"circular reference: the base term of CTE {name!r} may not reference it"
        )
    references = _self_reference_count(compound.right, name)
    if references > 1:
        raise SQLExecutionError(f"recursive CTE {name!r} may reference itself only once")
    if references and not recursive:
        raise SQLExecutionError(
            f"no such table: {name} (self-referencing CTEs need WITH RECURSIVE)"
        )
    if references and (
        compound.right.group_by
        or select_has_aggregates(compound.right)
        or compound.right.distinct
    ):
        raise SQLExecutionError(
            f"the recursive term of CTE {name!r} may not use aggregates, GROUP BY or DISTINCT"
        )

    base_names, base_vectors = run_base()
    names = cte_output_names(name, alias_columns, base_names)
    base_rows = rows_from_vectors(base_vectors)

    dedup = not compound.all
    seen: set = set()
    result_rows: list[tuple] = []
    if dedup:
        for row in base_rows:
            key = _dedup_key(row)
            if key not in seen:
                seen.add(key)
                result_rows.append(row)
    else:
        result_rows = list(base_rows)

    if not references:
        step_names, step_vectors = run_step(None)
        if len(step_names) != len(names):
            raise SQLExecutionError(
                f"UNION branches of CTE {name!r} return different column counts"
            )
        for row in rows_from_vectors(step_vectors):
            if dedup:
                key = _dedup_key(row)
                if key in seen:
                    continue
                seen.add(key)
            result_rows.append(row)
        return names, vectors_from_rows(len(names), result_rows)

    frontier = list(result_rows) if dedup else list(base_rows)
    iteration = 0
    while frontier:
        iteration += 1
        if iteration > recursion_limit:
            raise SQLExecutionError(
                f"recursive CTE {name!r} exceeded the iteration limit ({recursion_limit}): "
                "the recursion does not converge — bound the recursive term "
                "or use UNION instead of UNION ALL"
            )
        frontier_table = TransientTable(name, names, vectors_from_rows(len(names), frontier))
        step_names, step_vectors = run_step(frontier_table)
        if len(step_names) != len(names):
            raise SQLExecutionError(
                f"recursive CTE {name!r}: the recursive term returns "
                f"{len(step_names)} columns, expected {len(names)}"
            )
        new_rows = rows_from_vectors(step_vectors)
        if dedup:
            fresh = []
            for row in new_rows:
                key = _dedup_key(row)
                if key in seen:
                    continue
                seen.add(key)
                fresh.append(row)
            frontier = fresh
        else:
            frontier = new_rows
        result_rows.extend(frontier)
        if observe_iteration is not None:
            observe_iteration(iteration, len(frontier))
    return names, vectors_from_rows(len(names), result_rows)


# ---------------------------------------------------------------------------
# Join machinery
# ---------------------------------------------------------------------------


def apply_filter(frame: Frame, length: int, predicate: Expression) -> tuple[Frame, int]:
    """Filter a frame by a predicate (used for optimizer-pushed scan filters)."""
    mask = ExpressionEvaluator(frame, length).evaluate(predicate).astype(bool, copy=False)
    return {key: values[mask] for key, values in frame.items()}, int(mask.sum())


#: Direct addressing — of groups in :func:`factorize_codes`, of the build
#: side in :func:`join_indices` — is chosen while the observed key span
#: (``max - min + 1``) is below this many slots per input row: the slot
#: tables then stay within a small multiple of the input.  Wider domains
#: (sparse states over many qubits, float keys) sort instead.
_DENSE_SLOTS_PER_ROW = 4


def _is_integer_vector(values) -> bool:
    # Signed only: a uint64 key past 2**63 has no int64 slot to address.
    return isinstance(values, np.ndarray) and values.dtype.kind == "i"


def join_indices(left_keys, right_keys) -> tuple[np.ndarray | slice, np.ndarray]:
    """Row indices ``(left_idx, right_idx)`` of the inner equi-join of two key columns.

    Matches are emitted in left-row order with ties in right-row order — the
    order a build-right/probe-left hash join produces.  NULL keys never
    match, per SQL semantics.  When every left row matches exactly one right
    row, ``left_idx`` is the identity ``slice(None)``: gathering a left
    column by it is a view, not a copy.

    The kernel is picked from the keys, as :func:`factorize_codes` picks its
    grouping: integer keys whose right (build) side spans few slots per row
    — a gate table's ``in_s`` covers ``[0, 2**k)`` — are joined by direct
    addressing, everything else in the exact ``int64`` code space of
    :func:`join_key_codes` by sort + ``searchsorted``.  Both kernels return
    the same index arrays.
    """
    if _is_integer_vector(left_keys) and _is_integer_vector(right_keys) and len(right_keys):
        low = int(right_keys.min())
        # Python ints: the span of keys near the int64 extremes must not wrap.
        span = int(right_keys.max()) - low + 1
        if span <= _DENSE_SLOTS_PER_ROW * len(right_keys):
            left = left_keys.astype(np.int64, copy=False)
            return _join_direct(left, right_keys.astype(np.int64, copy=False), low, span)
    return _join_sorted(left_keys, right_keys)


def _join_direct(
    left: np.ndarray, right: np.ndarray, low: int, span: int
) -> tuple[np.ndarray | slice, np.ndarray]:
    """Join int64 keys by addressing the right side's ``span`` slots from ``low``.

    The right side is bucketed once (``bincount`` + stable ``argsort``);
    each left row reads its match count and first match at ``key - low``.
    Slot ``span`` is an always-empty sentinel for keys outside the span.
    """
    slots = right - low
    per_slot = np.bincount(slots, minlength=span + 1)
    first_of_slot = per_slot.cumsum() - per_slot
    # The difference wraps for keys below ``low``; read as unsigned it then
    # lies above every real slot, like the difference of keys past the span.
    probe = (left - low).view(np.uint64)
    probe = np.minimum(probe, span, out=probe).view(np.int64)
    return _expand_matches(
        slots.argsort(kind="stable"), first_of_slot[probe], per_slot[probe]
    )


def _join_sorted(left_keys, right_keys) -> tuple[np.ndarray | slice, np.ndarray]:
    """Join any two key columns in the exact code space, by sort + ``searchsorted``."""
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
    lo = np.searchsorted(sorted_right, left, side="left")
    hi = np.searchsorted(sorted_right, left, side="right")
    left_idx, right_idx = _expand_matches(order, lo, hi - lo)
    if left_map is not None:
        left_idx = left_map[left_idx]
    if right_map is not None:
        right_idx = right_map[right_idx]
    return left_idx, right_idx


def _expand_matches(
    order: np.ndarray, starts: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray | slice, np.ndarray]:
    """Index pairs from per-left-row match runs ``order[start : start + count]``."""
    rows = len(counts)
    if rows and counts.min() == 1 == counts.max():
        # One match per left row (a gate that permutes or rephases basis
        # states has one row per ``in_s``): the left side is the identity.
        return slice(None), order[starts]
    total = int(counts.sum())
    left_idx = np.repeat(np.arange(rows, dtype=np.int64), counts)
    within = np.arange(total, dtype=np.int64) - np.repeat(np.cumsum(counts) - counts, counts)
    return left_idx, order[np.repeat(starts, counts) + within]


def split_join_condition(
    condition: Expression, left_frame: Frame, right_frame: Frame
) -> tuple[Expression, Expression]:
    """Split ``ON left = right`` so each side references exactly one input."""
    if not isinstance(condition, BinaryOp) or condition.operator != "=":
        raise SQLExecutionError("JOIN ... ON only supports a single equality condition")

    def references(expression: Expression, frame: Frame) -> bool:
        if isinstance(expression, ColumnRef):
            return expression.key() in frame or expression.name in frame
        if isinstance(expression, BinaryOp):
            return references(expression.left, frame) and references(expression.right, frame)
        if isinstance(expression, UnaryOp):
            return references(expression.operand, frame)
        if isinstance(expression, Literal):
            return True
        if isinstance(expression, FunctionCall):
            return all(references(argument, frame) for argument in expression.arguments)
        return False

    left_expr, right_expr = condition.left, condition.right
    if references(left_expr, left_frame) and references(right_expr, right_frame):
        return left_expr, right_expr
    if references(right_expr, left_frame) and references(left_expr, right_frame):
        return right_expr, left_expr
    raise SQLExecutionError("JOIN condition must compare one side per table")


def _evaluate_serial(frame: Frame, length: int, expression: Expression) -> np.ndarray:
    return ExpressionEvaluator(frame, length).evaluate(expression)


def _gather_serial(values: np.ndarray, indices: np.ndarray) -> np.ndarray:
    return values[indices]


def hash_join_frames(
    left_frame: Frame,
    left_length: int,
    right_frame: Frame,
    right_length: int,
    left_key_expr: Expression,
    right_key_expr: Expression,
    evaluate: "Callable[[Frame, int, Expression], np.ndarray] | None" = None,
    join: "Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]] | None" = None,
    gather: "Callable[[np.ndarray, np.ndarray], np.ndarray] | None" = None,
) -> tuple[Frame, int]:
    """Inner-join two frames on pre-split key expressions, merging their columns.

    ``evaluate`` / ``join`` / ``gather`` override the kernel strategies (the
    morsel-parallel path passes its pool-backed variants); the defaults are
    the serial kernels.  There is exactly one body for the column-merge
    discipline — ambiguous bare names, length-mismatch passthrough — so the
    serial and parallel joins can never diverge on it.
    """
    evaluate = evaluate or _evaluate_serial
    join = join or join_indices
    gather = gather or _gather_serial
    left_keys = evaluate(left_frame, left_length, left_key_expr)
    right_keys = evaluate(right_frame, right_length, right_key_expr)
    left_idx, right_idx = join(left_keys, right_keys)

    merged: Frame = {}
    for key, values in left_frame.items():
        merged[key] = gather(values, left_idx) if len(values) == left_length else values
    for key, values in right_frame.items():
        gathered = gather(values, right_idx) if len(values) == right_length else values
        if key in merged and "." not in key:
            # Ambiguous bare column name: keep only the qualified forms.
            del merged[key]
            continue
        merged[key] = gathered
    return merged, len(right_idx)


# ---------------------------------------------------------------------------
# Projection / post-processing stages
# ---------------------------------------------------------------------------


def select_has_aggregates(select: Select) -> bool:
    """True when the projection or HAVING clause contains an aggregate call."""
    return any(item.expression.has_aggregate for item in select.items) or (
        select.having is not None and select.having.has_aggregate
    )


def item_output_name(item: SelectItem, position: int) -> str:
    """The result-column name of one projection item."""
    if item.alias:
        return item.alias
    if isinstance(item.expression, ColumnRef):
        return item.expression.name
    return f"col{position}"


def plain_projection(
    items: Sequence[SelectItem],
    frame: Frame,
    length: int,
    evaluate: "Callable[[Expression], np.ndarray] | None" = None,
) -> tuple[list[str], list[np.ndarray]]:
    """Evaluate a non-aggregating projection (including ``*`` expansion).

    Returns the output names and, aligned with them, the result vectors —
    positional, so two items with the same output name (``SELECT x.s,
    y.s``) stay two columns.  ``evaluate`` overrides the expression
    strategy (the morsel-parallel path passes its pool-backed evaluator);
    the ``*`` expansion and output naming have exactly one body either way.
    """
    names: list[str] = []
    vectors: list[np.ndarray] = []
    if evaluate is None:
        evaluate = ExpressionEvaluator(frame, length).evaluate
    for position, item in enumerate(items):
        if isinstance(item.expression, Star):
            for key, values in frame.items():
                if "." in key:
                    binding, column = key.split(".", 1)
                    if item.expression.table and binding != item.expression.table:
                        continue
                    if column not in names:
                        names.append(column)
                        vectors.append(values)
            continue
        names.append(item_output_name(item, position))
        vectors.append(evaluate(item.expression))
    return names, vectors


def _empty_aggregate_value(expression: Expression) -> np.ndarray:
    if isinstance(expression, FunctionCall) and expression.name == "count":
        return np.zeros(1, dtype=np.int64)
    return np.full(1, np.nan)


def factorize_codes(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """``(first_indices, inverse, num_groups)`` of one int64 code column.

    Exactly ``np.unique(codes, return_index=True, return_inverse=True)``
    minus the unique values: groups are numbered in ascending code order,
    ``first_indices`` holds each group's first input row and ``inverse``
    each row's group.  Small dense domains — the paper's state indices —
    are grouped by direct addressing on ``code - min``; everything else
    takes the sort.  Both produce identical arrays, so per-group
    accumulation order (and with it every float SUM) does not depend on
    the choice.
    """
    length = len(codes)
    if length == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, 0
    low = int(codes.min())
    # Python ints: the span of keys near the int64 extremes must not wrap.
    span = int(codes.max()) - low + 1
    if span > _DENSE_SLOTS_PER_ROW * length:
        _unique, first_indices, inverse = np.unique(
            codes, return_index=True, return_inverse=True
        )
        return first_indices, inverse, len(first_indices)
    slots = codes - low
    first_by_slot = np.empty(span, dtype=np.int64)
    # Repeated indices keep the last assignment, so storing the row numbers
    # back to front leaves each slot's first row.
    first_by_slot[slots[::-1]] = np.arange(length - 1, -1, -1, dtype=np.int64)
    occupied = np.zeros(span, dtype=bool)
    occupied[slots] = True
    num_groups = int(np.count_nonzero(occupied))
    if num_groups == span:
        return first_by_slot, slots, span
    group_of_slot = np.cumsum(occupied) - 1
    return first_by_slot[occupied], group_of_slot[slots], num_groups


def grouped_projection(select: Select, frame: Frame, length: int) -> tuple[list[str], list[np.ndarray]]:
    """Evaluate a GROUP BY / aggregate projection (including HAVING)."""
    evaluator = ExpressionEvaluator(frame, length)
    if select.group_by:
        # Group on exact int64 codes (ints pass through, floats via a
        # monotone bit transform, text via dictionary codes): grouping is
        # exact for wide int64 values, all NULL keys land in one group
        # (SQLite semantics), and group output order is still ascending key
        # order with NULLs first.
        code_columns = [
            encoded_codes(evaluator.evaluate(expression)) for expression in select.group_by
        ]
        if len(code_columns) == 1:
            first_indices, inverse, num_groups = factorize_codes(code_columns[0])
        elif length:
            _unique, first_indices, inverse = np.unique(
                np.stack(code_columns, axis=1), axis=0, return_index=True, return_inverse=True
            )
            inverse = inverse.ravel()
            num_groups = len(first_indices)
        else:
            first_indices = np.empty(0, dtype=np.int64)
            inverse = np.empty(0, dtype=np.int64)
            num_groups = 0
    else:
        # Aggregates without GROUP BY: everything is one group.
        num_groups = 1
        inverse = np.zeros(length, dtype=np.int64)
        first_indices = np.zeros(1, dtype=np.int64)

    grouped = GroupedEvaluator(frame, length, inverse, num_groups, first_indices)

    names: list[str] = []
    vectors: list[np.ndarray] = []
    for position, item in enumerate(select.items):
        if isinstance(item.expression, Star):
            raise SQLExecutionError("'*' projection cannot be combined with GROUP BY / aggregates")
        names.append(item_output_name(item, position))
        if length == 0 and not select.group_by:
            # Aggregates over an empty input: COUNT -> 0, SUM/MIN/MAX -> NULL.
            vectors.append(_empty_aggregate_value(item.expression))
        else:
            vectors.append(grouped.evaluate(item.expression))

    if select.having is not None:
        having_values = grouped.evaluate(select.having).astype(bool, copy=False)
        vectors = [values[having_values] for values in vectors]
    return names, vectors


#: Highest Unicode code point; the reverse-collation terminator.
_REVERSE_COLLATION_MAX = 0x10FFFF


def _reverse_collation(values: np.ndarray) -> np.ndarray:
    """Map strings to keys whose *ascending* order is the originals' DESC order.

    Each code point ``c`` maps to ``MAX - c`` — an injective, strictly
    order-reversing flip over the whole code space — and the NUL padding of
    numpy's fixed-width unicode layout maps to ``MAX`` itself, above every
    flipped real code point, so a string sorts *after* its own proper
    prefixes: exactly the descending total order SQLite's byte-wise
    collation produces (UTF-8 byte order equals code-point order).  Equal
    inputs map to equal keys, which keeps stable sorts stable and lets
    :func:`top_k_indices` partition on the transformed key directly — this
    is what makes the bounded top-k operator available to ``ORDER BY
    <text> DESC`` queries.

    The whole transform runs on the UCS-4 code-unit view (one vectorized
    pass, no per-character Python), so a multi-million-row DESC key costs a
    handful of array ops.  Strings containing literal NULs collapse with
    the padding (unreachable through the SQL layer).
    """
    text = np.ascontiguousarray(values.astype(str))
    if text.size == 0 or text.dtype.itemsize == 0:
        return text
    width = text.dtype.itemsize // 4
    codes = text.view(np.uint32).reshape(len(text), width)
    # MAX - 0 = MAX: the padding maps to the top value with no extra pass.
    flipped = np.uint32(_REVERSE_COLLATION_MAX) - codes
    return np.ascontiguousarray(flipped).view(f"<U{width}").reshape(len(text))


def _order_keys(order_by: Sequence[OrderItem], length: int, order_frame: Frame) -> list[np.ndarray]:
    """The ``np.lexsort`` key stack for ORDER BY (last key = highest priority)."""
    evaluator = ExpressionEvaluator(order_frame, length)
    keys: list[np.ndarray] = []
    for item in reversed(order_by):
        values = evaluator.evaluate(item.expression)
        # Exact int64 keys for every representation: NULLs sort first
        # ascending and last descending (SQLite), text sorts on dictionary
        # codes, and DESC is a plain negation — injective, so ties and
        # stability behave exactly like a sort on the values.
        keys.append(sort_keys(values, item.descending))
    return keys


def top_k_indices(keys: list[np.ndarray], k: int) -> np.ndarray:
    """Row indices of the ``k`` first rows under ``np.lexsort(keys)`` order.

    The bounded top-k pass behind LIMIT-below-ORDER-BY: partition the input
    around the k-th ranked *primary* key, keep only the rows that can still
    reach the ordered prefix (strictly-smaller primaries plus every tie at
    the cutoff — secondary keys decide among ties, so none may be dropped),
    and fully sort just those candidates.  Candidates are kept in input
    order and ``np.lexsort`` is stable, so the result is *exactly*
    ``np.lexsort(keys)[:k]`` — including tie resolution — at
    ``O(n + c log c)`` instead of ``O(n log n)``.
    """
    primary = keys[-1]
    total = len(primary)
    if k <= 0:
        return np.empty(0, dtype=np.int64)
    if k >= total:
        return np.lexsort(keys)
    cutoff = np.partition(primary, k - 1)[k - 1]
    if primary.dtype.kind == "f" and np.isnan(cutoff):
        # The prefix reaches into the NaN tail (NaN sorts last): every row
        # is still a candidate, so this degrades to a full sort.
        candidates = np.arange(total, dtype=np.int64)
    else:
        candidates = np.flatnonzero(primary <= cutoff)
    order = np.lexsort([key[candidates] for key in keys])[:k]
    return candidates[order]


def order_vectors(
    vectors: list[np.ndarray],
    order_by: Sequence[OrderItem],
    length: int,
    order_frame: Frame,
    prefix: int | None = None,
) -> list[np.ndarray]:
    """Sort result vectors by the ORDER BY keys (last key has lowest priority).

    ``order_frame`` is what the key expressions may name: the output
    columns, plus the source columns while rows are still aligned 1:1.

    ``prefix`` (the top-k fast path) keeps only the first ``prefix`` rows of
    the sorted order, computed with a partition-based selection instead of a
    full sort; the kept rows and their order are identical to a full sort.
    """
    keys = _order_keys(order_by, length, order_frame)
    if prefix is not None and prefix < length:
        order = top_k_indices(keys, prefix)
    else:
        order = np.lexsort(keys)
    return [values[order] for values in vectors]


def limit_bounds(select: Select) -> tuple[int, int | None]:
    """``(start, stop)`` slice bounds of LIMIT/OFFSET under SQLite semantics.

    A negative LIMIT means "no limit" (stop = None); a negative OFFSET is
    treated as 0; an OFFSET beyond the row count yields an empty result via
    ordinary slicing.
    """
    start = select.offset if select.offset is not None and select.offset > 0 else 0
    if select.limit is None or select.limit < 0:
        return start, None
    return start, start + select.limit


def postprocess_select(
    select: Select,
    names: list[str],
    vectors: list[np.ndarray],
    frame: Frame | None,
    length: int,
    has_aggregates: bool,
    use_topk: bool = False,
    observe: "Callable[[int], None] | None" = None,
) -> tuple[list[str], list[np.ndarray]]:
    """Apply the SELECT tail: HAVING validation, DISTINCT, ORDER BY, LIMIT.

    ``use_topk`` carries the compiled plan's costed top-k decision (push the
    LIMIT+OFFSET prefix below ORDER BY via a bounded selection).  Both
    strategies produce identical rows — top-k reproduces the stable full
    sort exactly — so the choice is purely a matter of cost.

    ``observe`` (adaptive feedback / EXPLAIN ANALYZE) receives the block's
    *pre-limit* row count — the cardinality the optimizer's pre-limit
    estimate predicts, which the LIMIT would otherwise mask.
    """
    result_length = len(vectors[0]) if vectors else 0

    if select.having is not None and not (select.group_by or has_aggregates):
        raise SQLExecutionError("HAVING requires GROUP BY or aggregates")

    if select.distinct and result_length:
        # DISTINCT on exact int64 codes: NULLs compare equal (SQLite), wide
        # int64 values never collide, text dedups on dictionary codes.
        stacked = np.stack([encoded_codes(values) for values in vectors], axis=1)
        _unique, indices = np.unique(stacked, axis=0, return_index=True)
        keep = np.sort(indices)
        vectors = [values[keep] for values in vectors]
        result_length = len(keep)

    if observe is not None:
        observe(result_length)

    start, stop = limit_bounds(select)

    if select.order_by and result_length:
        # ORDER BY may reference source columns (SQLite semantics) as long as
        # the output rows are still aligned 1:1 with the input rows.
        aligned = (
            frame is not None
            and not (select.group_by or has_aggregates or select.distinct)
            and result_length == length
        )
        # Of two output columns with one name ORDER BY sees the first.
        order_frame: Frame = dict(frame) if aligned else {}
        order_frame.update(zip(reversed(names), reversed(vectors)))
        vectors = order_vectors(
            vectors, select.order_by, result_length, order_frame,
            prefix=stop if use_topk else None,
        )

    if select.limit is not None or start:
        vectors = [values[start:stop] for values in vectors]

    return names, vectors


# ---------------------------------------------------------------------------
# Query results
# ---------------------------------------------------------------------------


def _read_only(values: np.ndarray | DictArray) -> np.ndarray | DictArray:
    """A view of a result vector that refuses writes (no data is copied)."""
    if isinstance(values, DictArray):
        return DictArray(_read_only(values.codes), _read_only(values.dictionary))
    view = values.view()
    view.flags.writeable = False
    return view


class QueryResult:
    """Column names plus the result's column vectors, carried positionally.

    ``vectors[k]`` belongs to ``columns[k]``.  ``rows`` — the same tuples a
    DB-API cursor would return — are built on first use and cached, so a
    caller that stays columnar (the memdb backend reading the final state)
    never pays for per-value Python objects.  The vectors are read-only
    views: a projection that passes a column through untouched hands back
    the stored table's own array, and a result must not be a way to write
    to a table.  ``rowcount`` is the number of result rows, or the rows a
    DDL / DML statement affected.
    """

    __slots__ = ("columns", "vectors", "rowcount", "_rows")

    def __init__(
        self,
        columns: list[str],
        vectors: Sequence[np.ndarray | DictArray] = (),
        rowcount: int | None = None,
    ) -> None:
        self.columns = columns
        self.vectors = [_read_only(values) for values in vectors]
        self.rowcount = len(self) if rowcount is None else rowcount
        self._rows: list[tuple] | None = None

    @property
    def rows(self) -> list[tuple]:
        """The result as Python row tuples (``None`` for NULL)."""
        if self._rows is None:
            self._rows = rows_from_vectors(self.vectors)
        return self._rows

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.vectors[0]) if self.vectors else 0

    def __repr__(self) -> str:
        return f"QueryResult(columns={self.columns}, rows={len(self)})"


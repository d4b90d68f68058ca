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
from typing import Callable, Sequence

import numpy as np

from ...errors import SQLExecutionError
from .ast_nodes import (
    AGGREGATE_FUNCTIONS,
    BinaryOp,
    CaseExpression,
    ColumnRef,
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
)
from .column import (
    DictArray,
    compare_values,
    encoded_codes,
    join_key_codes,
    null_mask,
    sort_keys,
    text_codes,
    to_pylist,
)

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

    The one expression evaluator of the engine: compiled plans and DELETE
    predicates both call :meth:`evaluate`.
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
# Join machinery
# ---------------------------------------------------------------------------


def apply_filter(frame: Frame, length: int, predicate: Expression) -> tuple[Frame, int]:
    """Filter a frame by a predicate (a WHERE clause)."""
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


def hash_join_frames(
    left_frame: Frame,
    left_length: int,
    right_frame: Frame,
    right_length: int,
    left_key_expr: Expression,
    right_key_expr: Expression,
) -> tuple[Frame, int]:
    """Inner-join two frames on pre-split key expressions, merging their columns.

    An ambiguous bare column name keeps only its qualified forms; a column
    whose length differs from its frame's passes through ungathered.
    """
    left_keys = ExpressionEvaluator(left_frame, left_length).evaluate(left_key_expr)
    right_keys = ExpressionEvaluator(right_frame, right_length).evaluate(right_key_expr)
    left_idx, right_idx = join_indices(left_keys, right_keys)

    merged: Frame = {}
    for key, values in left_frame.items():
        merged[key] = values[left_idx] if len(values) == left_length else values
    for key, values in right_frame.items():
        gathered = values[right_idx] if len(values) == right_length else values
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


def plain_projection(
    items: Sequence[SelectItem],
    frame: Frame,
    length: int,
) -> tuple[list[str], list[np.ndarray]]:
    """Evaluate a non-aggregating projection (including ``*`` expansion).

    Returns the output names and, aligned with them, the result vectors —
    positional, so two items with the same output name (``SELECT x.s,
    y.s``) stay two columns.
    """
    names: list[str] = []
    vectors: list[np.ndarray] = []
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
    observe: "Callable[[int], None] | None" = None,
) -> tuple[list[str], list[np.ndarray]]:
    """Apply the SELECT tail: HAVING validation, DISTINCT, ORDER BY, LIMIT.

    Under a LIMIT, ORDER BY selects the ``LIMIT + OFFSET`` prefix with the
    bounded top-k pass whenever the input is longer (see
    :func:`order_vectors`); it reproduces the stable full sort exactly.

    ``observe`` (EXPLAIN ANALYZE and block spans) receives the block's
    *pre-limit* row count, which the LIMIT would otherwise mask.
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
            prefix=stop,
        )

    if select.limit is not None or start:
        vectors = [values[start:stop] for values in vectors]

    return names, vectors


# ---------------------------------------------------------------------------
# Query results
# ---------------------------------------------------------------------------


def rows_from_vectors(vectors: Sequence[np.ndarray]) -> list[tuple]:
    """Materialize result vectors as Python row tuples (``None`` for NULL).

    ``ndarray.tolist`` converts whole columns to Python scalars at C speed;
    dictionary-encoded text decodes once here, at the representation
    boundary.
    """
    return list(zip(*[to_pylist(values) for values in vectors]))


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


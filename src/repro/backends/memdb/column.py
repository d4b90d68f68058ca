"""Encoded columnar storage: dictionary codes, validity bitmaps, chunks.

This module is the v2 storage representation underneath
:class:`~repro.backends.memdb.table.Table`:

* **Dictionary encoding** — TEXT columns store ``int32`` codes into a
  *sorted* value dictionary (``<U*`` numpy array).  Because the dictionary
  is sorted, code order equals code-point order, so comparisons, joins,
  GROUP BY, ORDER BY and the top-k reverse collation all run on the codes
  and decode only at materialization.  ``-1`` is the NULL code; it sorts
  below every real code, which gives SQLite's NULLS-FIRST ascending
  placement for free.
* **Validity bitmaps** — every column chunk carries a packed validity
  bitmap (``None`` meaning "all valid"), so NULL is a storage-layer fact
  instead of a NaN sentinel.  Compute frames still use the historical
  sentinels (NaN for floats, ``None`` for objects, ``-1`` codes for
  dictionaries) because SQL-visible semantics cannot distinguish NaN from
  NULL in a float column, but the bitmap is authoritative for statistics
  and storage accounting.
* **Chunked layout** — column data is stored in fixed-size chunks
  (:data:`CHUNK_ROWS`) as preparation for out-of-core spill; a contiguous
  materialization is cached per column and invalidated by DML.

The second half of the module provides the *exact total-order encodings*
shared by every consumer: :func:`encoded_codes` maps any column vector to
``int64`` keys that are injective on non-NULL values and monotone in SQL
ordering (NULL strictly first), which makes grouping, DISTINCT, ORDER BY,
partitioning and join hashing exact — no more lossy ``astype(float64)``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ...errors import SQLExecutionError

#: Rows per storage chunk.  65536 keeps chunk bitmaps at 8 KiB.
CHUNK_ROWS = 65536

#: Dictionary code reserved for NULL.  It is negative so it sorts below
#: every valid code (SQLite: NULLs first in ascending order).
NULL_CODE = -1

#: Canonical NaN bit pattern (negative quiet NaN).  Under the monotone
#: float64 -> int64 bit transform this pattern maps *below* the key of
#: ``-inf``, so NULL floats sort strictly first, like SQLite NULLs.
_CANONICAL_NAN_BITS = np.uint64(0xFFF8000000000000)
_SIGN_BIT = np.uint64(0x8000000000000000)
_FULL_MASK = np.uint64(0xFFFFFFFFFFFFFFFF)


def _is_none_mask(values: np.ndarray) -> np.ndarray:
    """Elementwise ``v is None`` over an object array."""
    out = np.empty(len(values), dtype=bool)
    for index, value in enumerate(values.tolist() if values.dtype == object else values):
        out[index] = value is None or (isinstance(value, float) and value != value)
    return out


def _as_text_array(values: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Non-null entries of an object/str vector as a ``<U*`` array.

    Invalid slots are filled with ``""`` — callers must mask them out via
    ``valid`` before trusting the contents.
    """
    if values.dtype.kind == "U":
        return values
    filled = values.copy() if values.dtype == object else np.asarray(values, dtype=object)
    if not valid.all():
        filled = filled.copy() if filled is values else filled
        filled[~valid] = ""
    try:
        return filled.astype(str)
    except (TypeError, ValueError) as exc:  # pragma: no cover - defensive
        raise SQLExecutionError(f"cannot encode non-text value in text column: {exc}") from None


class DictArray:
    """A dictionary-encoded string vector flowing through compute frames.

    ``codes`` is an ``int32`` array of indices into the *sorted* string
    ``dictionary`` (``<U*`` dtype); ``-1`` encodes NULL.  The class is
    deliberately **not** an ndarray subclass — every consumer kernel was
    audited and either operates on the codes directly or receives the
    decoded object array via :meth:`decode` / ``__array__``.
    """

    __slots__ = ("codes", "dictionary", "_decoded")

    def __init__(self, codes: np.ndarray, dictionary: np.ndarray) -> None:
        self.codes = np.asarray(codes, dtype=np.int32)
        self.dictionary = dictionary
        self._decoded: np.ndarray | None = None

    # ------------------------------------------------------------- factories

    @classmethod
    def from_values(cls, values: Sequence[object] | np.ndarray) -> "DictArray":
        """Encode an object/str vector (``None``/NaN entries become NULL)."""
        array = np.asarray(values, dtype=object) if not isinstance(values, np.ndarray) else values
        if array.dtype.kind == "U":
            valid = np.ones(len(array), dtype=bool)
            text = array
        else:
            array = array if array.dtype == object else array.astype(object)
            valid = ~_is_none_mask(array)
            text = _as_text_array(array, valid)
        if valid.any():
            # Vocabulary from the *valid* slots only: the "" filler that
            # _as_text_array leaves at NULL positions must not become an
            # (unreferenced) dictionary entry.
            dictionary = np.unique(text[valid]) if not valid.all() else np.unique(text)
            codes = np.searchsorted(dictionary, text).astype(np.int32)
            codes[~valid] = NULL_CODE
        else:
            dictionary = np.empty(0, dtype="<U1")
            codes = np.full(len(array), NULL_CODE, dtype=np.int32)
        return cls(codes, dictionary)

    # ------------------------------------------------------------ properties

    @property
    def dtype(self) -> np.dtype:
        # Logical dtype: consumers (and tests) see an object column.
        return np.dtype(object)

    @property
    def ndim(self) -> int:
        return 1

    @property
    def shape(self) -> tuple[int]:
        return (len(self.codes),)

    @property
    def size(self) -> int:
        return int(self.codes.size)

    @property
    def nbytes(self) -> int:
        return int(self.codes.nbytes + self.dictionary.nbytes)

    def __len__(self) -> int:
        return len(self.codes)

    def __repr__(self) -> str:
        return f"DictArray(len={len(self)}, dict_size={len(self.dictionary)})"

    # ------------------------------------------------------------- accessors

    def __getitem__(self, item):
        if isinstance(item, (int, np.integer)):
            code = int(self.codes[item])
            return None if code < 0 else str(self.dictionary[code])
        return DictArray(self.codes[item], self.dictionary)

    def take(self, indices: np.ndarray) -> "DictArray":
        """Gather rows (join/build side materialization)."""
        return DictArray(self.codes.take(indices), self.dictionary)

    def copy(self) -> "DictArray":
        return DictArray(self.codes.copy(), self.dictionary)

    def decode(self) -> np.ndarray:
        """The object array this vector encodes (``None`` at NULL slots)."""
        if self._decoded is None:
            out = np.empty(len(self.codes), dtype=object)
            valid = self.codes >= 0
            if valid.any():
                out[valid] = self.dictionary[self.codes[valid]]
            if not valid.all():
                out[~valid] = None
            self._decoded = out
        return self._decoded

    def __array__(self, dtype=None, copy=None):
        decoded = self.decode()
        if dtype is not None and np.dtype(dtype) != np.dtype(object):
            return decoded.astype(dtype)
        return decoded.copy() if copy else decoded

    def __iter__(self):
        return iter(self.decode())

    def tolist(self) -> list:
        return self.decode().tolist()

    def astype(self, dtype, copy: bool = True) -> np.ndarray:
        return self.decode().astype(dtype, copy=copy)

    def is_null(self) -> np.ndarray:
        return self.codes < 0

    # ----------------------------------------------------------- comparisons

    def _rank_other(self, other) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rank ``other`` values in this dictionary's order.

        Returns ``(rank, exact, valid)``: for each right-hand value its
        insertion point in the sorted dictionary, whether it is an exact
        dictionary member, and whether it is non-NULL.  With these, every
        comparison reduces to integer compares against the codes:
        ``a < b  <=>  code(a) < rank(b)`` and
        ``a == b <=>  exact(b) and code(a) == rank(b)``.
        """
        if isinstance(other, DictArray):
            if len(other.dictionary) == 0:
                length = len(other.codes)
                return (
                    np.zeros(length, dtype=np.int64),
                    np.zeros(length, dtype=bool),
                    other.codes >= 0,
                )
            mapping = np.searchsorted(self.dictionary, other.dictionary)
            hit = mapping < len(self.dictionary)
            member = np.zeros(len(other.dictionary), dtype=bool)
            if hit.any():
                member[hit] = self.dictionary[mapping[hit]] == other.dictionary[hit]
            valid = other.codes >= 0
            safe = np.where(valid, other.codes, 0)
            return mapping[safe], member[safe], valid
        if isinstance(other, str):
            rank = int(np.searchsorted(self.dictionary, other))
            exact = rank < len(self.dictionary) and str(self.dictionary[rank]) == other
            length = len(self.codes)
            return (
                np.full(length, rank, dtype=np.int64),
                np.full(length, exact, dtype=bool),
                np.ones(length, dtype=bool),
            )
        array = np.asarray(other)
        if array.dtype.kind not in ("U", "O"):
            # Comparing text to numbers: SQLite's type ordering never makes
            # them equal; mirror the object-array behavior (always unequal).
            length = len(self.codes)
            return (
                np.full(length, -1, dtype=np.int64),
                np.zeros(length, dtype=bool),
                np.ones(length, dtype=bool),
            )
        valid = ~_is_none_mask(array) if array.dtype == object else np.ones(len(array), dtype=bool)
        text = _as_text_array(array, valid)
        rank = np.searchsorted(self.dictionary, text)
        hit = rank < len(self.dictionary)
        exact = np.zeros(len(array), dtype=bool)
        if hit.any():
            exact[hit] = self.dictionary[rank[hit]] == text[hit]
        return rank, exact, valid

    def _compare(self, op: str, other) -> np.ndarray:
        rank, exact, other_valid = self._rank_other(other)
        codes = self.codes.astype(np.int64)
        if op == "==":
            result = exact & (codes == rank)
        elif op == "!=":
            result = ~(exact & (codes == rank))
        elif op == "<":
            result = codes < rank
        elif op == "<=":
            result = (codes < rank) | (exact & (codes == rank))
        elif op == ">":
            result = (codes > rank) | (~exact & (codes == rank))
        else:  # >=
            result = codes >= rank
        # NULL on either side compares unknown -> False for every operator.
        result &= (self.codes >= 0) & other_valid
        return result

    def __eq__(self, other):  # type: ignore[override]
        return self._compare("==", other)

    def __ne__(self, other):  # type: ignore[override]
        return self._compare("!=", other)

    def __lt__(self, other):
        return self._compare("<", other)

    def __le__(self, other):
        return self._compare("<=", other)

    def __gt__(self, other):
        return self._compare(">", other)

    def __ge__(self, other):
        return self._compare(">=", other)

    __hash__ = None  # type: ignore[assignment]


# ---------------------------------------------------------------------------
# Vector helpers used by the executor
# ---------------------------------------------------------------------------


def null_mask(values) -> np.ndarray:
    """True where a compute-frame vector is NULL under SQL semantics."""
    if isinstance(values, DictArray):
        return values.is_null()
    array = np.asarray(values)
    if array.dtype.kind == "f":
        return np.isnan(array)
    if array.dtype == object:
        return _is_none_mask(array)
    return np.zeros(array.shape, dtype=bool)


def encoded_codes(values) -> np.ndarray:
    """Exact ``int64`` total-order keys for one column vector.

    Properties relied on throughout the engine:

    * **injective** on non-NULL values (no float64 rounding of wide ints,
      no NaN ambiguity), so equality of keys is equality of values;
    * **monotone** in SQL ordering, so sorting keys sorts values;
    * all NULLs map to a single key that is **strictly smaller** than any
      non-NULL key (SQLite: one NULL group, NULLs first ascending).

    Integers pass through; floats go through a monotone bit transform with
    NaN canonicalized to a negative-NaN pattern below ``-inf``; dictionary
    codes are already exact; plain object/str vectors are encoded on the
    fly against a local sorted vocabulary.
    """
    if isinstance(values, DictArray):
        return values.codes.astype(np.int64)
    array = np.asarray(values)
    kind = array.dtype.kind
    if kind in "iub":
        return array.astype(np.int64, copy=False)
    if kind == "f":
        return _float_order_keys(array.astype(np.float64, copy=False))
    return text_codes(values)[0]


def text_codes(values) -> tuple[np.ndarray, np.ndarray]:
    """``(int64 codes, sorted vocabulary)`` for a text vector.

    NULL rows carry :data:`NULL_CODE`; valid codes index the vocabulary.
    DictArray inputs return their own dictionary; plain object/str vectors
    are encoded on the fly.
    """
    if isinstance(values, DictArray):
        return values.codes.astype(np.int64), values.dictionary
    array = np.asarray(values)
    valid = ~_is_none_mask(array) if array.dtype == object else np.ones(len(array), dtype=bool)
    text = _as_text_array(array, valid)
    if valid.any():
        vocabulary = np.unique(text[valid]) if not valid.all() else np.unique(text)
        codes = np.searchsorted(vocabulary, text).astype(np.int64)
    else:
        vocabulary = np.empty(0, dtype="<U1")
        codes = np.zeros(len(array), dtype=np.int64)
    codes[~valid] = NULL_CODE
    return codes, vocabulary


def _float_order_keys(values: np.ndarray) -> np.ndarray:
    """Monotone float64 -> int64 keys; all NaNs collapse below ``-inf``.

    The transform flips the sign bit of non-negative patterns and all bits
    of negative ones, producing an unsigned total order, then flips the top
    bit once more to land in signed-int64 order.  Negating the keys for
    DESC is safe: the only pattern whose key is ``int64.min`` is the
    all-ones negative NaN payload, which canonicalization eliminates.
    """
    bits = values.view(np.uint64).copy()
    bits[np.isnan(values)] = _CANONICAL_NAN_BITS
    # -0.0 and +0.0 are equal in SQL; collapse to one bit pattern so the
    # keys stay injective on *values*, not representations.
    bits[bits == _SIGN_BIT] = np.uint64(0)
    negative = (bits & _SIGN_BIT) != 0
    key_u = np.where(negative, bits ^ _FULL_MASK, bits | _SIGN_BIT)
    return (key_u ^ _SIGN_BIT).view(np.int64)


def sort_keys(values, descending: bool = False) -> np.ndarray:
    """Exact ORDER BY keys: NULLs first ascending, last descending."""
    keys = encoded_codes(values)
    return -keys if descending else keys


def gather_values(values, indices: np.ndarray):
    """Row gather that keeps dictionary encoding intact."""
    if isinstance(values, DictArray):
        return values.take(indices)
    return np.asarray(values).take(indices)


def to_pylist(values) -> list:
    """Materialize a compute vector as Python objects (``None`` for NULL)."""
    if isinstance(values, DictArray):
        return values.tolist()
    return np.asarray(values).tolist()


def join_key_codes(left, right) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Exact shared-space join keys for two key vectors.

    Returns ``(left_codes, right_codes, left_valid, right_valid)`` where
    the codes are ``int64``, equal codes mean equal values **across both
    sides**, and NULL rows are flagged invalid (joins never match NULLs).
    Text sides are translated into a union dictionary; numeric sides use
    the monotone bit transform (both cast to float64 when either side is
    float, mirroring the engine's historical numeric-compare semantics).
    """
    left_text = isinstance(left, DictArray) or np.asarray(left).dtype.kind in ("O", "U")
    right_text = isinstance(right, DictArray) or np.asarray(right).dtype.kind in ("O", "U")
    left_valid = ~null_mask(left)
    right_valid = ~null_mask(right)
    if left_text != right_text:
        # Text never equals a number: no matches at all.
        return (
            np.zeros(_vec_len(left), dtype=np.int64),
            np.ones(_vec_len(right), dtype=np.int64),
            np.zeros(_vec_len(left), dtype=bool),
            np.zeros(_vec_len(right), dtype=bool),
        )
    if left_text:
        left_dict, left_codes = _side_codes(left, left_valid)
        right_dict, right_codes = _side_codes(right, right_valid)
        union = np.unique(np.concatenate([left_dict, right_dict]))
        left_codes = _translate(left_codes, left_dict, union)
        right_codes = _translate(right_codes, right_dict, union)
        return left_codes, right_codes, left_valid, right_valid
    left_array = np.asarray(left)
    right_array = np.asarray(right)
    if left_array.dtype.kind == "f" or right_array.dtype.kind == "f":
        return (
            _float_order_keys(left_array.astype(np.float64, copy=False)),
            _float_order_keys(right_array.astype(np.float64, copy=False)),
            left_valid,
            right_valid,
        )
    return (
        left_array.astype(np.int64, copy=False),
        right_array.astype(np.int64, copy=False),
        left_valid,
        right_valid,
    )


def _vec_len(values) -> int:
    return len(values)


def _side_codes(values, valid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(values, DictArray):
        return values.dictionary, values.codes.astype(np.int64)
    array = np.asarray(values)
    text = _as_text_array(array, valid)
    if valid.any():
        vocabulary = np.unique(text[valid]) if not valid.all() else np.unique(text)
        codes = np.searchsorted(vocabulary, text).astype(np.int64)
    else:
        vocabulary = np.empty(0, dtype="<U1")
        codes = np.zeros(len(array), dtype=np.int64)
    codes[~valid] = NULL_CODE
    return vocabulary, codes


def _translate(codes: np.ndarray, vocabulary: np.ndarray, union: np.ndarray) -> np.ndarray:
    if len(vocabulary) == 0:
        return codes.astype(np.int64)
    mapping = np.searchsorted(union, vocabulary).astype(np.int64)
    return np.where(codes >= 0, mapping[np.clip(codes, 0, None)], np.int64(NULL_CODE))


def compare_values(operator: str, left, right) -> np.ndarray:
    """SQL comparison with three-valued logic collapsed to filter semantics.

    NULL on either side yields ``False`` for **every** operator — including
    ``!=``, which plain numpy gets wrong (``NaN != x`` is True) and which
    the old object path got wrong for ``None != None``.
    """
    if isinstance(left, DictArray):
        return left._compare(_DICT_OPS[operator], right)
    if isinstance(right, DictArray):
        return right._compare(_DICT_OPS[_SWAPPED[operator]], left)
    left_array = np.asarray(left)
    right_array = np.asarray(right)
    left_text = left_array.dtype.kind in ("O", "U")
    right_text = right_array.dtype.kind in ("O", "U")
    if left_text or right_text:
        # Encode the text side(s) and compare through a DictArray so NULL
        # masking and cross-type rules live in exactly one place.
        anchor = left_array if left_text else right_array
        encoded = DictArray.from_values(anchor)
        if left_text:
            return encoded._compare(_DICT_OPS[operator], right)
        return encoded._compare(_DICT_OPS[_SWAPPED[operator]], left)
    with np.errstate(invalid="ignore"):
        if operator == "=":
            result = left_array == right_array
        elif operator == "!=":
            result = left_array != right_array
            invalid = null_mask(left_array) | null_mask(right_array)
            if invalid.any():
                result = result & ~invalid
        elif operator == "<":
            result = left_array < right_array
        elif operator == "<=":
            result = left_array <= right_array
        elif operator == ">":
            result = left_array > right_array
        else:
            result = left_array >= right_array
    return np.asarray(result, dtype=bool)


_DICT_OPS = {"=": "==", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}
_SWAPPED = {"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


# ---------------------------------------------------------------------------
# Chunked encoded column storage
# ---------------------------------------------------------------------------


def _pack_validity(valid: np.ndarray) -> np.ndarray | None:
    """Packed bitmap for one chunk; ``None`` when every row is valid."""
    if valid.all():
        return None
    return np.packbits(valid)


def _chunk_spans(length: int) -> Iterable[tuple[int, int]]:
    for start in range(0, length, CHUNK_ROWS):
        yield start, min(start + CHUNK_ROWS, length)


class EncodedColumn:
    """One table column stored as fixed-size chunks plus validity bitmaps.

    ``kind`` is ``"numeric"`` (int64/float64 data chunks) or ``"dict"``
    (int32 code chunks sharing one sorted dictionary): stored TEXT is
    always dictionary codes.
    """

    __slots__ = ("kind", "_dtype", "_chunks", "_validity", "_dictionary", "_cache", "dictionary_rebuilds")

    def __init__(self, kind: str, dtype: np.dtype, dictionary: np.ndarray | None = None) -> None:
        self.kind = kind
        self._dtype = dtype
        self._chunks: list[np.ndarray] = []
        self._validity: list[np.ndarray | None] = []
        self._dictionary = dictionary if dictionary is not None else np.empty(0, dtype="<U1")
        self._cache: np.ndarray | DictArray | None = None
        self.dictionary_rebuilds = 0

    # ------------------------------------------------------------- factories

    @classmethod
    def from_array(cls, values) -> "EncodedColumn":
        """Wrap a column vector: numerics as numeric chunks, text as dictionary codes."""
        if not isinstance(values, DictArray):
            array = np.asarray(values)
            if array.dtype.kind not in ("O", "U"):
                column = cls("numeric", array.dtype)
                column._append_numeric(array)
                return column
            values = DictArray.from_values(array.astype(object, copy=False))
        column = cls("dict", np.dtype(object), values.dictionary)
        column._append_codes(values.codes)
        return column

    @classmethod
    def empty(cls, dtype) -> "EncodedColumn":
        dtype = np.dtype(dtype)
        return cls("dict" if dtype == object else "numeric", dtype)

    # ------------------------------------------------------------ properties

    @property
    def num_rows(self) -> int:
        return sum(len(chunk) for chunk in self._chunks)

    @property
    def dtype(self) -> np.dtype:
        """Logical dtype (``object`` for text)."""
        return self._dtype

    @property
    def num_chunks(self) -> int:
        return len(self._chunks)

    @property
    def dictionary_size(self) -> int:
        return len(self._dictionary) if self.kind == "dict" else 0

    # ----------------------------------------------------------- ingest path

    def _append_codes(self, codes: np.ndarray) -> None:
        for start, stop in _chunk_spans(len(codes)):
            chunk = np.ascontiguousarray(codes[start:stop], dtype=np.int32)
            self._chunks.append(chunk)
            self._validity.append(_pack_validity(chunk >= 0))
        self._cache = None

    def _append_numeric(self, values: np.ndarray) -> None:
        for start, stop in _chunk_spans(len(values)):
            chunk = np.ascontiguousarray(values[start:stop])
            self._chunks.append(chunk)
            if chunk.dtype.kind == "f":
                self._validity.append(_pack_validity(~np.isnan(chunk)))
            else:
                self._validity.append(None)
        self._cache = None

    def append(self, values) -> None:
        """Append a coerced vector (INSERT path); grows the dictionary."""
        if self.kind == "numeric":
            self._append_numeric(np.asarray(values, dtype=self._dtype))
            return
        encoded = values if isinstance(values, DictArray) else DictArray.from_values(np.asarray(values, dtype=object))
        new_entries = np.setdiff1d(encoded.dictionary, self._dictionary, assume_unique=False)
        if len(new_entries):
            merged = np.unique(np.concatenate([self._dictionary, encoded.dictionary])) if len(self._dictionary) else np.unique(encoded.dictionary)
            self._remap_dictionary(merged)
        codes = _translate(encoded.codes.astype(np.int64), encoded.dictionary, self._dictionary).astype(np.int32)
        self._append_codes(codes)

    def _remap_dictionary(self, merged: np.ndarray) -> None:
        """Re-point every stored code chunk at a grown sorted dictionary."""
        if len(self._dictionary):
            mapping = np.searchsorted(merged, self._dictionary).astype(np.int32)
            for index, chunk in enumerate(self._chunks):
                self._chunks[index] = np.where(
                    chunk >= 0, mapping[np.clip(chunk, 0, None)], np.int32(NULL_CODE)
                ).astype(np.int32)
        self._dictionary = merged
        self.dictionary_rebuilds += 1
        self._cache = None

    def delete_where(self, keep: np.ndarray) -> None:
        """Keep only the rows flagged true; data is re-chunked."""
        if self.kind == "dict":
            codes = self._all_codes()[keep]
            self._chunks = []
            self._validity = []
            self._append_codes(codes)
        else:
            values = self._all_numeric()[keep]
            self._chunks = []
            self._validity = []
            self._append_numeric(values)

    # -------------------------------------------------------- materialization

    def _all_codes(self) -> np.ndarray:
        if not self._chunks:
            return np.empty(0, dtype=np.int32)
        return self._chunks[0] if len(self._chunks) == 1 else np.concatenate(self._chunks)

    def _all_numeric(self) -> np.ndarray:
        if not self._chunks:
            return np.empty(0, dtype=self._dtype)
        return self._chunks[0] if len(self._chunks) == 1 else np.concatenate(self._chunks)

    def materialize(self) -> np.ndarray | DictArray:
        """Contiguous column vector for the compute layer (cached)."""
        if self._cache is None:
            if self.kind == "dict":
                self._cache = DictArray(self._all_codes(), self._dictionary)
            else:
                self._cache = self._all_numeric()
        return self._cache

    def null_count(self) -> int:
        """NULL rows according to the validity bitmaps."""
        total = 0
        for chunk, bitmap in zip(self._chunks, self._validity):
            if bitmap is None:
                continue
            valid = np.unpackbits(bitmap, count=len(chunk))
            total += int(len(chunk) - valid.sum())
        return total

    def nbytes(self) -> int:
        data = sum(int(chunk.nbytes) for chunk in self._chunks)
        bitmaps = sum(int(bitmap.nbytes) for bitmap in self._validity if bitmap is not None)
        dictionary = int(self._dictionary.nbytes) if self.kind == "dict" else 0
        return data + bitmaps + dictionary

    def storage_stats(self) -> dict:
        """Per-column storage accounting (codes + dictionary + bitmap)."""
        data = sum(int(chunk.nbytes) for chunk in self._chunks)
        bitmaps = sum(int(bitmap.nbytes) for bitmap in self._validity if bitmap is not None)
        return {
            "kind": self.kind,
            "rows": self.num_rows,
            "chunks": len(self._chunks),
            "data_bytes": data,
            "validity_bytes": bitmaps,
            "dictionary_bytes": int(self._dictionary.nbytes) if self.kind == "dict" else 0,
            "dictionary_size": self.dictionary_size,
            "dictionary_rebuilds": self.dictionary_rebuilds,
            "null_count": self.null_count(),
        }

"""State and result containers shared by every simulation method.

The relational representation of the paper stores a quantum state as rows
``(s, r, i)`` — only nonzero basis states.  :class:`SparseState` is the
in-memory equivalent: the same columns, sorted by ``s``, read like a mapping
from basis index to complex amplitude.  Every backend (SQL or otherwise)
produces one, so results from different methods can be compared directly.

:class:`SimulationResult` wraps a final state together with the execution
metadata the paper's Output Layer reports: method name, wall-clock time,
memory estimates and per-gate statistics.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Mapping

import numpy as np

from ..errors import AnalysisError

#: Amplitudes with squared magnitude below this are treated as zero by default.
DEFAULT_PRUNE_ATOL = 1e-12

_INT64_MAX = np.iinfo(np.int64).max
_NO_INDICES = np.empty(0, dtype=np.int64)
_NO_VALUES = np.empty(0, dtype=np.complex128)


class SparseState:
    """A quantum state stored as the relational columns ``T(s, r, i)``.

    Only nonzero entries are kept, as two aligned arrays: ``int64`` basis
    indices in strictly ascending order and their ``complex128`` amplitudes.
    Indices are never routed through ``float64`` (which is exact only up to
    ``2**53``), so a basis state of a 62-qubit register survives unchanged.
    Instances are immutable: every method that changes the state returns a
    new one.
    """

    __slots__ = ("_num_qubits", "_indices", "_values")

    def __init__(self, num_qubits: int, amplitudes: Mapping[int, complex] | None = None) -> None:
        if num_qubits < 1:
            raise AnalysisError("a state needs at least one qubit")
        self._num_qubits = int(num_qubits)
        self._indices = _NO_INDICES
        self._values = _NO_VALUES
        if amplitudes:
            values = np.array(list(amplitudes.values()), dtype=np.complex128)
            self._set_columns(list(amplitudes), values.real, values.imag)

    def _set_columns(self, s, r, i) -> None:
        """Canonicalize ``(s, r, i)`` columns: validate, sort, dedupe, drop zeros."""
        num_qubits = self._num_qubits
        try:
            indices = np.array(s, dtype=np.int64).ravel()
        except OverflowError:
            raise AnalysisError(f"basis index out of range for {num_qubits} qubits") from None
        r = np.asarray(r, dtype=np.float64).ravel()
        i = np.asarray(i, dtype=np.float64).ravel()
        # Checked, not left to assignment: a length-1 column would broadcast.
        if not len(indices) == len(r) == len(i):
            raise AnalysisError("state columns s, r, i differ in length")
        values = np.empty(len(indices), dtype=np.complex128)
        values.real = r
        values.imag = i
        if len(indices):
            low, high = int(indices.min()), int(indices.max())
            if low < 0 or high >= 1 << num_qubits:
                bad = low if low < 0 else high
                raise AnalysisError(f"basis index {bad} out of range for {num_qubits} qubits")
            if len(indices) > 1 and not (indices[1:] > indices[:-1]).all():
                # Stable sort, then keep the last row of every run of equal
                # indices: a later row overwrites an earlier one.
                order = np.argsort(indices, kind="stable")
                indices, values = indices[order], values[order]
                last = np.append(indices[1:] != indices[:-1], True)
                indices, values = indices[last], values[last]
            nonzero = values != 0
            if not nonzero.all():
                indices, values = indices[nonzero], values[nonzero]
        self._indices = indices
        self._values = values

    # ------------------------------------------------------------ factories

    @classmethod
    def from_columns(cls, num_qubits: int, s, r, i) -> "SparseState":
        """Build from the relational columns ``s`` (index), ``r``, ``i`` (amplitude parts).

        The one constructor every other funnels into.  Rows may come in any
        order; of several rows with the same index the last wins, and exact
        zeros are dropped.  The inputs are copied.
        """
        state = cls(num_qubits)
        state._set_columns(s, r, i)
        return state

    def _with(self, indices: np.ndarray, values: np.ndarray) -> "SparseState":
        """A state over the same register from already canonical columns."""
        state = SparseState(self._num_qubits)
        state._indices = indices
        state._values = values
        return state

    @classmethod
    def zero_state(cls, num_qubits: int) -> "SparseState":
        """The |0...0> state: a single row ``(0, 1.0, 0.0)``."""
        return cls.from_columns(num_qubits, (0,), (1.0,), (0.0,))

    @classmethod
    def from_dense(cls, vector: np.ndarray, atol: float = DEFAULT_PRUNE_ATOL) -> "SparseState":
        """Build from a dense state vector, dropping near-zero amplitudes."""
        vector = np.asarray(vector, dtype=np.complex128).ravel()
        num_qubits = int(round(math.log2(vector.size)))
        if 1 << num_qubits != vector.size:
            raise AnalysisError(f"dense vector length {vector.size} is not a power of two")
        indices = np.nonzero(np.abs(vector) > atol)[0]
        kept = vector[indices]
        return cls.from_columns(num_qubits, indices, kept.real, kept.imag)

    @classmethod
    def from_rows(cls, num_qubits: int, rows: Iterable[tuple[int, float, float]]) -> "SparseState":
        """Build from relational rows ``(s, r, i)``."""
        columns = tuple(zip(*rows))
        return cls.from_columns(num_qubits, *(columns or ((), (), ())))

    # ------------------------------------------------------------ properties

    @property
    def num_qubits(self) -> int:
        """Number of qubits."""
        return self._num_qubits

    @property
    def dimension(self) -> int:
        """Hilbert-space dimension ``2**num_qubits``."""
        return 1 << self._num_qubits

    @property
    def num_nonzero(self) -> int:
        """Number of stored (nonzero) amplitudes — the relational row count."""
        return len(self._indices)

    @property
    def density(self) -> float:
        """Fraction of basis states with nonzero amplitude."""
        return self.num_nonzero / self.dimension

    def _position(self, index: int) -> int:
        """Where ``index`` is stored, or -1."""
        index = int(index)
        if 0 <= index <= _INT64_MAX:
            position = int(np.searchsorted(self._indices, index))
            if position < len(self._indices) and self._indices[position] == index:
                return position
        return -1

    def amplitude(self, index: int) -> complex:
        """Amplitude of basis state ``index`` (0 if not stored)."""
        position = self._position(index)
        return complex(self._values[position]) if position >= 0 else 0.0 + 0.0j

    def items(self) -> Iterator[tuple[int, complex]]:
        """Iterate over (index, amplitude) pairs in ascending index order."""
        return zip(self._indices.tolist(), self._values.tolist())

    def to_rows(self) -> list[tuple[int, float, float]]:
        """Relational rows ``(s, r, i)`` sorted by ``s`` (the paper's output format)."""
        values = self._values
        return list(zip(self._indices.tolist(), values.real.tolist(), values.imag.tolist()))

    def to_dense(self) -> np.ndarray:
        """Dense complex vector of length ``2**num_qubits``."""
        vector = np.zeros(self.dimension, dtype=np.complex128)
        vector[self._indices] = self._values
        return vector

    # -------------------------------------------------------------- algebra

    def _masses(self) -> np.ndarray:
        """Squared magnitude of every stored amplitude."""
        values = self._values
        return values.real**2 + values.imag**2

    def norm(self) -> float:
        """The 2-norm of the state."""
        return math.sqrt(float(self._masses().sum()))

    def normalized(self) -> "SparseState":
        """Return the state scaled to unit norm."""
        norm = self.norm()
        if norm == 0:
            raise AnalysisError("cannot normalize the zero vector")
        return self._with(self._indices, self._values / norm)

    def pruned(self, atol: float = DEFAULT_PRUNE_ATOL) -> "SparseState":
        """Drop amplitudes with magnitude at or below ``atol``."""
        keep = np.abs(self._values) > atol
        return self if keep.all() else self._with(self._indices[keep], self._values[keep])

    def probabilities(self) -> dict[int, float]:
        """Measurement probabilities of the nonzero basis states."""
        return dict(zip(self._indices.tolist(), self._masses().tolist()))

    def probability_of(self, index: int) -> float:
        """Measurement probability of one basis state."""
        return abs(self.amplitude(index)) ** 2

    def marginal_probability(self, qubit: int, value: int = 1) -> float:
        """Probability that measuring ``qubit`` yields ``value``."""
        if not 0 <= qubit < self._num_qubits:
            raise AnalysisError(f"qubit {qubit} out of range")
        if value not in (0, 1):
            raise AnalysisError("measurement value must be 0 or 1")
        # Stored indices are below 2**63, so bit 63 and above read as 0.
        bits = (self._indices >> min(qubit, 63)) & 1
        return float(self._masses()[bits == value].sum())

    def bitstring_probabilities(self) -> dict[str, float]:
        """Probabilities keyed by bitstring (qubit 0 is the rightmost character)."""
        width = self._num_qubits
        return {format(index, f"0{width}b"): probability for index, probability in self.probabilities().items()}

    def estimated_bytes(self) -> int:
        """Memory footprint of the relational representation (24 bytes per row).

        One row is ``(s BIGINT, r DOUBLE, i DOUBLE)`` = 8 + 8 + 8 bytes; this
        is the quantity the capacity experiments budget against.
        """
        return 24 * self.num_nonzero

    # -------------------------------------------------------------- compare

    def _amplitudes_at(self, indices: np.ndarray) -> np.ndarray:
        """Amplitudes at the given basis indices (0 where nothing is stored)."""
        out = np.zeros(len(indices), dtype=np.complex128)
        if len(self._indices):
            positions = np.minimum(np.searchsorted(self._indices, indices), len(self._indices) - 1)
            found = self._indices[positions] == indices
            out[found] = self._values[positions[found]]
        return out

    def equiv(self, other: "SparseState", atol: float = 1e-8, up_to_global_phase: bool = True) -> bool:
        """True if both states are equal (optionally up to a global phase)."""
        if not isinstance(other, SparseState):
            raise AnalysisError("can only compare against another SparseState")
        if self._num_qubits != other._num_qubits:
            return False
        if up_to_global_phase:
            return abs(abs(self.inner(other)) - self.norm() * other.norm()) <= atol
        keys = np.union1d(self._indices, other._indices)
        difference = self._amplitudes_at(keys) - other._amplitudes_at(keys)
        return bool((np.abs(difference) <= atol).all())

    def inner(self, other: "SparseState") -> complex:
        """The inner product <self|other>."""
        if self._num_qubits != other._num_qubits:
            raise AnalysisError("states have different qubit counts")
        _common, mine, theirs = np.intersect1d(
            self._indices, other._indices, assume_unique=True, return_indices=True
        )
        return complex(np.vdot(self._values[mine], other._values[theirs]))

    # -------------------------------------------------------------- dunders

    def __len__(self) -> int:
        return len(self._indices)

    def __iter__(self) -> Iterator[int]:
        return iter(self._indices.tolist())

    def __contains__(self, index: int) -> bool:
        return self._position(index) >= 0

    def __repr__(self) -> str:
        preview = ", ".join(
            f"{index}: {amplitude.real:+.4f}{amplitude.imag:+.4f}j"
            for index, amplitude in zip(self._indices[:4].tolist(), self._values[:4].tolist())
        )
        suffix = ", ..." if self.num_nonzero > 4 else ""
        return f"SparseState(qubits={self._num_qubits}, nonzero={self.num_nonzero}, {{{preview}{suffix}}})"


class SimulationResult:
    """Final state plus execution metadata for one simulation run.

    Attributes
    ----------
    state:
        The final :class:`SparseState`.
    method:
        Simulation method identifier (``"sqlite"``, ``"memdb"``,
        ``"statevector"``, ``"sparse"``, ``"mps"``, ``"dd"``).
    circuit_name / num_qubits / num_gates:
        Workload description.
    wall_time_s:
        End-to-end simulation time in seconds.
    peak_state_rows / peak_state_bytes:
        Largest intermediate representation observed (rows of the relational
        state or equivalent, and its estimated byte size).
    metadata:
        Free-form extras (SQL text, fusion statistics, backend options, ...).
    """

    __slots__ = (
        "state",
        "method",
        "circuit_name",
        "num_qubits",
        "num_gates",
        "wall_time_s",
        "peak_state_rows",
        "peak_state_bytes",
        "metadata",
    )

    def __init__(
        self,
        state: SparseState,
        method: str,
        circuit_name: str = "circuit",
        num_qubits: int | None = None,
        num_gates: int = 0,
        wall_time_s: float = 0.0,
        peak_state_rows: int = 0,
        peak_state_bytes: int = 0,
        metadata: dict | None = None,
    ) -> None:
        self.state = state
        self.method = method
        self.circuit_name = circuit_name
        self.num_qubits = num_qubits if num_qubits is not None else state.num_qubits
        self.num_gates = num_gates
        self.wall_time_s = wall_time_s
        self.peak_state_rows = peak_state_rows or state.num_nonzero
        self.peak_state_bytes = peak_state_bytes or state.estimated_bytes()
        self.metadata = dict(metadata or {})

    def probabilities(self) -> dict[int, float]:
        """Measurement probabilities of the final state."""
        return self.state.probabilities()

    def to_dict(self) -> dict:
        """JSON-friendly summary (state included as relational rows)."""
        return {
            "method": self.method,
            "circuit": self.circuit_name,
            "num_qubits": self.num_qubits,
            "num_gates": self.num_gates,
            "wall_time_s": self.wall_time_s,
            "peak_state_rows": self.peak_state_rows,
            "peak_state_bytes": self.peak_state_bytes,
            "nonzero_amplitudes": self.state.num_nonzero,
            "rows": [list(row) for row in self.state.to_rows()],
            "metadata": self.metadata,
        }

    def __repr__(self) -> str:
        return (
            f"SimulationResult(method={self.method!r}, circuit={self.circuit_name!r}, "
            f"qubits={self.num_qubits}, time={self.wall_time_s:.4f}s, "
            f"nonzero={self.state.num_nonzero})"
        )

"""Quantum gate library.

A :class:`Gate` is a named unitary acting on a fixed number of qubits, with
zero or more real parameters (which may be symbolic, see
:mod:`repro.core.parameters`).  The library covers the standard gate set used
throughout the paper's circuits (H, X, CX, rotations, controlled rotations,
Toffoli, ...) plus arbitrary user-defined unitaries.

Index convention
----------------
All matrices are expressed over a *local* basis index in which local bit ``k``
is the ``k``-th qubit in the gate's argument list, and qubit 0 of the circuit
is the least-significant bit of the global state index.  This matches the
relational encoding of the paper (Fig. 2): the Hadamard applied to "the first
qubit" joins on ``T0.s & 1``, and the CX gate table maps local index
``1 -> 3`` (control = local bit 0, target = local bit 1).

Matrix element ``M[out_local, in_local]`` is the transition amplitude from
input basis state ``in_local`` to output basis state ``out_local`` — exactly
the ``(in_s, out_s, r, i)`` rows stored in the gate's relational table.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable, Mapping, Sequence

import numpy as np

from ..errors import GateError, ParameterError
from .parameters import (
    Parameter,
    ParameterExpression,
    ParameterValue,
    free_parameters,
    parameter_value_text,
    resolve_parameter,
)

#: Numerical tolerance used for unitarity / structure checks.
ATOL = 1e-10


class Gate:
    """A named unitary operation on ``num_qubits`` qubits.

    Parameters
    ----------
    name:
        Canonical lower-case gate name (``"h"``, ``"cx"``, ``"rz"``, ...).
    num_qubits:
        Number of qubits the gate acts on.
    params:
        Real parameters (floats or symbolic expressions).
    matrix_factory:
        Callable mapping the resolved float parameters to the
        ``2**num_qubits`` square unitary matrix.
    diagonal:
        Structural flag: the matrix is diagonal for *every* parameter value
        (``z``, ``rz``, ``cp``, ``rzz``, ...).  It is a property of the gate
        kind, not of a binding, so ``RX(0)`` is not diagonal by kind.
    """

    __slots__ = ("_name", "_num_qubits", "_params", "_matrix_factory", "_label", "_diagonal")

    def __init__(
        self,
        name: str,
        num_qubits: int,
        params: Sequence[ParameterValue] = (),
        matrix_factory: Callable[[Sequence[float]], np.ndarray] | None = None,
        label: str | None = None,
        diagonal: bool = False,
    ) -> None:
        if num_qubits < 1:
            raise GateError(f"gate {name!r} must act on at least one qubit")
        self._name = name.lower()
        self._num_qubits = int(num_qubits)
        self._params = tuple(params)
        self._matrix_factory = matrix_factory
        self._label = label or self._name
        self._diagonal = bool(diagonal)

    # ------------------------------------------------------------ properties

    @property
    def name(self) -> str:
        """Canonical lower-case gate name."""
        return self._name

    @property
    def num_qubits(self) -> int:
        """Number of qubits the gate acts on."""
        return self._num_qubits

    @property
    def params(self) -> tuple[ParameterValue, ...]:
        """Gate parameters (may contain symbolic expressions)."""
        return self._params

    @property
    def label(self) -> str:
        """Display label (defaults to the gate name)."""
        return self._label

    @property
    def diagonal(self) -> bool:
        """True if the gate kind is diagonal whatever its parameters (see ``is_diagonal``)."""
        return self._diagonal

    @property
    def is_swap(self) -> bool:
        """True for the standard SWAP gate, the only gate that just permutes qubit positions."""
        return self._matrix_factory is _mat_swap

    @property
    def dimension(self) -> int:
        """Dimension of the gate's local Hilbert space (``2**num_qubits``)."""
        return 1 << self._num_qubits

    @property
    def free_parameters(self) -> frozenset[Parameter]:
        """All unbound symbolic parameters in this gate's parameter list."""
        result: frozenset[Parameter] = frozenset()
        for value in self._params:
            result |= free_parameters(value)
        return result

    @property
    def is_parameterized(self) -> bool:
        """True if any parameter is still symbolic."""
        return bool(self.free_parameters)

    # -------------------------------------------------------------- matrices

    def resolved_params(self, assignment: Mapping[Parameter, float] | None = None) -> tuple[float, ...]:
        """Resolve all parameters to floats, applying ``assignment`` to symbols."""
        try:
            return tuple(resolve_parameter(value, assignment) for value in self._params)
        except ParameterError as exc:
            raise ParameterError(f"gate {self._name!r}: {exc}") from exc

    def matrix(self, assignment: Mapping[Parameter, float] | None = None) -> np.ndarray:
        """The gate's unitary matrix as a complex numpy array.

        Symbolic parameters must be resolvable through ``assignment``.
        """
        if self._matrix_factory is None:
            raise GateError(f"gate {self._name!r} has no matrix definition")
        values = self.resolved_params(assignment)
        matrix = np.asarray(self._matrix_factory(values), dtype=np.complex128)
        expected = (self.dimension, self.dimension)
        if matrix.shape != expected:
            raise GateError(
                f"gate {self._name!r}: matrix shape {matrix.shape} does not match {expected}"
            )
        return matrix

    def bind(self, assignment: Mapping[Parameter, float]) -> "Gate":
        """Return a copy with ``assignment`` substituted into the parameters."""
        new_params: list[ParameterValue] = []
        for value in self._params:
            if isinstance(value, ParameterExpression):
                new_params.append(value.bind(assignment))
            else:
                new_params.append(value)
        return Gate(self._name, self._num_qubits, new_params, self._matrix_factory, self._label, self._diagonal)

    def inverse(self) -> "Gate":
        """The inverse gate (conjugate-transpose matrix), named ``<name>_dg``."""
        if self.is_parameterized:
            raise GateError(f"cannot invert parameterized gate {self._name!r}; bind parameters first")
        matrix = self.matrix().conj().T
        name = self._name[:-3] if self._name.endswith("_dg") else f"{self._name}_dg"
        return Gate(name, self._num_qubits, (), lambda _p, m=matrix: m, label=name, diagonal=self._diagonal)

    # ----------------------------------------------------- structure queries

    def diagonal_entries(self, assignment: Mapping[Parameter, float] | None = None) -> np.ndarray:
        """The diagonal of the gate matrix (the whole matrix for a diagonal kind)."""
        return np.diagonal(self.matrix(assignment))

    def is_diagonal(self, assignment: Mapping[Parameter, float] | None = None) -> bool:
        """True if this binding's matrix is diagonal (numeric; see the ``diagonal`` kind flag)."""
        matrix = self.matrix(assignment)
        return bool(np.allclose(matrix, np.diag(np.diag(matrix)), atol=ATOL))

    def is_permutation(self, assignment: Mapping[Parameter, float] | None = None) -> bool:
        """True if the matrix has exactly one nonzero entry per row and column.

        Permutation-like gates (X, CX, SWAP, Toffoli, and phased variants)
        never increase the number of nonzero amplitudes, which is what makes
        sparse circuits such as GHZ preparation cheap in the relational
        representation.
        """
        matrix = self.matrix(assignment)
        nonzero = np.abs(matrix) > ATOL
        return bool(np.all(nonzero.sum(axis=0) == 1) and np.all(nonzero.sum(axis=1) == 1))

    def nonzero_entries(
        self, assignment: Mapping[Parameter, float] | None = None, atol: float = ATOL
    ) -> list[tuple[int, int, float, float]]:
        """Rows of the gate's relational table: ``(in_s, out_s, re, im)``.

        Only entries with magnitude above ``atol`` are returned, mirroring
        the paper's "only nonzero basis states are stored" rule applied to
        gate tables.
        """
        matrix = self.matrix(assignment)
        rows: list[tuple[int, int, float, float]] = []
        for out_s in range(matrix.shape[0]):
            for in_s in range(matrix.shape[1]):
                amplitude = matrix[out_s, in_s]
                if abs(amplitude) > atol:
                    rows.append((in_s, out_s, float(amplitude.real), float(amplitude.imag)))
        rows.sort(key=lambda row: (row[0], row[1]))
        return rows

    def check_unitary(self, assignment: Mapping[Parameter, float] | None = None, atol: float = 1e-8) -> None:
        """Raise :class:`GateError` if the matrix is not unitary."""
        matrix = self.matrix(assignment)
        identity = np.eye(matrix.shape[0])
        if not np.allclose(matrix.conj().T @ matrix, identity, atol=atol):
            raise GateError(f"gate {self._name!r} matrix is not unitary")

    # ---------------------------------------------------------------- dunder

    def __repr__(self) -> str:
        if self._params:
            params = ", ".join(parameter_value_text(value) for value in self._params)
            return f"Gate({self._name}({params}), qubits={self._num_qubits})"
        return f"Gate({self._name}, qubits={self._num_qubits})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Gate):
            return NotImplemented
        if self._name != other._name or self._num_qubits != other._num_qubits:
            return False
        if len(self._params) != len(other._params):
            return False
        for mine, theirs in zip(self._params, other._params):
            mine_sym = isinstance(mine, ParameterExpression)
            theirs_sym = isinstance(theirs, ParameterExpression)
            if mine_sym != theirs_sym:
                return False
            if mine_sym:
                if str(mine) != str(theirs):
                    return False
            elif not math.isclose(float(mine), float(theirs), abs_tol=1e-12):
                return False
        return True

    def __hash__(self) -> int:
        return hash((self._name, self._num_qubits, len(self._params)))


# --------------------------------------------------------------------------
# Standard gate matrices
# --------------------------------------------------------------------------

_SQRT2_INV = 1.0 / math.sqrt(2.0)


def _mat_id(_params: Sequence[float]) -> np.ndarray:
    return np.eye(2, dtype=np.complex128)


def _mat_x(_params: Sequence[float]) -> np.ndarray:
    return np.array([[0, 1], [1, 0]], dtype=np.complex128)


def _mat_y(_params: Sequence[float]) -> np.ndarray:
    return np.array([[0, -1j], [1j, 0]], dtype=np.complex128)


def _mat_z(_params: Sequence[float]) -> np.ndarray:
    return np.array([[1, 0], [0, -1]], dtype=np.complex128)


def _mat_h(_params: Sequence[float]) -> np.ndarray:
    return np.array([[_SQRT2_INV, _SQRT2_INV], [_SQRT2_INV, -_SQRT2_INV]], dtype=np.complex128)


def _mat_s(_params: Sequence[float]) -> np.ndarray:
    return np.array([[1, 0], [0, 1j]], dtype=np.complex128)


def _mat_sdg(_params: Sequence[float]) -> np.ndarray:
    return np.array([[1, 0], [0, -1j]], dtype=np.complex128)


def _mat_t(_params: Sequence[float]) -> np.ndarray:
    return np.array([[1, 0], [0, cmath.exp(1j * math.pi / 4)]], dtype=np.complex128)


def _mat_tdg(_params: Sequence[float]) -> np.ndarray:
    return np.array([[1, 0], [0, cmath.exp(-1j * math.pi / 4)]], dtype=np.complex128)


def _mat_sx(_params: Sequence[float]) -> np.ndarray:
    return 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=np.complex128)


def _mat_rx(params: Sequence[float]) -> np.ndarray:
    theta = params[0]
    cos, sin = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[cos, -1j * sin], [-1j * sin, cos]], dtype=np.complex128)


def _mat_ry(params: Sequence[float]) -> np.ndarray:
    theta = params[0]
    cos, sin = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[cos, -sin], [sin, cos]], dtype=np.complex128)


def _mat_rz(params: Sequence[float]) -> np.ndarray:
    theta = params[0]
    return np.array(
        [[cmath.exp(-1j * theta / 2), 0], [0, cmath.exp(1j * theta / 2)]], dtype=np.complex128
    )


def _mat_p(params: Sequence[float]) -> np.ndarray:
    lam = params[0]
    return np.array([[1, 0], [0, cmath.exp(1j * lam)]], dtype=np.complex128)


def _mat_u(params: Sequence[float]) -> np.ndarray:
    theta, phi, lam = params
    cos, sin = math.cos(theta / 2), math.sin(theta / 2)
    return np.array(
        [
            [cos, -cmath.exp(1j * lam) * sin],
            [cmath.exp(1j * phi) * sin, cmath.exp(1j * (phi + lam)) * cos],
        ],
        dtype=np.complex128,
    )


def _embed_controlled(single: np.ndarray) -> np.ndarray:
    """2-qubit controlled version of a 1-qubit matrix.

    Local bit 0 is the control, local bit 1 is the target (argument order
    ``(control, target)``), matching the CX table of the paper's Fig. 2.
    """
    matrix = np.eye(4, dtype=np.complex128)
    # Control set means local bit 0 == 1, i.e. local indices 1 (target 0) and 3 (target 1).
    matrix[1, 1] = single[0, 0]
    matrix[1, 3] = single[0, 1]
    matrix[3, 1] = single[1, 0]
    matrix[3, 3] = single[1, 1]
    return matrix


def _mat_cx(_params: Sequence[float]) -> np.ndarray:
    return _embed_controlled(_mat_x(()))


def _mat_cy(_params: Sequence[float]) -> np.ndarray:
    return _embed_controlled(_mat_y(()))


def _mat_cz(_params: Sequence[float]) -> np.ndarray:
    return _embed_controlled(_mat_z(()))


def _mat_ch(_params: Sequence[float]) -> np.ndarray:
    return _embed_controlled(_mat_h(()))


def _mat_cp(params: Sequence[float]) -> np.ndarray:
    return _embed_controlled(_mat_p(params))


def _mat_crx(params: Sequence[float]) -> np.ndarray:
    return _embed_controlled(_mat_rx(params))


def _mat_cry(params: Sequence[float]) -> np.ndarray:
    return _embed_controlled(_mat_ry(params))


def _mat_crz(params: Sequence[float]) -> np.ndarray:
    return _embed_controlled(_mat_rz(params))


def _mat_swap(_params: Sequence[float]) -> np.ndarray:
    matrix = np.zeros((4, 4), dtype=np.complex128)
    matrix[0, 0] = 1
    matrix[3, 3] = 1
    matrix[1, 2] = 1
    matrix[2, 1] = 1
    return matrix


def _mat_iswap(_params: Sequence[float]) -> np.ndarray:
    matrix = np.zeros((4, 4), dtype=np.complex128)
    matrix[0, 0] = 1
    matrix[3, 3] = 1
    matrix[1, 2] = 1j
    matrix[2, 1] = 1j
    return matrix


def _mat_rzz(params: Sequence[float]) -> np.ndarray:
    theta = params[0]
    phase_same = cmath.exp(-1j * theta / 2)
    phase_diff = cmath.exp(1j * theta / 2)
    return np.diag([phase_same, phase_diff, phase_diff, phase_same]).astype(np.complex128)


def _mat_rxx(params: Sequence[float]) -> np.ndarray:
    theta = params[0]
    cos, sin = math.cos(theta / 2), math.sin(theta / 2)
    matrix = np.eye(4, dtype=np.complex128) * cos
    anti = -1j * sin
    matrix[0, 3] = anti
    matrix[3, 0] = anti
    matrix[1, 2] = anti
    matrix[2, 1] = anti
    return matrix


def _mat_ccx(_params: Sequence[float]) -> np.ndarray:
    """Toffoli: controls are local bits 0 and 1, target is local bit 2."""
    matrix = np.eye(8, dtype=np.complex128)
    # Both controls set -> local indices 3 (target 0) and 7 (target 1) swap.
    matrix[3, 3] = 0
    matrix[7, 7] = 0
    matrix[3, 7] = 1
    matrix[7, 3] = 1
    return matrix


def _mat_ccz(_params: Sequence[float]) -> np.ndarray:
    matrix = np.eye(8, dtype=np.complex128)
    matrix[7, 7] = -1
    return matrix


def _mat_cswap(_params: Sequence[float]) -> np.ndarray:
    """Fredkin: control is local bit 0, swapped qubits are local bits 1 and 2."""
    matrix = np.eye(8, dtype=np.complex128)
    # Control set and exactly one of the swapped bits set: indices 3 (011) and 5 (101).
    matrix[3, 3] = 0
    matrix[5, 5] = 0
    matrix[3, 5] = 1
    matrix[5, 3] = 1
    return matrix


class GateSpec:
    """Registry entry describing how to build a standard gate."""

    __slots__ = ("name", "num_qubits", "num_params", "matrix_factory", "aliases", "diagonal")

    def __init__(
        self,
        name: str,
        num_qubits: int,
        num_params: int,
        matrix_factory: Callable[[Sequence[float]], np.ndarray],
        aliases: Sequence[str] = (),
        diagonal: bool = False,
    ) -> None:
        self.name = name
        self.num_qubits = num_qubits
        self.num_params = num_params
        self.matrix_factory = matrix_factory
        self.aliases = tuple(aliases)
        self.diagonal = diagonal


_STANDARD_SPECS: tuple[GateSpec, ...] = (
    GateSpec("id", 1, 0, _mat_id, aliases=("i",), diagonal=True),
    GateSpec("x", 1, 0, _mat_x, aliases=("not",)),
    GateSpec("y", 1, 0, _mat_y),
    GateSpec("z", 1, 0, _mat_z, diagonal=True),
    GateSpec("h", 1, 0, _mat_h),
    GateSpec("s", 1, 0, _mat_s, diagonal=True),
    GateSpec("sdg", 1, 0, _mat_sdg, diagonal=True),
    GateSpec("t", 1, 0, _mat_t, diagonal=True),
    GateSpec("tdg", 1, 0, _mat_tdg, diagonal=True),
    GateSpec("sx", 1, 0, _mat_sx),
    GateSpec("rx", 1, 1, _mat_rx),
    GateSpec("ry", 1, 1, _mat_ry),
    GateSpec("rz", 1, 1, _mat_rz, diagonal=True),
    GateSpec("p", 1, 1, _mat_p, aliases=("u1", "phase"), diagonal=True),
    GateSpec("u", 1, 3, _mat_u, aliases=("u3",)),
    GateSpec("cx", 2, 0, _mat_cx, aliases=("cnot",)),
    GateSpec("cy", 2, 0, _mat_cy),
    GateSpec("cz", 2, 0, _mat_cz, diagonal=True),
    GateSpec("ch", 2, 0, _mat_ch),
    GateSpec("cp", 2, 1, _mat_cp, aliases=("cu1", "cphase"), diagonal=True),
    GateSpec("crx", 2, 1, _mat_crx),
    GateSpec("cry", 2, 1, _mat_cry),
    GateSpec("crz", 2, 1, _mat_crz, diagonal=True),
    GateSpec("swap", 2, 0, _mat_swap),
    GateSpec("iswap", 2, 0, _mat_iswap),
    GateSpec("rzz", 2, 1, _mat_rzz, diagonal=True),
    GateSpec("rxx", 2, 1, _mat_rxx),
    GateSpec("ccx", 3, 0, _mat_ccx, aliases=("toffoli",)),
    GateSpec("ccz", 3, 0, _mat_ccz, diagonal=True),
    GateSpec("cswap", 3, 0, _mat_cswap, aliases=("fredkin",)),
)

#: Canonical name -> spec.
STANDARD_GATES: dict[str, GateSpec] = {spec.name: spec for spec in _STANDARD_SPECS}

_ALIAS_TO_NAME: dict[str, str] = {}
for _spec in _STANDARD_SPECS:
    _ALIAS_TO_NAME[_spec.name] = _spec.name
    for _alias in _spec.aliases:
        _ALIAS_TO_NAME[_alias] = _spec.name


def canonical_gate_name(name: str) -> str:
    """Map an alias (``cnot``, ``u1``, ...) to its canonical gate name."""
    key = name.lower()
    if key not in _ALIAS_TO_NAME:
        raise GateError(f"unknown gate {name!r}")
    return _ALIAS_TO_NAME[key]


def is_standard_gate(name: str) -> bool:
    """True if ``name`` (or an alias of it) is in the standard gate library."""
    return name.lower() in _ALIAS_TO_NAME


def standard_gate(name: str, *params: ParameterValue) -> Gate:
    """Construct a standard-library gate by name.

    Example::

        standard_gate("h")
        standard_gate("rz", math.pi / 4)
        standard_gate("cx")
    """
    canonical = canonical_gate_name(name)
    spec = STANDARD_GATES[canonical]
    if len(params) != spec.num_params:
        raise GateError(
            f"gate {canonical!r} expects {spec.num_params} parameter(s), got {len(params)}"
        )
    return Gate(canonical, spec.num_qubits, params, spec.matrix_factory, diagonal=spec.diagonal)


def unitary_gate(matrix: np.ndarray, name: str = "unitary", atol: float = 1e-8) -> Gate:
    """Wrap an arbitrary unitary matrix as a custom gate.

    The matrix dimension must be a power of two; unitarity is verified.
    """
    matrix = np.asarray(matrix, dtype=np.complex128)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise GateError("unitary gate requires a square matrix")
    dimension = matrix.shape[0]
    num_qubits = int(round(math.log2(dimension)))
    if 1 << num_qubits != dimension:
        raise GateError(f"matrix dimension {dimension} is not a power of two")
    if not np.allclose(matrix.conj().T @ matrix, np.eye(dimension), atol=atol):
        raise GateError("matrix is not unitary")
    frozen = matrix.copy()
    frozen.setflags(write=False)
    return Gate(name, num_qubits, (), lambda _p, m=frozen: m)


class DiagonalGate(Gate):
    """A diagonal unitary given by its diagonal entries (diagonal by kind).

    ``diagonal_entries`` returns the entries as given; the dense matrix is
    only built when something asks for ``matrix()``.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: np.ndarray) -> None:
        entries = np.array(entries, dtype=np.complex128)
        num_qubits = int(entries.size).bit_length() - 1
        if entries.ndim != 1 or num_qubits < 1 or entries.size != 1 << num_qubits:
            raise GateError(f"a diagonal gate needs 2**k entries (k >= 1), got shape {entries.shape}")
        if np.max(np.abs(np.abs(entries) - 1.0)) > ATOL:
            raise GateError("diagonal entries of a unitary must have modulus 1")
        entries.setflags(write=False)
        super().__init__("diag", num_qubits, (), lambda _p, d=entries: np.diag(d), diagonal=True)
        self._entries = entries

    def diagonal_entries(self, assignment: Mapping[Parameter, float] | None = None) -> np.ndarray:
        return self._entries


def controlled_gate(base: Gate, name: str | None = None) -> Gate:
    """Single-control version of ``base``; the control becomes local bit 0."""
    if base.is_parameterized:
        raise GateError("bind parameters before adding a control")
    base_matrix = base.matrix()
    dim = base_matrix.shape[0]
    matrix = np.eye(2 * dim, dtype=np.complex128)
    # Control = local bit 0: the controlled block is the odd local indices
    # 1, 3, 5, ... which carry the base gate's local index in their upper bits.
    for out_local in range(dim):
        for in_local in range(dim):
            matrix[(out_local << 1) | 1, (in_local << 1) | 1] = base_matrix[out_local, in_local]
    matrix[1, 1] = base_matrix[0, 0]
    return unitary_gate(matrix, name or f"c{base.name}")

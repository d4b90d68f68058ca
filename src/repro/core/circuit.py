"""The quantum circuit intermediate representation.

:class:`QuantumCircuit` is the object at the centre of the paper's Fig. 1:
every front-end (builder, file input, code input) produces one, and every
downstream layer (SQL translation, RDBMS backends, baseline simulators)
consumes one.  It stores the number of qubits and an ordered list of
:class:`~repro.core.instruction.Instruction` objects, plus the classical bits
receiving measurement outcomes.

The API is intentionally Qiskit-like (``qc.h(0)``, ``qc.cx(0, 1)``,
``qc.measure_all()``) because the paper advertises "parameterized circuits
via Qiskit- or PyQuil-like syntax".
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable, Iterator, Mapping, Sequence

from ..errors import CircuitError, ParameterError
from .gates import Gate, standard_gate, unitary_gate
from .instruction import (
    KIND_BARRIER,
    KIND_GATE,
    KIND_MEASURE,
    KIND_RESET,
    Instruction,
)
from .parameters import Parameter, ParameterValue
from .registers import ClassicalRegister, Clbit, QuantumRegister, Qubit


class QuantumCircuit:
    """An ordered sequence of quantum operations on ``num_qubits`` qubits.

    Parameters
    ----------
    num_qubits:
        Number of qubits, or a :class:`QuantumRegister`.
    num_clbits:
        Number of classical bits (defaults to 0; measurement helpers grow it
        on demand), or a :class:`ClassicalRegister`.
    name:
        Optional circuit name used in reports and exports.
    """

    def __init__(
        self,
        num_qubits: int | QuantumRegister,
        num_clbits: int | ClassicalRegister = 0,
        name: str = "circuit",
    ) -> None:
        if isinstance(num_qubits, QuantumRegister):
            self._qregs: list[QuantumRegister] = [num_qubits]
            self._num_qubits = num_qubits.size
        else:
            count = int(num_qubits)
            if count < 1:
                raise CircuitError("a circuit needs at least one qubit")
            self._qregs = [QuantumRegister(count, "q")]
            self._num_qubits = count

        if isinstance(num_clbits, ClassicalRegister):
            self._cregs: list[ClassicalRegister] = [num_clbits]
            self._num_clbits = num_clbits.size
        else:
            self._num_clbits = int(num_clbits)
            self._cregs = [ClassicalRegister(self._num_clbits, "c")] if self._num_clbits else []

        self.name = name
        self._instructions: list[Instruction] = []

    # ----------------------------------------------------------- properties

    @property
    def num_qubits(self) -> int:
        """Number of qubits."""
        return self._num_qubits

    @property
    def num_clbits(self) -> int:
        """Number of classical bits."""
        return self._num_clbits

    @property
    def qregs(self) -> list[QuantumRegister]:
        """Quantum registers (in declaration order)."""
        return list(self._qregs)

    @property
    def cregs(self) -> list[ClassicalRegister]:
        """Classical registers (in declaration order)."""
        return list(self._cregs)

    @property
    def instructions(self) -> list[Instruction]:
        """The ordered instruction list (a copy; mutate via ``append``)."""
        return list(self._instructions)

    @property
    def gates(self) -> list[Instruction]:
        """Only the unitary gate instructions, in order.

        This mirrors the ``gates`` field of the paper's ``QuantumCircuit``
        conversion object (Fig. 1).
        """
        return [instruction for instruction in self._instructions if instruction.is_gate]

    @property
    def parameters(self) -> frozenset[Parameter]:
        """All unbound symbolic parameters in the circuit."""
        result: frozenset[Parameter] = frozenset()
        for instruction in self._instructions:
            result |= instruction.free_parameters
        return result

    @property
    def is_parameterized(self) -> bool:
        """True if any gate still has a symbolic parameter."""
        return bool(self.parameters)

    # ------------------------------------------------------------- plumbing

    def _resolve_qubit(self, qubit: int | Qubit) -> int:
        """Translate a qubit reference into a flat global index."""
        if isinstance(qubit, Qubit):
            offset = 0
            for register in self._qregs:
                if qubit.register is register:
                    return offset + qubit.index
                offset += register.size
            raise CircuitError(f"qubit {qubit!r} does not belong to this circuit")
        index = int(qubit)
        if not 0 <= index < self._num_qubits:
            raise CircuitError(
                f"qubit index {index} out of range for a {self._num_qubits}-qubit circuit"
            )
        return index

    def _resolve_clbit(self, clbit: int | Clbit) -> int:
        if isinstance(clbit, Clbit):
            offset = 0
            for register in self._cregs:
                if clbit.register is register:
                    return offset + clbit.index
                offset += register.size
            raise CircuitError(f"classical bit {clbit!r} does not belong to this circuit")
        index = int(clbit)
        if not 0 <= index < self._num_clbits:
            raise CircuitError(
                f"classical bit {index} out of range ({self._num_clbits} available)"
            )
        return index

    def _ensure_clbits(self, needed: int) -> None:
        """Grow the classical register so at least ``needed`` bits exist."""
        if needed <= self._num_clbits:
            return
        extra = needed - self._num_clbits
        register = ClassicalRegister(extra, f"c{len(self._cregs)}")
        self._cregs.append(register)
        self._num_clbits = needed

    def add_register(self, register: QuantumRegister | ClassicalRegister) -> None:
        """Append an additional quantum or classical register."""
        if isinstance(register, QuantumRegister):
            self._qregs.append(register)
            self._num_qubits += register.size
        elif isinstance(register, ClassicalRegister):
            self._cregs.append(register)
            self._num_clbits += register.size
        else:
            raise CircuitError(f"cannot add {type(register).__name__} as a register")

    # ------------------------------------------------------------ appending

    def append(self, gate: Gate, qubits: Sequence[int | Qubit]) -> "QuantumCircuit":
        """Append an arbitrary :class:`Gate` acting on ``qubits`` (argument order)."""
        indices = [self._resolve_qubit(q) for q in qubits]
        self._instructions.append(Instruction(gate, indices, KIND_GATE))
        return self

    def append_instruction(self, instruction: Instruction) -> "QuantumCircuit":
        """Append a pre-built instruction after validating its qubit indices."""
        for qubit in instruction.qubits:
            self._resolve_qubit(qubit)
        for clbit in instruction.clbits:
            self._resolve_clbit(clbit)
        self._instructions.append(instruction)
        return self

    def _append_standard(self, name: str, qubits: Sequence[int | Qubit], *params: ParameterValue) -> "QuantumCircuit":
        return self.append(standard_gate(name, *params), qubits)

    # one-qubit gates --------------------------------------------------------

    def id(self, qubit: int | Qubit) -> "QuantumCircuit":
        """Identity gate."""
        return self._append_standard("id", [qubit])

    def x(self, qubit: int | Qubit) -> "QuantumCircuit":
        """Pauli-X (NOT) gate."""
        return self._append_standard("x", [qubit])

    def y(self, qubit: int | Qubit) -> "QuantumCircuit":
        """Pauli-Y gate."""
        return self._append_standard("y", [qubit])

    def z(self, qubit: int | Qubit) -> "QuantumCircuit":
        """Pauli-Z gate."""
        return self._append_standard("z", [qubit])

    def h(self, qubit: int | Qubit) -> "QuantumCircuit":
        """Hadamard gate."""
        return self._append_standard("h", [qubit])

    def s(self, qubit: int | Qubit) -> "QuantumCircuit":
        """S (sqrt-Z) gate."""
        return self._append_standard("s", [qubit])

    def sdg(self, qubit: int | Qubit) -> "QuantumCircuit":
        """S-dagger gate."""
        return self._append_standard("sdg", [qubit])

    def t(self, qubit: int | Qubit) -> "QuantumCircuit":
        """T (pi/8) gate."""
        return self._append_standard("t", [qubit])

    def tdg(self, qubit: int | Qubit) -> "QuantumCircuit":
        """T-dagger gate."""
        return self._append_standard("tdg", [qubit])

    def sx(self, qubit: int | Qubit) -> "QuantumCircuit":
        """Sqrt-X gate."""
        return self._append_standard("sx", [qubit])

    def rx(self, theta: ParameterValue, qubit: int | Qubit) -> "QuantumCircuit":
        """X-axis rotation by ``theta``."""
        return self._append_standard("rx", [qubit], theta)

    def ry(self, theta: ParameterValue, qubit: int | Qubit) -> "QuantumCircuit":
        """Y-axis rotation by ``theta``."""
        return self._append_standard("ry", [qubit], theta)

    def rz(self, theta: ParameterValue, qubit: int | Qubit) -> "QuantumCircuit":
        """Z-axis rotation by ``theta``."""
        return self._append_standard("rz", [qubit], theta)

    def p(self, lam: ParameterValue, qubit: int | Qubit) -> "QuantumCircuit":
        """Phase gate diag(1, e^{i lam})."""
        return self._append_standard("p", [qubit], lam)

    def u(self, theta: ParameterValue, phi: ParameterValue, lam: ParameterValue, qubit: int | Qubit) -> "QuantumCircuit":
        """General single-qubit unitary U(theta, phi, lam)."""
        return self._append_standard("u", [qubit], theta, phi, lam)

    # two-qubit gates --------------------------------------------------------

    def cx(self, control: int | Qubit, target: int | Qubit) -> "QuantumCircuit":
        """Controlled-X (CNOT)."""
        return self._append_standard("cx", [control, target])

    def cy(self, control: int | Qubit, target: int | Qubit) -> "QuantumCircuit":
        """Controlled-Y."""
        return self._append_standard("cy", [control, target])

    def cz(self, control: int | Qubit, target: int | Qubit) -> "QuantumCircuit":
        """Controlled-Z."""
        return self._append_standard("cz", [control, target])

    def ch(self, control: int | Qubit, target: int | Qubit) -> "QuantumCircuit":
        """Controlled-Hadamard."""
        return self._append_standard("ch", [control, target])

    def cp(self, lam: ParameterValue, control: int | Qubit, target: int | Qubit) -> "QuantumCircuit":
        """Controlled phase gate."""
        return self._append_standard("cp", [control, target], lam)

    def crx(self, theta: ParameterValue, control: int | Qubit, target: int | Qubit) -> "QuantumCircuit":
        """Controlled X-rotation."""
        return self._append_standard("crx", [control, target], theta)

    def cry(self, theta: ParameterValue, control: int | Qubit, target: int | Qubit) -> "QuantumCircuit":
        """Controlled Y-rotation."""
        return self._append_standard("cry", [control, target], theta)

    def crz(self, theta: ParameterValue, control: int | Qubit, target: int | Qubit) -> "QuantumCircuit":
        """Controlled Z-rotation."""
        return self._append_standard("crz", [control, target], theta)

    def swap(self, qubit_a: int | Qubit, qubit_b: int | Qubit) -> "QuantumCircuit":
        """SWAP two qubits."""
        return self._append_standard("swap", [qubit_a, qubit_b])

    def iswap(self, qubit_a: int | Qubit, qubit_b: int | Qubit) -> "QuantumCircuit":
        """iSWAP gate."""
        return self._append_standard("iswap", [qubit_a, qubit_b])

    def rzz(self, theta: ParameterValue, qubit_a: int | Qubit, qubit_b: int | Qubit) -> "QuantumCircuit":
        """ZZ-interaction rotation (diagonal); the QAOA cost-layer gate."""
        return self._append_standard("rzz", [qubit_a, qubit_b], theta)

    def rxx(self, theta: ParameterValue, qubit_a: int | Qubit, qubit_b: int | Qubit) -> "QuantumCircuit":
        """XX-interaction rotation."""
        return self._append_standard("rxx", [qubit_a, qubit_b], theta)

    # three-qubit gates ------------------------------------------------------

    def ccx(self, control_a: int | Qubit, control_b: int | Qubit, target: int | Qubit) -> "QuantumCircuit":
        """Toffoli (doubly-controlled X)."""
        return self._append_standard("ccx", [control_a, control_b, target])

    def ccz(self, qubit_a: int | Qubit, qubit_b: int | Qubit, qubit_c: int | Qubit) -> "QuantumCircuit":
        """Doubly-controlled Z."""
        return self._append_standard("ccz", [qubit_a, qubit_b, qubit_c])

    def cswap(self, control: int | Qubit, target_a: int | Qubit, target_b: int | Qubit) -> "QuantumCircuit":
        """Fredkin (controlled SWAP)."""
        return self._append_standard("cswap", [control, target_a, target_b])

    def unitary(self, matrix, qubits: Sequence[int | Qubit], name: str = "unitary") -> "QuantumCircuit":
        """Append an arbitrary unitary matrix on ``qubits``."""
        return self.append(unitary_gate(matrix, name=name), qubits)

    # non-gate instructions ---------------------------------------------------

    def measure(self, qubit: int | Qubit, clbit: int | Clbit | None = None) -> "QuantumCircuit":
        """Measure ``qubit`` into ``clbit`` (allocated automatically if omitted)."""
        qubit_index = self._resolve_qubit(qubit)
        if clbit is None:
            self._ensure_clbits(qubit_index + 1)
            clbit_index = qubit_index
        else:
            clbit_index = self._resolve_clbit(clbit)
        self._instructions.append(Instruction(None, [qubit_index], KIND_MEASURE, [clbit_index]))
        return self

    def measure_all(self) -> "QuantumCircuit":
        """Measure every qubit into a classical bit of the same index."""
        self._ensure_clbits(self._num_qubits)
        for qubit in range(self._num_qubits):
            self._instructions.append(Instruction(None, [qubit], KIND_MEASURE, [qubit]))
        return self

    def barrier(self, *qubits: int | Qubit) -> "QuantumCircuit":
        """Insert a barrier (an optimization fence for gate fusion)."""
        indices = [self._resolve_qubit(q) for q in qubits] or list(range(self._num_qubits))
        self._instructions.append(Instruction(None, indices, KIND_BARRIER))
        return self

    def reset(self, qubit: int | Qubit) -> "QuantumCircuit":
        """Reset a qubit to |0> (supported by simulators, not by SQL translation)."""
        self._instructions.append(Instruction(None, [self._resolve_qubit(qubit)], KIND_RESET))
        return self

    # ------------------------------------------------------------ transforms

    def bind_parameters(self, values: Mapping[Parameter | str, float]) -> "QuantumCircuit":
        """Return a copy with parameter values substituted.

        ``values`` may be keyed by :class:`Parameter` objects or by name.
        Raises :class:`ParameterError` if a key does not occur in the circuit.
        """
        by_param: dict[Parameter, float] = {}
        known = {parameter.name: parameter for parameter in self.parameters}
        for key, value in values.items():
            if isinstance(key, Parameter):
                parameter = key
            else:
                if key not in known:
                    raise ParameterError(f"circuit has no parameter named {key!r}")
                parameter = known[key]
            if parameter not in self.parameters:
                raise ParameterError(f"circuit has no parameter {parameter!r}")
            by_param[parameter] = float(value)

        bound = QuantumCircuit(self._num_qubits, self._num_clbits, name=self.name)
        bound._qregs = list(self._qregs)
        bound._cregs = list(self._cregs)
        bound._instructions = [instruction.bind(by_param) for instruction in self._instructions]
        return bound

    def copy(self, name: str | None = None) -> "QuantumCircuit":
        """A shallow copy (instructions are immutable, so sharing them is safe)."""
        duplicate = QuantumCircuit(self._num_qubits, max(self._num_clbits, 0) or 0, name=name or self.name)
        duplicate._qregs = list(self._qregs)
        duplicate._cregs = list(self._cregs)
        duplicate._num_clbits = self._num_clbits
        duplicate._instructions = list(self._instructions)
        return duplicate

    def compose(self, other: "QuantumCircuit", qubits: Sequence[int] | None = None) -> "QuantumCircuit":
        """Append another circuit's instructions onto (a subset of) this circuit's qubits.

        ``qubits`` maps the other circuit's qubit ``k`` onto ``qubits[k]`` of
        this circuit; by default the identity mapping is used.
        """
        if qubits is None:
            qubits = list(range(other.num_qubits))
        if len(qubits) != other.num_qubits:
            raise CircuitError(
                f"compose mapping has {len(qubits)} entries for a {other.num_qubits}-qubit circuit"
            )
        mapping = {index: self._resolve_qubit(target) for index, target in enumerate(qubits)}
        result = self.copy()
        for instruction in other._instructions:
            remapped = instruction.remapped(mapping)
            if remapped.clbits:
                result._ensure_clbits(max(remapped.clbits) + 1)
            result._instructions.append(remapped)
        return result

    def inverse(self) -> "QuantumCircuit":
        """The adjoint circuit (gates inverted, order reversed).

        Measurements, barriers and resets are not invertible and raise.
        """
        result = QuantumCircuit(self._num_qubits, self._num_clbits, name=f"{self.name}_dg")
        result._qregs = list(self._qregs)
        result._cregs = list(self._cregs)
        for instruction in reversed(self._instructions):
            if not instruction.is_gate or instruction.gate is None:
                raise CircuitError(f"cannot invert a circuit containing {instruction.kind!r}")
            result._instructions.append(Instruction(instruction.gate.inverse(), instruction.qubits))
        return result

    def without_measurements(self) -> "QuantumCircuit":
        """A copy with measurement/barrier/reset instructions removed."""
        result = self.copy()
        result._instructions = [ins for ins in self._instructions if ins.is_gate]
        return result

    def power(self, repetitions: int) -> "QuantumCircuit":
        """Repeat the circuit ``repetitions`` times."""
        if repetitions < 0:
            raise CircuitError("cannot repeat a circuit a negative number of times")
        result = self.copy()
        result._instructions = list(self._instructions) * repetitions
        return result

    # ------------------------------------------------------------ statistics

    def count_ops(self) -> dict[str, int]:
        """Histogram of operation names."""
        return dict(Counter(instruction.name for instruction in self._instructions))

    def size(self) -> int:
        """Number of gate instructions."""
        return sum(1 for instruction in self._instructions if instruction.is_gate)

    def depth(self) -> int:
        """Circuit depth: length of the longest qubit-dependency chain."""
        level: dict[int, int] = {}
        depth = 0
        for instruction in self._instructions:
            if instruction.kind == KIND_BARRIER:
                continue
            start = max((level.get(q, 0) for q in instruction.qubits), default=0)
            for qubit in instruction.qubits:
                level[qubit] = start + 1
            depth = max(depth, start + 1)
        return depth

    def num_nonlocal_gates(self) -> int:
        """Number of gates acting on two or more qubits."""
        return sum(1 for ins in self.gates if len(ins.qubits) >= 2)

    def width(self) -> int:
        """Total number of wires (qubits + classical bits)."""
        return self._num_qubits + self._num_clbits

    def measured_qubits(self) -> list[int]:
        """Qubits that are measured, in first-measurement order."""
        seen: list[int] = []
        for instruction in self._instructions:
            if instruction.is_measurement and instruction.qubits[0] not in seen:
                seen.append(instruction.qubits[0])
        return seen

    def branching_gate_count(self) -> int:
        """Number of gates that can increase the nonzero-amplitude count.

        Permutation and diagonal gates map each basis state to exactly one
        basis state; every other gate (H, RY, ...) can branch.  The ratio of
        branching gates is a useful predictor of whether the relational
        (sparse) representation stays small — the regime where the paper's
        RDBMS approach wins.  A diagonal kind (``rz``, ``rzz``, ...) never
        branches, bound or not, so a template and its bindings count alike.
        """
        count = 0
        for instruction in self.gates:
            gate = instruction.gate
            assert gate is not None
            if gate.diagonal:
                continue
            if gate.is_parameterized:
                count += 1
                continue
            if not (gate.is_permutation() or gate.is_diagonal()):
                count += 1
        return count

    # -------------------------------------------------------------- plotting

    def draw(self) -> str:
        """A plain-text drawing of the circuit (one line per qubit)."""
        labels: list[list[str]] = [[] for _ in range(self._num_qubits)]
        for instruction in self._instructions:
            width = max(len(self._cell_text(instruction, qubit)) for qubit in range(self._num_qubits))
            for qubit in range(self._num_qubits):
                labels[qubit].append(self._cell_text(instruction, qubit).center(width, "-"))
        lines = []
        for qubit in range(self._num_qubits):
            prefix = f"q{qubit}: "
            lines.append(prefix + "-" + "-".join(labels[qubit]) + "-")
        return "\n".join(lines)

    def _cell_text(self, instruction: Instruction, qubit: int) -> str:
        if qubit not in instruction.qubits:
            return "-"
        if instruction.kind == KIND_MEASURE:
            return "[M]"
        if instruction.kind == KIND_BARRIER:
            return "|"
        if instruction.kind == KIND_RESET:
            return "[0]"
        gate = instruction.gate
        assert gate is not None
        position = instruction.qubits.index(qubit)
        if gate.name in ("cx", "cy", "cz", "ch", "cp", "crx", "cry", "crz") and position == 0:
            return "*"
        if gate.name in ("ccx", "ccz") and position < 2:
            return "*"
        if gate.name == "cswap" and position == 0:
            return "*"
        text = gate.name.upper()
        if gate.params:
            rendered = ",".join(
                f"{float(p):.3g}" if not hasattr(p, "parameters") or not p.parameters else str(p)
                for p in gate.params
            )
            text = f"{text}({rendered})"
        return f"[{text}]"

    # ---------------------------------------------------------------- dunder

    def __len__(self) -> int:
        return len(self._instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self._instructions)

    def __getitem__(self, index: int) -> Instruction:
        return self._instructions[index]

    def __repr__(self) -> str:
        return (
            f"QuantumCircuit(name={self.name!r}, qubits={self._num_qubits}, "
            f"clbits={self._num_clbits}, instructions={len(self._instructions)})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuantumCircuit):
            return NotImplemented
        return (
            self._num_qubits == other._num_qubits
            and self._instructions == other._instructions
        )


def circuit_from_instructions(
    num_qubits: int, instructions: Iterable[Instruction], name: str = "circuit"
) -> QuantumCircuit:
    """Build a circuit from pre-constructed instructions (used by IO and fusion)."""
    circuit = QuantumCircuit(num_qubits, name=name)
    for instruction in instructions:
        if instruction.clbits:
            circuit._ensure_clbits(max(instruction.clbits) + 1)
        circuit.append_instruction(instruction)
    return circuit

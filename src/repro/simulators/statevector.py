"""Dense state-vector simulator.

This is the "conventional simulation method" the paper compares against
(cuQuantum / Qiskit-Aer class): the full ``2**n`` complex amplitude vector is
held in memory and every gate is applied to it.  Memory is Theta(2^n)
regardless of how sparse the state is, which is exactly why the relational
representation wins the sparse-capacity experiment (E3) and why this
simulator wins the dense-workload comparison (E4).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.circuit import QuantumCircuit
from ..core.instruction import Instruction
from ..errors import SimulationError
from ..output.result import SparseState
from .base import BaseSimulator, EvolutionStats, Executable

#: Bytes per complex128 amplitude.
_BYTES_PER_AMPLITUDE = 16


def gate_scatter(qubits: Sequence[int], num_qubits: int) -> tuple[np.ndarray, list[int]]:
    """Gather/scatter indices of a k-qubit gate application.

    Returns ``(base, offsets)``: ``base`` enumerates every basis state whose
    gate qubits are zero and ``offsets[local]`` deposits the local matrix
    index onto the gate qubits.  Both depend only on the qubit positions —
    not on gate values — so a compiled executable precomputes them once per
    distinct qubit tuple and reuses them for every bind of a sweep.
    """
    k = len(qubits)
    mask = 0
    for qubit in qubits:
        if not 0 <= qubit < num_qubits:
            raise SimulationError(f"qubit {qubit} out of range")
        mask |= 1 << qubit

    # Indices of all basis states whose gate qubits are zero.
    rest_count = 1 << (num_qubits - k)
    rest = np.arange(rest_count, dtype=np.int64)
    base = np.zeros(rest_count, dtype=np.int64)
    position = 0
    for qubit in range(num_qubits):
        if not (mask >> qubit) & 1:
            base |= ((rest >> position) & 1) << qubit
            position += 1

    def deposit(local: int) -> int:
        scattered = 0
        for j, qubit in enumerate(qubits):
            if (local >> j) & 1:
                scattered |= 1 << qubit
        return scattered

    offsets = [deposit(local) for local in range(1 << k)]
    return base, offsets


def _apply_prepared(vector: np.ndarray, matrix: np.ndarray, base: np.ndarray, offsets: Sequence[int]) -> np.ndarray:
    """Apply a gate using precomputed scatter indices (returns a new vector)."""
    if matrix.shape != (len(offsets), len(offsets)):
        raise SimulationError(f"matrix shape {matrix.shape} does not match {len(offsets)} local states")
    gathered = np.stack([vector[base | offset] for offset in offsets])
    transformed = matrix @ gathered
    result = np.empty_like(vector)
    for local, offset in enumerate(offsets):
        result[base | offset] = transformed[local]
    return result


def apply_gate_to_vector(vector: np.ndarray, matrix: np.ndarray, qubits: Sequence[int], num_qubits: int) -> np.ndarray:
    """Apply a k-qubit gate to a dense state vector (returns a new vector).

    ``qubits`` are the gate's argument qubits; local bit ``j`` of the matrix
    index corresponds to ``qubits[j]`` (the package-wide convention).
    """
    k = len(qubits)
    if matrix.shape != (1 << k, 1 << k):
        raise SimulationError(f"matrix shape {matrix.shape} does not match {k} qubits")
    base, offsets = gate_scatter(qubits, num_qubits)
    return _apply_prepared(vector, matrix, base, offsets)


class StatevectorSimulator(BaseSimulator):
    """Dense ``2**n`` state-vector simulation (numpy, complex128)."""

    name = "statevector"

    def __init__(self, max_state_bytes: int | None = None, prune_atol: float = 1e-12, max_qubits: int = 26) -> None:
        super().__init__(max_state_bytes=max_state_bytes, prune_atol=prune_atol)
        if max_qubits < 1:
            raise SimulationError("max_qubits must be positive")
        self.max_qubits = int(max_qubits)

    def required_bytes(self, num_qubits: int) -> int:
        """Memory needed for the dense vector of a ``num_qubits`` state."""
        return _BYTES_PER_AMPLITUDE * (1 << num_qubits)

    def _compile(self, circuit: QuantumCircuit) -> dict:
        """Precompute per-gate scatter indices and matrices of bound gates.

        The scatter indices depend only on qubit positions, so they are
        valid for every bind of a parameterized template; matrices of gates
        that still carry free parameters are computed at execute time.  The
        prep allocates O(2^n) index arrays, so circuits that could never
        execute (over ``max_qubits`` or the byte budget) skip it and fail
        with the usual errors at execute time.
        """
        num_qubits = circuit.num_qubits
        if num_qubits > self.max_qubits:
            return {}
        required = self.required_bytes(num_qubits)
        if self.max_state_bytes is not None and required > self.max_state_bytes:
            return {}
        # The precomputed gather arrays live as long as the executable, so
        # cap their total footprint at one state vector's worth (each 1-qubit
        # entry costs 2^(n-1) int64s = a quarter of the vector); instructions
        # beyond the cap fall back to per-application scatter computation.
        scatter_budget = min(required, self.max_state_bytes) if self.max_state_bytes else required
        scatter_bytes = 0
        scatter_cache: dict[tuple[int, ...], tuple[np.ndarray, list[int]]] = {}
        plans: list[tuple[np.ndarray | None, np.ndarray, list[int]] | None] = []
        for instruction in circuit.instructions:
            if not instruction.is_gate or instruction.gate is None:
                plans.append(None)
                continue
            qubits = tuple(instruction.qubits)
            if qubits not in scatter_cache:
                entry_bytes = 8 * (1 << (num_qubits - len(qubits)))
                if scatter_bytes + entry_bytes > scatter_budget:
                    plans.append(None)
                    continue
                scatter_cache[qubits] = gate_scatter(qubits, num_qubits)
                scatter_bytes += entry_bytes
            base, offsets = scatter_cache[qubits]
            matrix = instruction.gate.matrix() if not instruction.free_parameters else None
            plans.append((matrix, base, offsets))
        return {"gate_plans": plans}

    def _evolve_compiled(
        self,
        executable: Executable,
        circuit: QuantumCircuit,
        initial_state: SparseState | None,
        stats: EvolutionStats,
    ) -> SparseState:
        plans = executable.artifact.get("gate_plans")
        if plans is None or len(plans) != len(circuit.instructions):
            return self._evolve(circuit, initial_state, stats)
        return self._evolve_with_plans(circuit, initial_state, stats, plans)

    def _evolve(
        self,
        circuit: QuantumCircuit,
        initial_state: SparseState | None,
        stats: EvolutionStats,
    ) -> SparseState:
        return self._evolve_with_plans(circuit, initial_state, stats, None)

    def _evolve_with_plans(
        self,
        circuit: QuantumCircuit,
        initial_state: SparseState | None,
        stats: EvolutionStats,
        plans: list | None,
    ) -> SparseState:
        num_qubits = circuit.num_qubits
        if num_qubits > self.max_qubits:
            raise SimulationError(
                f"statevector simulator limited to {self.max_qubits} qubits (asked for {num_qubits})"
            )
        required = self.required_bytes(num_qubits)
        self._check_budget(required, "dense state vector allocation")
        stats.observe(1 << num_qubits, required)

        if initial_state is None:
            vector = np.zeros(1 << num_qubits, dtype=np.complex128)
            vector[0] = 1.0
        else:
            vector = initial_state.to_dense()

        instructions = circuit.instructions
        for position, instruction in enumerate(instructions):
            plan = plans[position] if plans is not None else None
            if plan is None:
                vector = self._apply(vector, instruction, num_qubits)
            else:
                matrix, base, offsets = plan
                if matrix is None:
                    assert instruction.gate is not None
                    matrix = instruction.gate.matrix()
                vector = _apply_prepared(vector, matrix, base, offsets)
        return SparseState.from_dense(vector, atol=self.prune_atol)

    def _apply(self, vector: np.ndarray, instruction: Instruction, num_qubits: int) -> np.ndarray:
        if not instruction.is_gate:
            return vector  # barriers and terminal measurements
        gate = instruction.gate
        assert gate is not None
        return apply_gate_to_vector(vector, gate.matrix(), instruction.qubits, num_qubits)

    def statevector(self, circuit: QuantumCircuit) -> np.ndarray:
        """Convenience: the dense final state vector of a circuit."""
        return self.run(circuit).state.to_dense()

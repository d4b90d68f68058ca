"""Matrix-product-state (tensor network) simulator.

One of the "state-of-the-art simulation methods" the paper benchmarks
against (its MPS backend).  The state is a chain of rank-3 tensors, one per
qubit; two-qubit gates are applied to adjacent sites and the bond is
re-truncated with an SVD.  Memory scales with the entanglement across cuts
(bond dimension), not with 2^n, so weakly-entangled circuits stay cheap while
volume-law circuits blow up — a qualitatively different trade-off from both
the dense state vector and the relational representation.

Gates on three or more qubits are first rewritten with the exact
decompositions of :mod:`repro.core.decompose`; non-adjacent two-qubit gates
are routed with SWAPs that are undone afterwards, so site ``k`` always holds
qubit ``k``.
"""

from __future__ import annotations

import numpy as np

from ..core.circuit import QuantumCircuit
from ..core.decompose import two_qubit_basis_circuit
from ..core.instruction import Instruction
from ..errors import SimulationError
from ..output.result import SparseState
from .base import BaseSimulator, EvolutionStats, Executable

#: SWAP matrix in the local convention (bit 0 = first qubit argument).
_SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=np.complex128
)


class MPSSimulator(BaseSimulator):
    """Matrix-product-state simulation with configurable bond truncation.

    Parameters
    ----------
    max_bond_dimension:
        Hard cap on the bond dimension (chi); exceeding entanglement is
        truncated, introducing approximation error that is tracked in the
        result metadata.
    truncation_threshold:
        Singular values below this (relative to the largest) are discarded.
    max_extract_qubits:
        Safety limit for converting the final MPS into an explicit sparse
        state (the extraction is exponential in the qubit count).
    """

    name = "mps"

    def __init__(
        self,
        max_bond_dimension: int = 64,
        truncation_threshold: float = 1e-12,
        max_state_bytes: int | None = None,
        prune_atol: float = 1e-12,
        max_extract_qubits: int = 22,
    ) -> None:
        super().__init__(max_state_bytes=max_state_bytes, prune_atol=prune_atol)
        if max_bond_dimension < 1:
            raise SimulationError("max_bond_dimension must be positive")
        self.max_bond_dimension = int(max_bond_dimension)
        self.truncation_threshold = float(truncation_threshold)
        self.max_extract_qubits = int(max_extract_qubits)

    # ---------------------------------------------------------------- evolve

    def _compile(self, circuit: QuantumCircuit) -> dict:
        """Contraction prep: decompose into the two-qubit basis once.

        The decomposition rewrites 3+-qubit gates into 1- and 2-qubit gates
        and needs concrete matrices, so it only runs for fully bound
        templates; parameterized families decompose per bind (their gate
        matrices change at every point anyway).
        """
        if circuit.is_parameterized:
            return {}
        return {"working": two_qubit_basis_circuit(circuit)}

    def _evolve_compiled(
        self,
        executable: Executable,
        circuit: QuantumCircuit,
        initial_state: SparseState | None,
        stats: EvolutionStats,
    ) -> SparseState:
        working = None
        if circuit is executable.circuit:
            working = executable.artifact.get("working")
        return self._evolve_working(circuit, initial_state, stats, working)

    def _evolve(
        self,
        circuit: QuantumCircuit,
        initial_state: SparseState | None,
        stats: EvolutionStats,
    ) -> SparseState:
        return self._evolve_working(circuit, initial_state, stats, None)

    def _evolve_working(
        self,
        circuit: QuantumCircuit,
        initial_state: SparseState | None,
        stats: EvolutionStats,
        working: QuantumCircuit | None,
    ) -> SparseState:
        if initial_state is not None:
            raise SimulationError("the MPS simulator only supports the |0...0> initial state")
        num_qubits = circuit.num_qubits
        if num_qubits > self.max_extract_qubits:
            raise SimulationError(
                f"MPS extraction limited to {self.max_extract_qubits} qubits (asked for {num_qubits})"
            )
        if working is None:
            working = two_qubit_basis_circuit(circuit)

        tensors = [np.zeros((1, 2, 1), dtype=np.complex128) for _site in range(num_qubits)]
        for tensor in tensors:
            tensor[0, 0, 0] = 1.0
        truncation_error = 0.0

        for instruction in working.instructions:
            if not instruction.is_gate:
                continue  # barriers and terminal measurements
            truncation_error += self._apply_instruction(tensors, instruction)
            size_bytes = sum(tensor.nbytes for tensor in tensors)
            max_bond = max(tensor.shape[2] for tensor in tensors)
            stats.observe(max_bond, size_bytes)
            self._check_budget(size_bytes, f"after {instruction.name}")

        stats.extras["max_bond_dimension"] = int(max(tensor.shape[2] for tensor in tensors))
        stats.extras["truncation_error"] = float(truncation_error)
        return self._extract_state(tensors, num_qubits)

    # ----------------------------------------------------------- gate applies

    def _apply_instruction(self, tensors: list[np.ndarray], instruction: Instruction) -> float:
        gate = instruction.gate
        assert gate is not None
        qubits = instruction.qubits
        matrix = gate.matrix()
        if len(qubits) == 1:
            self._apply_single(tensors, matrix, qubits[0])
            return 0.0
        if len(qubits) == 2:
            return self._apply_two(tensors, matrix, qubits[0], qubits[1])
        raise SimulationError(
            f"gate {gate.name!r} on {len(qubits)} qubits survived decomposition (internal error)"
        )

    @staticmethod
    def _apply_single(tensors: list[np.ndarray], matrix: np.ndarray, site: int) -> None:
        tensors[site] = np.einsum("Pp,lpr->lPr", matrix, tensors[site])

    def _apply_two(self, tensors: list[np.ndarray], matrix: np.ndarray, first: int, second: int) -> float:
        """Apply a two-qubit gate; returns the truncation error introduced."""
        error = 0.0
        # Route the first qubit next to the second with SWAPs (undone after).
        moves: list[int] = []
        position = first
        while abs(position - second) > 1:
            step = 1 if second > position else -1
            left = min(position, position + step)
            error += self._apply_adjacent(tensors, _SWAP, left)
            moves.append(left)
            position += step

        left_site = min(position, second)
        if position < second:
            local = matrix
        else:
            # The first gate argument sits on the right-hand site: permute the
            # matrix so local bit 0 is the left site.
            permutation = [0, 2, 1, 3]
            local = matrix[np.ix_(permutation, permutation)]
        error += self._apply_adjacent(tensors, local, left_site)

        for left in reversed(moves):
            error += self._apply_adjacent(tensors, _SWAP, left)
        return error

    def _apply_adjacent(self, tensors: list[np.ndarray], matrix: np.ndarray, left: int) -> float:
        """Apply a two-site gate to sites (left, left+1) with an SVD re-split."""
        left_tensor = tensors[left]
        right_tensor = tensors[left + 1]
        bond_left = left_tensor.shape[0]
        bond_right = right_tensor.shape[2]

        theta = np.einsum("lpr,rqs->lpqs", left_tensor, right_tensor)
        # matrix[out, in] with out = p_out + 2*q_out (p = left site). Reshape so
        # indices are [q_out, p_out, q_in, p_in].
        gate4 = matrix.reshape(2, 2, 2, 2)
        theta = np.einsum("QPqp,lpqs->lPQs", gate4, theta)

        merged = theta.reshape(bond_left * 2, 2 * bond_right)
        u, singular, vh = np.linalg.svd(merged, full_matrices=False)
        if singular.size == 0:
            raise SimulationError("SVD produced an empty spectrum (zero state)")
        cutoff = singular[0] * self.truncation_threshold
        keep = max(1, int(np.sum(singular > cutoff)))
        keep = min(keep, self.max_bond_dimension)
        discarded = float(np.sum(singular[keep:] ** 2))

        u = u[:, :keep]
        singular = singular[:keep]
        vh = vh[:keep, :]
        tensors[left] = u.reshape(bond_left, 2, keep)
        tensors[left + 1] = (singular[:, None] * vh).reshape(keep, 2, bond_right)
        return discarded

    # ------------------------------------------------------------ extraction

    def _extract_state(self, tensors: list[np.ndarray], num_qubits: int) -> SparseState:
        """Contract the chain into an explicit state (qubit 0 = least-significant bit)."""
        current = tensors[0].reshape(2, tensors[0].shape[2])  # (states so far, bond)
        for site in range(1, num_qubits):
            combined = np.einsum("xb,bpr->xpr", current, tensors[site])
            # Flat index must place qubit `site` above all previous qubits.
            combined = np.transpose(combined, (1, 0, 2))
            current = combined.reshape(combined.shape[0] * combined.shape[1], combined.shape[2])
        vector = current[:, 0]
        return SparseState.from_dense(vector, atol=self.prune_atol)

    def bond_profile(self, circuit: QuantumCircuit) -> list[int]:
        """Run the circuit and report the final bond dimension at every cut."""
        result = self.run(circuit)
        # The profile is recorded indirectly; rerun cheaply for the caller.
        del result
        working = two_qubit_basis_circuit(circuit)
        tensors = [np.zeros((1, 2, 1), dtype=np.complex128) for _site in range(circuit.num_qubits)]
        for tensor in tensors:
            tensor[0, 0, 0] = 1.0
        for instruction in working.instructions:
            if instruction.is_gate and instruction.gate is not None:
                self._apply_instruction(tensors, instruction)
        return [int(tensor.shape[2]) for tensor in tensors[:-1]]

"""Decision-diagram simulator (QMDD-style).

The paper lists decision-diagram methods (MQT DD / LIMDD) among the
simulation backends it compares against.  This module implements a reduced,
weighted decision diagram over state vectors from scratch:

* a node at level ``q`` branches on qubit ``q`` (low = 0, high = 1) and its
  outgoing edges carry complex weights;
* identical sub-diagrams are shared through a unique table, so structured
  states (GHZ, basis states, products) need only O(n) nodes;
* edge weights are normalized so that the largest child weight has magnitude
  one, keeping the representation canonical up to floating-point rounding.

Circuits are first rewritten into the {single-qubit, CX} basis
(:mod:`repro.core.decompose`); CX gates whose control sits below the target
are rewritten via ``H (CZ) H`` so the controlled recursion always branches on
the higher level first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.circuit import QuantumCircuit
from ..core.decompose import decompose_circuit
from ..core.gates import standard_gate
from ..core.instruction import Instruction
from ..errors import SimulationError
from ..output.result import SparseState
from .base import BaseSimulator, EvolutionStats, Executable

#: Weights with magnitude below this are treated as exact zeros.
_ZERO_TOL = 1e-14
#: Rounding applied to weights when hashing nodes into the unique table.
_HASH_DIGITS = 12


@dataclass(frozen=True)
class DDNode:
    """A decision-diagram node: branch on one qubit, two weighted children.

    ``low``/``high`` are ``(weight, child)`` pairs where ``child`` is another
    node or ``None`` for the terminal.  Instances are interned via the
    simulator's unique table, so identity comparison doubles as structural
    equality.
    """

    level: int
    low_weight: complex
    low_child: "DDNode | None"
    high_weight: complex
    high_child: "DDNode | None"


Edge = tuple[complex, "DDNode | None"]

_ZERO_EDGE: Edge = (0.0 + 0.0j, None)


class DecisionDiagramSimulator(BaseSimulator):
    """Simulation on reduced, weighted decision diagrams."""

    name = "dd"

    def __init__(
        self,
        max_state_bytes: int | None = None,
        prune_atol: float = 1e-12,
        max_nodes: int | None = None,
        max_extract_qubits: int = 22,
    ) -> None:
        super().__init__(max_state_bytes=max_state_bytes, prune_atol=prune_atol)
        self.max_nodes = max_nodes
        self.max_extract_qubits = int(max_extract_qubits)
        self._unique: dict[tuple, DDNode] = {}

    # ------------------------------------------------------------ node store

    def _make_node(self, level: int, low: Edge, high: Edge) -> Edge:
        """Normalize and intern a node; returns the (weight, node) edge."""
        low_weight, low_child = low
        high_weight, high_child = high
        if abs(low_weight) < _ZERO_TOL:
            low_weight, low_child = 0.0 + 0.0j, None
        if abs(high_weight) < _ZERO_TOL:
            high_weight, high_child = 0.0 + 0.0j, None
        if low_child is None and abs(low_weight) < _ZERO_TOL and high_child is None and abs(high_weight) < _ZERO_TOL:
            return _ZERO_EDGE

        # Normalize: the child edge with the largest magnitude gets weight of
        # magnitude 1; the factor is pushed up to the returned edge.
        if abs(low_weight) >= abs(high_weight):
            factor = low_weight
        else:
            factor = high_weight
        low_weight = low_weight / factor
        high_weight = high_weight / factor

        key = (
            level,
            round(low_weight.real, _HASH_DIGITS),
            round(low_weight.imag, _HASH_DIGITS),
            id(low_child),
            round(high_weight.real, _HASH_DIGITS),
            round(high_weight.imag, _HASH_DIGITS),
            id(high_child),
        )
        node = self._unique.get(key)
        if node is None:
            node = DDNode(level, low_weight, low_child, high_weight, high_child)
            self._unique[key] = node
            if self.max_nodes is not None and len(self._unique) > self.max_nodes:
                raise SimulationError(f"decision diagram exceeded {self.max_nodes} nodes")
        return (factor, node)

    def _child(self, edge: Edge, level: int, branch: int) -> Edge:
        """The ``branch`` child edge of ``edge`` at ``level`` (handles zero edges)."""
        weight, node = edge
        if node is None:
            return _ZERO_EDGE
        if node.level != level:
            raise SimulationError("decision diagram levels out of sync (internal error)")
        if branch == 0:
            return (weight * node.low_weight, node.low_child)
        return (weight * node.high_weight, node.high_child)

    # ------------------------------------------------------------ arithmetic

    def _add(self, first: Edge, second: Edge, level: int) -> Edge:
        """Pointwise sum of two sub-states rooted at ``level``."""
        if first[1] is None and abs(first[0]) < _ZERO_TOL:
            return second
        if second[1] is None and abs(second[0]) < _ZERO_TOL:
            return first
        if level < 0:
            return (first[0] + second[0], None)
        low = self._add(self._child(first, level, 0), self._child(second, level, 0), level - 1)
        high = self._add(self._child(first, level, 1), self._child(second, level, 1), level - 1)
        return self._make_node(level, low, high)

    def _scale(self, edge: Edge, factor: complex) -> Edge:
        if abs(factor) < _ZERO_TOL:
            return _ZERO_EDGE
        return (edge[0] * factor, edge[1])

    # ---------------------------------------------------------- gate applies

    def _apply_single(self, edge: Edge, level: int, target: int, matrix: np.ndarray) -> Edge:
        """Apply a single-qubit gate on ``target`` to the sub-state at ``level``."""
        if edge[1] is None and abs(edge[0]) < _ZERO_TOL:
            return _ZERO_EDGE
        if level < target:
            raise SimulationError("gate target below current level (internal error)")
        low = self._child(edge, level, 0)
        high = self._child(edge, level, 1)
        if level == target:
            new_low = self._add(self._scale(low, complex(matrix[0, 0])), self._scale(high, complex(matrix[0, 1])), level - 1)
            new_high = self._add(self._scale(low, complex(matrix[1, 0])), self._scale(high, complex(matrix[1, 1])), level - 1)
            return self._make_node(level, new_low, new_high)
        return self._make_node(
            level,
            self._apply_single(low, level - 1, target, matrix),
            self._apply_single(high, level - 1, target, matrix),
        )

    def _apply_controlled(self, edge: Edge, level: int, control: int, target: int, matrix: np.ndarray) -> Edge:
        """Apply a controlled single-qubit gate with ``control > target``."""
        if edge[1] is None and abs(edge[0]) < _ZERO_TOL:
            return _ZERO_EDGE
        if control <= target:
            raise SimulationError("controlled recursion requires control above target")
        low = self._child(edge, level, 0)
        high = self._child(edge, level, 1)
        if level == control:
            return self._make_node(level, low, self._apply_single(high, level - 1, target, matrix))
        return self._make_node(
            level,
            self._apply_controlled(low, level - 1, control, target, matrix),
            self._apply_controlled(high, level - 1, control, target, matrix),
        )

    # ---------------------------------------------------------------- evolve

    def _compile(self, circuit: QuantumCircuit) -> dict:
        """Rewrite into the {single-qubit, CX} basis once at compile time.

        Decomposition needs concrete gate matrices, so parameterized
        templates skip the prep and decompose per bind.
        """
        if circuit.is_parameterized:
            return {}
        return {"working": decompose_circuit(circuit)}

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
            raise SimulationError("the decision-diagram simulator only supports the |0...0> initial state")
        num_qubits = circuit.num_qubits
        if num_qubits > self.max_extract_qubits:
            raise SimulationError(
                f"decision-diagram extraction limited to {self.max_extract_qubits} qubits"
            )
        self._unique = {}
        if working is None:
            working = decompose_circuit(circuit)

        # |0...0>: a chain of nodes whose high edges are zero.
        edge: Edge = (1.0 + 0.0j, None)
        for level in range(num_qubits):
            edge = self._make_node(level, edge, _ZERO_EDGE)

        peak_nodes = len(self._unique)
        for instruction in working.instructions:
            edge = self._apply_instruction(edge, instruction, num_qubits)
            peak_nodes = max(peak_nodes, len(self._unique))
            node_bytes = 120 * len(self._unique)  # rough per-node footprint
            stats.observe(len(self._unique), node_bytes)
            self._check_budget(node_bytes, f"after {instruction.name}")

        stats.extras["unique_nodes"] = len(self._unique)
        stats.extras["peak_unique_nodes"] = peak_nodes
        return self._extract_state(edge, num_qubits)

    def _apply_instruction(self, edge: Edge, instruction: Instruction, num_qubits: int) -> Edge:
        if not instruction.is_gate:
            return edge  # barriers and terminal measurements
        gate = instruction.gate
        top = num_qubits - 1
        if gate.num_qubits == 1:
            return self._apply_single(edge, top, instruction.qubits[0], gate.matrix())
        if gate.name == "cx":
            control, target = instruction.qubits
            x_matrix = np.array([[0, 1], [1, 0]], dtype=np.complex128)
            z_matrix = np.array([[1, 0], [0, -1]], dtype=np.complex128)
            h_matrix = standard_gate("h").matrix()
            if control > target:
                return self._apply_controlled(edge, top, control, target, x_matrix)
            # Control below target: CX = (H on target) CZ (H on target), and CZ
            # is symmetric, so branch on the target (the higher level) instead.
            edge = self._apply_single(edge, top, target, h_matrix)
            edge = self._apply_controlled(edge, top, target, control, z_matrix)
            return self._apply_single(edge, top, target, h_matrix)
        raise SimulationError(
            f"gate {gate.name!r} on {gate.num_qubits} qubits survived decomposition (internal error)"
        )

    # ------------------------------------------------------------ extraction

    def _extract_state(self, edge: Edge, num_qubits: int) -> SparseState:
        amplitudes: dict[int, complex] = {}

        def walk(current: Edge, level: int, prefix: int, weight: complex) -> None:
            edge_weight, node = current
            total = weight * edge_weight
            if abs(total) <= self.prune_atol:
                return
            if node is None:
                if level >= 0:
                    # A structural zero edge cannot carry weight; nothing to record.
                    return
                amplitudes[prefix] = amplitudes.get(prefix, 0.0 + 0.0j) + total
                return
            walk((node.low_weight, node.low_child), level - 1, prefix, total)
            walk((node.high_weight, node.high_child), level - 1, prefix | (1 << node.level), total)

        walk(edge, num_qubits - 1, 0, 1.0 + 0.0j)
        return SparseState(num_qubits, amplitudes)

    def node_count(self, circuit: QuantumCircuit) -> int:
        """Number of unique nodes in the final diagram of ``circuit``."""
        result = self.run(circuit)
        return int(result.metadata.get("unique_nodes", 0))

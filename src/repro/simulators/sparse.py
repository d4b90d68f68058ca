"""Sparse hash-map simulator.

This simulator evolves the same representation the RDBMS stores — a mapping
from basis index to nonzero amplitude — entirely in Python dictionaries.  It
is the in-memory mirror of the SQL pipeline: every gate performs exactly the
join-and-group-by of the generated query, so it doubles as an executable
specification of the translation semantics and as the "how well could the
relational approach do without a database engine" baseline.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Mapping, Sequence

from ..core.circuit import QuantumCircuit
from ..core.instruction import Instruction
from ..errors import SimulationError
from ..output.result import SparseState
from ..sql.bounds import circuit_row_bounds
from .base import BaseSimulator, EvolutionStats, Executable

#: Estimated bytes per stored amplitude: dict entry overhead + key + complex.
_BYTES_PER_ENTRY = 96

#: Transition table: in_s -> [(out_s, amplitude factor)], the compiled form
#: of a gate's relational rows.
Transitions = dict[int, list[tuple[int, complex]]]


def build_transitions(gate_rows: Sequence[tuple[int, int, float, float]]) -> Transitions:
    """Index a gate's relational rows by input sub-state (the join's build side)."""
    transitions: Transitions = defaultdict(list)
    for in_s, out_s, real, imag in gate_rows:
        transitions[in_s].append((out_s, complex(real, imag)))
    return transitions


def apply_gate_to_mapping(
    amplitudes: Mapping[int, complex],
    gate_rows: Sequence[tuple[int, int, float, float]],
    qubits: Sequence[int],
    prune_atol: float = 1e-12,
) -> dict[int, complex]:
    """Apply a gate (given as relational rows) to a sparse amplitude mapping.

    This mirrors the generated SQL exactly (Fig. 2c of the paper):

    * the join condition matches the state's *local* sub-index
      (``s & mask`` collapsed onto the gate's qubits) against ``in_s``;
    * the new index is the old index with the gate qubits replaced by
      ``out_s``;
    * amplitudes of identical output indices are summed (GROUP BY s).
    """
    return _apply_transitions(amplitudes, build_transitions(gate_rows), qubits, prune_atol)


def _apply_transitions(
    amplitudes: Mapping[int, complex],
    transitions: Transitions,
    qubits: Sequence[int],
    prune_atol: float,
) -> dict[int, complex]:
    result: dict[int, complex] = defaultdict(complex)
    for index, amplitude in amplitudes.items():
        local = 0
        for position, qubit in enumerate(qubits):
            local |= ((index >> qubit) & 1) << position
        rest = index
        for qubit in qubits:
            rest &= ~(1 << qubit)
        for out_s, transition in transitions.get(local, ()):  # rows with matching in_s
            target = rest
            for position, qubit in enumerate(qubits):
                if (out_s >> position) & 1:
                    target |= 1 << qubit
            result[target] += amplitude * transition

    return {index: amplitude for index, amplitude in result.items() if abs(amplitude) > prune_atol}


class SparseSimulator(BaseSimulator):
    """Hash-map simulation storing only nonzero amplitudes."""

    name = "sparse"

    def __init__(
        self,
        max_state_bytes: int | None = None,
        prune_atol: float = 1e-12,
        max_nonzero: int | None = None,
    ) -> None:
        super().__init__(max_state_bytes=max_state_bytes, prune_atol=prune_atol)
        if max_nonzero is not None and max_nonzero < 1:
            raise SimulationError("max_nonzero must be positive when given")
        self.max_nonzero = max_nonzero

    def _compile(self, circuit: QuantumCircuit) -> dict:
        """Precompute the transition tables of every fully bound gate.

        Transition tables are the sparse mirror of the backend's gate
        tables; building them once per executable instead of per execution
        is exactly the reuse the relational plan cache provides.  Gates that
        still carry free parameters are compiled at execute time.
        """
        plans: list[tuple[Transitions, tuple[int, ...]] | None] = []
        for instruction in circuit.instructions:
            if (
                not instruction.is_gate
                or instruction.gate is None
                or instruction.free_parameters
            ):
                plans.append(None)
                continue
            transitions = build_transitions(instruction.gate.nonzero_entries(atol=self.prune_atol))
            plans.append((transitions, tuple(instruction.qubits)))
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
        if initial_state is None:
            amplitudes: dict[int, complex] = {0: 1.0 + 0.0j}
        else:
            amplitudes = dict(initial_state.items())

        stats.observe(len(amplitudes), _BYTES_PER_ENTRY * len(amplitudes))
        for position, instruction in enumerate(circuit.instructions):
            plan = plans[position] if plans is not None else None
            if plan is None:
                amplitudes = self._apply(amplitudes, instruction)
            else:
                transitions, qubits = plan
                amplitudes = _apply_transitions(amplitudes, transitions, qubits, self.prune_atol)
            size = len(amplitudes)
            estimate = _BYTES_PER_ENTRY * size
            stats.observe(size, estimate)
            self._check_budget(estimate, f"after {instruction.name}")
            if self.max_nonzero is not None and size > self.max_nonzero:
                raise SimulationError(
                    f"sparse state grew to {size} nonzero amplitudes (limit {self.max_nonzero})"
                )
        return SparseState(circuit.num_qubits, amplitudes)

    def _apply(self, amplitudes: dict[int, complex], instruction: Instruction) -> dict[int, complex]:
        if not instruction.is_gate:
            return amplitudes  # barriers and terminal measurements
        gate = instruction.gate
        assert gate is not None
        return apply_gate_to_mapping(
            amplitudes, gate.nonzero_entries(atol=self.prune_atol), instruction.qubits, self.prune_atol
        )

    def peak_rows_estimate(self, circuit: QuantumCircuit) -> int:
        """Upper bound on nonzero amplitudes: the largest per-gate row bound.

        :func:`~repro.sql.bounds.circuit_row_bounds` over this simulator's
        own instruction list, one step per gate; useful for capacity
        planning without running the simulation.
        """
        return max(circuit_row_bounds(circuit), default=1)

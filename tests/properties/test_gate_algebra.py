"""Gate-algebra laws across simulation methods (hypothesis, bounded profile).

The Translation Layer merges commuting diagonal gates into one gate table and
turns SWAPs into a qubit relabelling (``repro.sql.collapse``).  Both are
identities of the relational program, so for generated circuits:

* every memdb mode x ``fuse`` combination and SQLite agree with the
  state-vector reference to 1e-9;
* inserting ``SWAP . SWAP`` or a barrier changes no amplitude;
* relabelling the qubits of a circuit relabels the bits of its state;
* a translation never has more steps than the circuit has gates;
* Output-Layer queries on a circuit ending in SWAPs answer in logical qubits.

The profile is derandomized and bounded (tier-1); ``-m slow`` runs more.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.backends import MemDBBackend, SQLiteBackend
from repro.core import QuantumCircuit, circuit_from_instructions
from repro.core.gates import standard_gate
from repro.core.instruction import Instruction
from repro.output import SparseState, states_agree
from repro.simulators import StatevectorSimulator
from repro.sql import translate_circuit
from repro.sql.queries import expectation_z_query, marginal_probability_query

_FAST = settings(
    max_examples=30,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
_DEEP = settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

ATOL = 1e-9
_ANGLES = (0.0, 0.3, -1.2, math.pi / 2, math.pi, 2.5)
#: Gate name -> (qubits, parameters).  Diagonal kinds of one, two and three
#: qubits, SWAP, parameterized rotations (RX(0) and RY(0) included through
#: the angle 0), and branching gates.
_GATES = {
    "h": (1, 0), "rx": (1, 1), "ry": (1, 1), "x": (1, 0),
    "z": (1, 0), "s": (1, 0), "t": (1, 0), "tdg": (1, 0), "rz": (1, 1), "p": (1, 1), "id": (1, 0),
    "cz": (2, 0), "cp": (2, 1), "crz": (2, 1), "rzz": (2, 1), "swap": (2, 0), "cx": (2, 0), "rxx": (2, 1),
    "ccz": (3, 0), "ccx": (3, 0),
}


@st.composite
def circuits(draw, min_qubits: int = 1, max_qubits: int = 8, max_gates: int = 20) -> QuantumCircuit:
    num_qubits = draw(st.integers(min_qubits, max_qubits))
    circuit = QuantumCircuit(num_qubits)
    names = sorted(name for name, (arity, _params) in _GATES.items() if arity <= num_qubits)
    previous: tuple[int, ...] = ()
    for _ in range(draw(st.integers(0, max_gates))):
        if draw(st.integers(0, 9)) == 0:
            circuit.barrier()
            continue
        name = draw(st.sampled_from(names))
        arity, num_params = _GATES[name]
        order = draw(st.permutations(range(num_qubits)))
        if previous and draw(st.booleans()):
            # Reuse the last gate's qubits: adjacent gates sharing qubits.
            order = list(previous) + [qubit for qubit in order if qubit not in previous]
        qubits = tuple(order[:arity])
        params = [draw(st.sampled_from(_ANGLES)) for _ in range(num_params)]
        getattr(circuit, name)(*params, *qubits)
        previous = qubits
    return circuit


def _methods():
    methods = [MemDBBackend(mode=mode, fuse=fuse) for mode in ("cte", "materialized") for fuse in (False, True)]
    return methods + [SQLiteBackend()]


_REFERENCE = StatevectorSimulator()
_MEMDB = MemDBBackend()


def _relabelled(state: SparseState, mapping: list[int]) -> SparseState:
    """The state with bit ``q`` of every index moved to bit ``mapping[q]``."""
    amplitudes = {}
    for index, amplitude in state.items():
        moved = 0
        for qubit, target in enumerate(mapping):
            moved |= ((index >> qubit) & 1) << target
        amplitudes[moved] = amplitude
    return SparseState(state.num_qubits, amplitudes)


def check_every_method_agrees(circuit: QuantumCircuit) -> None:
    expected = _REFERENCE.run(circuit).state
    for method in _methods():
        state = method.run(circuit).state
        assert states_agree(state, expected, atol=ATOL, up_to_global_phase=False), (method, circuit.draw())
    for fuse in (False, True):
        assert len(translate_circuit(circuit, fuse=fuse).steps) <= circuit.size()


def check_metamorphic_laws(circuit: QuantumCircuit, position: int, pair: tuple[int, int], mapping: list[int]) -> None:
    state = _MEMDB.run(circuit).state
    instructions = circuit.instructions
    position %= len(instructions) + 1
    for inserted in (
        [Instruction(standard_gate("swap"), pair), Instruction(standard_gate("swap"), pair)],
        [Instruction(None, range(circuit.num_qubits), kind="barrier")],
    ):
        edited = _with_instructions(circuit, instructions[:position] + inserted + instructions[position:])
        assert states_agree(_MEMDB.run(edited).state, state, atol=ATOL, up_to_global_phase=False)
    relabelled = _with_instructions(
        circuit, [instruction.remapped(dict(enumerate(mapping))) for instruction in instructions]
    )
    assert states_agree(
        _MEMDB.run(relabelled).state, _relabelled(state, mapping), atol=ATOL, up_to_global_phase=False
    )


def check_queries_answer_in_logical_qubits(circuit: QuantumCircuit, swaps: list[tuple[int, int]]) -> None:
    for pair in swaps:
        circuit.swap(*pair)
    dense = _REFERENCE.run(circuit).state.to_dense()
    indices = np.arange(dense.size)
    for backend in (SQLiteBackend(), MemDBBackend(mode="materialized")):
        for qubit in range(circuit.num_qubits):
            bits = (indices >> qubit) & 1
            one = float(np.sum(np.abs(dense[bits == 1]) ** 2))
            marginal = dict(backend.execute_analysis_query(circuit, marginal_probability_query, qubit))
            assert marginal.get(1, 0.0) == pytest.approx(one, abs=ATOL)
            assert marginal.get(0, 0.0) == pytest.approx(1.0 - one, abs=ATOL)
            [(expectation,)] = backend.execute_analysis_query(circuit, expectation_z_query, qubit)
            assert expectation == pytest.approx(1.0 - 2.0 * one, abs=ATOL)


def _with_instructions(circuit: QuantumCircuit, instructions) -> QuantumCircuit:
    return circuit_from_instructions(circuit.num_qubits, instructions, name=circuit.name)


@_FAST
@given(circuit=circuits())
def test_every_method_agrees_with_the_statevector(circuit):
    check_every_method_agrees(circuit)


@_FAST
@given(circuit=circuits(min_qubits=2), position=st.integers(0, 64), data=st.data())
def test_swap_pairs_barriers_and_relabelling_change_nothing(circuit, position, data):
    pair = tuple(data.draw(st.permutations(range(circuit.num_qubits)))[:2])
    mapping = list(data.draw(st.permutations(range(circuit.num_qubits))))
    check_metamorphic_laws(circuit, position, pair, mapping)


@_FAST
@given(circuit=circuits(min_qubits=2, max_qubits=5, max_gates=10), data=st.data())
def test_queries_after_trailing_swaps_answer_in_logical_qubits(circuit, data):
    swaps = [
        tuple(data.draw(st.permutations(range(circuit.num_qubits)))[:2])
        for _ in range(data.draw(st.integers(1, 3)))
    ]
    check_queries_answer_in_logical_qubits(circuit, swaps)


@pytest.mark.slow
@_DEEP
@given(circuit=circuits())
def test_deep_every_method_agrees_with_the_statevector(circuit):
    check_every_method_agrees(circuit)

"""Quantum parity-check circuits (the paper's first demo scenario).

The parity-check algorithm determines whether the number of ones in a given
bitstring is even or odd: the data qubits are prepared in the bitstring, and
a chain of CX gates accumulates their parity onto an ancilla qubit, which is
then measured.  Because every gate is a permutation gate the state always has
exactly one nonzero amplitude — the extreme sparse case, and a good "rapid
algorithm iteration" example for the SQL pipeline.
"""

from __future__ import annotations

from typing import Sequence

from ..core.circuit import QuantumCircuit
from ..errors import CircuitError


def _validate_bits(bits: Sequence[int]) -> list[int]:
    values = [int(b) for b in bits]
    if not values:
        raise CircuitError("parity check needs at least one data bit")
    if any(b not in (0, 1) for b in values):
        raise CircuitError(f"bitstring must contain only 0/1, got {list(bits)}")
    return values


def parity_check_circuit(bits: Sequence[int] | str, measure: bool = True) -> QuantumCircuit:
    """Parity check of a classical bitstring.

    Parameters
    ----------
    bits:
        The input bitstring, e.g. ``[1, 0, 1]`` or ``"101"``.  Bit ``k`` is
        loaded onto qubit ``k`` with an X gate when set.
    measure:
        Measure the ancilla (the last qubit) when True.

    The ancilla ends in |1> iff the bitstring has odd parity.
    """
    if isinstance(bits, str):
        bits = [int(ch) for ch in bits]
    values = _validate_bits(bits)
    num_data = len(values)
    circuit = QuantumCircuit(
        num_data + 1, 1 if measure else 0, name=f"parity_{''.join(str(b) for b in values)}"
    )
    for qubit, bit in enumerate(values):
        if bit:
            circuit.x(qubit)
    ancilla = num_data
    for qubit in range(num_data):
        circuit.cx(qubit, ancilla)
    if measure:
        circuit.measure(ancilla, 0)
    return circuit


def superposed_parity_circuit(num_data: int) -> QuantumCircuit:
    """Parity evaluation over *all* bitstrings in superposition.

    Hadamards put the data register into the uniform superposition, then the
    CX chain writes each branch's parity onto the ancilla.  The resulting
    state entangles every bitstring with its parity — a compact example of
    how a classical predicate becomes a quantum oracle, and a mid-density
    workload between GHZ and full superposition.
    """
    if num_data < 1:
        raise CircuitError("parity check needs at least one data qubit")
    circuit = QuantumCircuit(num_data + 1, name=f"parity_superposed_{num_data}")
    for qubit in range(num_data):
        circuit.h(qubit)
    for qubit in range(num_data):
        circuit.cx(qubit, num_data)
    return circuit


def expected_parity(bits: Sequence[int] | str) -> int:
    """Classical reference: parity (0 = even, 1 = odd) of the bitstring."""
    if isinstance(bits, str):
        bits = [int(ch) for ch in bits]
    values = _validate_bits(bits)
    return sum(values) % 2


def parity_expected_basis_state(bits: Sequence[int] | str) -> int:
    """The single basis index the parity circuit ends in (before measurement)."""
    if isinstance(bits, str):
        bits = [int(ch) for ch in bits]
    values = _validate_bits(bits)
    index = 0
    for position, bit in enumerate(values):
        index |= bit << position
    index |= expected_parity(values) << len(values)
    return index

"""Quantum phase estimation circuits.

QPE combines the two structural extremes already present in the benchmark
suite — a counting register driven dense by Hadamards and controlled phase
rotations, followed by an inverse QFT — which makes it a natural "hard but
structured" workload for the SQL pipeline and a classic educational example.

The implementation estimates the eigenphase of a single-qubit phase gate
``P(2*pi*phi)`` applied to its ``|1>`` eigenstate, so the exact answer is
known analytically and every backend can be checked against it.
"""

from __future__ import annotations

import math

from ..core.circuit import QuantumCircuit
from ..errors import CircuitError
from .qft import qft_circuit


def phase_estimation_circuit(num_counting: int, phase: float, measure: bool = False) -> QuantumCircuit:
    """Estimate ``phase`` (in turns, i.e. [0, 1)) with ``num_counting`` counting qubits.

    Qubits 0..num_counting-1 form the counting register (qubit 0 is the least
    significant bit of the estimate); the last qubit holds the ``|1>``
    eigenstate of the unitary ``P(2*pi*phase)``.
    """
    if num_counting < 1:
        raise CircuitError("phase estimation needs at least one counting qubit")
    if not 0.0 <= phase < 1.0:
        raise CircuitError("phase must lie in [0, 1) (it is measured in turns)")

    eigen = num_counting
    circuit = QuantumCircuit(num_counting + 1, name=f"qpe_{num_counting}_{phase:g}")
    circuit.x(eigen)  # prepare the |1> eigenstate
    for qubit in range(num_counting):
        circuit.h(qubit)
    # Controlled-U^(2^k): U = P(2*pi*phase) is diagonal, so powers just scale the angle.
    for qubit in range(num_counting):
        angle = 2 * math.pi * phase * (1 << qubit)
        circuit.cp(angle, qubit, eigen)
    # Inverse QFT on the counting register; counting qubit k then holds bit k
    # of the phase estimate.
    inverse_qft = qft_circuit(num_counting, do_swaps=True, inverse=True)
    circuit = circuit.compose(inverse_qft, qubits=list(range(num_counting)))
    circuit.name = f"qpe_{num_counting}_{phase:g}"
    if measure:
        for qubit in range(num_counting):
            circuit.measure(qubit)  # into the clbit of the same index
    return circuit


def expected_phase_index(num_counting: int, phase: float) -> int:
    """The counting-register index QPE peaks at: ``round(phase * 2**m) mod 2**m``."""
    if num_counting < 1:
        raise CircuitError("phase estimation needs at least one counting qubit")
    return int(round(phase * (1 << num_counting))) % (1 << num_counting)


def phase_estimation_success_probability(num_counting: int, phase: float) -> float:
    """Probability of measuring the nearest grid point (1.0 when the phase is exact)."""
    scaled = phase * (1 << num_counting)
    nearest = round(scaled)
    delta = scaled - nearest
    if abs(delta) < 1e-12:
        return 1.0
    m = 1 << num_counting
    return (math.sin(math.pi * delta) / (m * math.sin(math.pi * delta / m))) ** 2

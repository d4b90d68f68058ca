"""Oracle-based textbook algorithms: Bernstein–Vazirani and Deutsch–Jozsa.

These are the classic "algorithm design and testing" workloads the paper's
first demo scenario targets: small, structured circuits whose correct answer
is known classically, so a researcher can iterate on them quickly and check
every backend's output at a glance.  Both use phase oracles built only from
CX / X / Z gates, so their relational states stay extremely sparse.
"""

from __future__ import annotations

from typing import Sequence

from ..core.circuit import QuantumCircuit
from ..errors import CircuitError


def _parse_bits(bits: Sequence[int] | str, name: str) -> list[int]:
    if isinstance(bits, str):
        bits = [int(ch) for ch in bits]
    values = [int(b) for b in bits]
    if not values:
        raise CircuitError(f"{name} needs at least one bit")
    if any(b not in (0, 1) for b in values):
        raise CircuitError(f"{name} must be a bitstring, got {values}")
    return values


def bernstein_vazirani_circuit(secret: Sequence[int] | str, measure: bool = True) -> QuantumCircuit:
    """Bernstein–Vazirani: recover a secret bitstring with one oracle query.

    Qubit ``k`` of the data register corresponds to bit ``k`` of ``secret``
    (character ``k`` when a string is given); the last qubit is the phase
    ancilla.  After the circuit, measuring the data register yields the
    secret with probability 1.
    """
    bits = _parse_bits(secret, "secret")
    num_data = len(bits)
    circuit = QuantumCircuit(num_data + 1, name=f"bv_{''.join(str(b) for b in bits)}")
    ancilla = num_data

    # Phase kickback ancilla in |->.
    circuit.x(ancilla)
    circuit.h(ancilla)
    for qubit in range(num_data):
        circuit.h(qubit)
    # Oracle: f(x) = secret . x  (one CX per set secret bit).
    for qubit, bit in enumerate(bits):
        if bit:
            circuit.cx(qubit, ancilla)
    for qubit in range(num_data):
        circuit.h(qubit)
    if measure:
        for qubit in range(num_data):
            circuit.measure(qubit)  # into the clbit of the same index
    return circuit


def bernstein_vazirani_expected_index(secret: Sequence[int] | str) -> int:
    """The basis index of the data register after the BV circuit (= the secret)."""
    bits = _parse_bits(secret, "secret")
    return sum(bit << position for position, bit in enumerate(bits))


def deutsch_jozsa_circuit(
    num_data: int, oracle: str = "balanced", pattern: Sequence[int] | str | None = None, measure: bool = True
) -> QuantumCircuit:
    """Deutsch–Jozsa: decide whether an oracle is constant or balanced.

    Parameters
    ----------
    num_data:
        Width of the data register.
    oracle:
        ``"constant0"`` (f = 0), ``"constant1"`` (f = 1), or ``"balanced"``
        (f(x) = pattern . x mod 2, which is balanced for any nonzero pattern).
    pattern:
        Mask used by the balanced oracle (defaults to all ones).

    Measuring all zeros on the data register means "constant"; anything else
    means "balanced".
    """
    if num_data < 1:
        raise CircuitError("Deutsch-Jozsa needs at least one data qubit")
    oracle = oracle.lower()
    if oracle not in ("constant0", "constant1", "balanced"):
        raise CircuitError(f"unknown oracle kind {oracle!r}")
    if pattern is None:
        pattern_bits = [1] * num_data
    else:
        pattern_bits = _parse_bits(pattern, "pattern")
        if len(pattern_bits) != num_data:
            raise CircuitError("pattern length must equal the data-register width")
        if oracle == "balanced" and not any(pattern_bits):
            raise CircuitError("a balanced oracle needs a nonzero pattern")

    circuit = QuantumCircuit(num_data + 1, name=f"dj_{oracle}_{num_data}")
    ancilla = num_data
    circuit.x(ancilla)
    circuit.h(ancilla)
    for qubit in range(num_data):
        circuit.h(qubit)

    if oracle == "constant1":
        circuit.z(ancilla)  # global phase on the |-> ancilla; f(x) = 1 for all x
    elif oracle == "balanced":
        for qubit, bit in enumerate(pattern_bits):
            if bit:
                circuit.cx(qubit, ancilla)

    for qubit in range(num_data):
        circuit.h(qubit)
    if measure:
        for qubit in range(num_data):
            circuit.measure(qubit)  # into the clbit of the same index
    return circuit


def deutsch_jozsa_is_constant(data_register_index: int) -> bool:
    """Interpret a Deutsch–Jozsa measurement of the data register."""
    return data_register_index == 0

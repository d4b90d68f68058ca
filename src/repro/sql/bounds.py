"""An upper bound on the rows every gate step produces, from structure alone.

A gate step joins the state with a gate table on the gate's qubits ``Q``
and groups by the new key, so how many rows it can produce follows from the
kind of the table and from which key bits may differ between rows, without
any statistics:

* a **branching** table (some ``in_s`` has more than one row) sends each
  row to at most ``2**|Q|`` keys, and the output has at most one row per
  value of the bits outside ``Q`` times ``2**|Q|``;
* a **permutation** table (one row per ``in_s``) keeps the row count;
* a **diagonal** table (``in_s = out_s`` on every row) keeps the keys too;
* a **SWAP** (only in an uncollapsed instruction list) exchanges two bits.

:func:`row_bounds` walks the steps once, keeping the bound ``B`` and the
set ``T`` of bits that may differ between rows beyond those the initial
rows already differ in.  With ``rows0`` initial rows, the bits outside
``T`` take at most ``rows0`` patterns, so:

* branching on ``Q``: ``B <- min(B, rows0 * 2**|T - Q|) * 2**|Q|``,
  ``T <- T | Q``;
* a permutation that touches ``T``: ``T <- T | Q`` (``B`` stays);
* a SWAP exchanges its two qubits' membership in ``T``;
* a diagonal changes neither; and ``B <= 2**n`` throughout.

The bound ignores cancellation (``H`` then ``H``) and pruning, so it is an
upper bound; on circuits without either it is exact.  It prices admission
(:mod:`repro.service.server.admission`), bounds the sparse simulator's peak
and is printed per block by ``MemDBBackend.explain_circuit``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..core.circuit import QuantumCircuit
from ..core.gates import Gate

BRANCHING = "branching"
PERMUTATION = "permutation"
DIAGONAL = "diagonal"
SWAP = "swap"


def table_kind(rows: Sequence[tuple[int, int, float, float]]) -> str:
    """The kind of a gate table with these ``(in_s, out_s, r, i)`` rows."""
    if all(in_s == out_s for in_s, out_s, _r, _i in rows):
        return DIAGONAL
    inputs = [row[0] for row in rows]
    return PERMUTATION if len(set(inputs)) == len(inputs) else BRANCHING


def gate_kind(gate: Gate) -> str:
    """The kind of a gate's table, from its kind where its parameters are free.

    A parameterized gate is diagonal when its kind is, and branching
    otherwise: the bound must hold for every binding.
    """
    if gate.is_swap:
        return SWAP
    if gate.diagonal:
        return DIAGONAL
    if gate.is_parameterized:
        return BRANCHING
    if gate.is_diagonal():
        return DIAGONAL
    return PERMUTATION if gate.is_permutation() else BRANCHING


def row_bounds(
    steps: Iterable[tuple[str, Sequence[int]]], num_qubits: int, initial_rows: int = 1
) -> list[int]:
    """The bound on each step's output rows, for ``(kind, qubits)`` steps in order."""
    cap = 1 << num_qubits
    bound = min(initial_rows, cap)
    touched: set[int] = set()
    bounds: list[int] = []
    for kind, qubits in steps:
        if kind == BRANCHING:
            free = len(touched.difference(qubits))
            bound = min(min(bound, initial_rows << free) << len(qubits), cap)
            touched.update(qubits)
        elif kind == PERMUTATION:
            if not touched.isdisjoint(qubits):
                touched.update(qubits)
        elif kind == SWAP:
            first, second = qubits
            if (first in touched) != (second in touched):
                touched.symmetric_difference_update((first, second))
        bounds.append(bound)
    return bounds


def circuit_row_bounds(circuit: QuantumCircuit) -> list[int]:
    """:func:`row_bounds` over a circuit's gates, one step per gate, from the |0...0> state.

    Works on templates: parameters need no values.
    """
    return row_bounds(
        (
            (gate_kind(instruction.gate), instruction.qubits)
            for instruction in circuit.instructions
            if instruction.is_gate
        ),
        circuit.num_qubits,
    )

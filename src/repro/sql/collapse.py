"""Emit a gate step only where the state branches.

The translator turns every gate into one join-aggregate step.  Two kinds of
gate do not need a step of their own:

* **Diagonal gates** (``z``, ``rz``, ``cp``, ``rzz``, ``ccz`` ... — the
  structural ``Gate.diagonal`` flag, never a numeric test) commute with each
  other.  A run of them, moved past gates on other qubits, multiplies into
  one diagonal gate table of ``2**k`` rows with ``in_s = out_s``.
* **SWAP** only renames qubits.  The pass keeps a logical -> physical qubit
  map instead, and the translator applies it once, in a trailing projection.

:func:`collapse` is one forward walk over the instructions.  A *pending
block* opens at the first diagonal gate and keeps its place in the output;
later diagonal gates join it (moving back past the gates emitted since it
opened) while

* their qubits do not meet the block's *fence* — the qubits touched by the
  non-diagonal gates emitted since the block opened — and
* the union of the block's qubits stays within :data:`MAX_BLOCK_QUBITS`.

The block closes when a gate touches its qubits, at a barrier or
measurement, and at the end of the circuit.  A circuit with no diagonal or
SWAP gate comes out as it went in, so its SQL text does not change.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from ..core.gates import DiagonalGate
from ..core.instruction import KIND_RESET, Instruction
from ..errors import TranslationError
from .encoding import validate_qubits

#: Widest diagonal block.  2**4 = 16 rows, the size of a dense two-qubit gate
#: table; wider blocks save memdb steps but SQLite pays for the wider table.
MAX_BLOCK_QUBITS = 4


class Collapsed(NamedTuple):
    """What is left to translate: gates on physical qubits, barriers and measurements as given."""

    instructions: list[Instruction]
    #: ``physical[q]`` is the bit holding logical qubit ``q`` after the last gate.
    physical: tuple[int, ...]
    #: Steps emitted for the circuit's diagonal gates (each applies one or more).
    diagonal_blocks: int
    swaps_elided: int


@lru_cache(maxsize=None)  # bounded: blocks span at most MAX_BLOCK_QUBITS qubits
def _member_index(positions: tuple[int, ...], width: int) -> np.ndarray:
    """For each block-local index, the member gate's local index (its bits at ``positions``)."""
    block = np.arange(1 << width)
    index = np.zeros_like(block)
    for bit, position in enumerate(positions):
        index |= ((block >> position) & 1) << bit
    index.setflags(write=False)
    return index


class _Block:
    """Diagonal gates merging into one step at output position ``slot``."""

    __slots__ = ("slot", "qubits", "members", "fence")

    def __init__(self, slot: int, member: Instruction) -> None:
        self.slot = slot
        self.qubits = set(member.qubits)
        self.members = [member]
        self.fence: set[int] = set()

    def instruction(self) -> Instruction:
        """The block as one instruction: the lone member, or the product of the members' diagonals."""
        if len(self.members) == 1:
            return self.members[0]
        qubits = sorted(self.qubits)
        width = len(qubits)
        entries = np.ones(1 << width, dtype=np.complex128)
        for member in self.members:
            positions = tuple(qubits.index(qubit) for qubit in member.qubits)
            entries *= member.gate.diagonal_entries()[_member_index(positions, width)]
        return Instruction(DiagonalGate(entries), qubits)


def collapse(instructions: Sequence[Instruction], num_qubits: int) -> Collapsed:
    """Merge commuting diagonal gates into blocks and turn SWAPs into a qubit map."""
    physical = list(range(num_qubits))
    output: list = []
    block: _Block | None = None
    blocks = swaps = 0
    for instruction in instructions:
        gate = instruction.gate
        if gate is None or not instruction.is_gate:
            if instruction.kind == KIND_RESET:
                raise TranslationError("reset instructions are not supported by the SQL translation")
            if block is not None:
                output[block.slot] = block.instruction()
                block = None
            output.append(instruction)
            continue
        logical = validate_qubits(instruction.qubits, num_qubits)
        if gate.is_swap:
            first, second = logical
            physical[first], physical[second] = physical[second], physical[first]
            swaps += 1
            continue
        qubits = tuple(physical[qubit] for qubit in logical)
        if qubits != logical:
            instruction = Instruction(gate, qubits)
        if gate.diagonal:
            if (
                block is not None
                and block.fence.isdisjoint(qubits)
                and len(block.qubits.union(qubits)) <= MAX_BLOCK_QUBITS
            ):
                block.qubits.update(qubits)
                block.members.append(instruction)
                continue
            if block is not None:
                output[block.slot] = block.instruction()
            block = _Block(len(output), instruction)
            blocks += 1
            output.append(None)
            continue
        if block is not None:
            if block.qubits.isdisjoint(qubits):
                block.fence.update(qubits)
            else:
                output[block.slot] = block.instruction()
                block = None
        output.append(instruction)
    if block is not None:
        output[block.slot] = block.instruction()
    return Collapsed(output, tuple(physical), blocks, swaps)

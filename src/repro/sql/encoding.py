"""Integer encoding of basis states and the bitwise SQL expressions over it.

The paper's key idea (Sec. 2.2, Table 1) is that a basis state is stored as a
single integer ``s`` and each gate addresses its qubits through bitwise
operators: ``&`` to extract the gate's local sub-index (the join key),
``& ~mask`` to clear the gate's bits, ``|`` and ``<<``/``>>`` to deposit the
gate's output bits back into the global index.

This module provides both the Python-side bit manipulation (used by the
sparse simulator and the tests) and the generation of the corresponding SQL
expression strings.  Expressions are simplified for contiguous qubit runs so
the generated SQL matches the paper's Fig. 2 exactly (e.g. ``(T0.s & 1)``,
``((T2.s >> 1) & 3)``, ``(CX.out_s << 1)``).
"""

from __future__ import annotations

from typing import Sequence

from ..errors import TranslationError

#: Widest circuit representable with signed 64-bit state indices.
MAX_QUBITS_64BIT = 62


def validate_qubits(qubits: Sequence[int], num_qubits: int) -> tuple[int, ...]:
    """Validate gate qubit indices against the circuit width."""
    result = tuple(int(q) for q in qubits)
    if not result:
        raise TranslationError("a gate must act on at least one qubit")
    if len(set(result)) != len(result):
        raise TranslationError(f"duplicate qubit in {list(result)}")
    for qubit in result:
        if not 0 <= qubit < num_qubits:
            raise TranslationError(f"qubit {qubit} out of range for {num_qubits} qubits")
    if num_qubits > MAX_QUBITS_64BIT:
        raise TranslationError(
            f"{num_qubits} qubits exceed the {MAX_QUBITS_64BIT}-qubit limit of 64-bit state indices"
        )
    return result


def qubit_mask(qubits: Sequence[int]) -> int:
    """Bit mask with a 1 at every gate qubit position."""
    mask = 0
    for qubit in qubits:
        mask |= 1 << int(qubit)
    return mask


def is_contiguous_ascending(qubits: Sequence[int]) -> bool:
    """True if the qubits form a run ``k, k+1, ..., k+m-1`` in that order."""
    return all(qubits[j + 1] == qubits[j] + 1 for j in range(len(qubits) - 1))


def extract_local(index: int, qubits: Sequence[int]) -> int:
    """Python reference of the SQL join key: the gate-local sub-index of ``index``."""
    local = 0
    for position, qubit in enumerate(qubits):
        local |= ((index >> qubit) & 1) << position
    return local


def deposit_local(local: int, qubits: Sequence[int]) -> int:
    """Python reference of scattering a gate-local index back to global bit positions."""
    scattered = 0
    for position, qubit in enumerate(qubits):
        if (local >> position) & 1:
            scattered |= 1 << qubit
    return scattered


def replace_bits(index: int, local_out: int, qubits: Sequence[int]) -> int:
    """Python reference of the full output-index expression ``(s & ~mask) | deposit(out)``."""
    return (index & ~qubit_mask(qubits)) | deposit_local(local_out, qubits)


# ---------------------------------------------------------------------------
# SQL expression generation
# ---------------------------------------------------------------------------


def extract_expression(state_column: str, qubits: Sequence[int]) -> str:
    """SQL expression computing the gate-local sub-index of ``state_column``.

    Contiguous runs collapse to a single shift-and-mask (the paper's
    ``(T0.s & 1)`` / ``((T2.s >> 1) & 3)`` forms); arbitrary qubit sets fall
    back to a per-bit OR of shifted single-bit extractions.
    """
    qubits = [int(q) for q in qubits]
    local_mask = (1 << len(qubits)) - 1
    if is_contiguous_ascending(qubits):
        start = qubits[0]
        if start == 0:
            return f"({state_column} & {local_mask})"
        return f"(({state_column} >> {start}) & {local_mask})"
    parts = []
    for position, qubit in enumerate(qubits):
        bit = f"(({state_column} >> {qubit}) & 1)"
        parts.append(bit if position == 0 else f"({bit} << {position})")
    return "(" + " | ".join(parts) + ")"


def deposit_expression(gate_column: str, qubits: Sequence[int]) -> str:
    """SQL expression scattering a gate-table ``out_s`` back to global positions."""
    qubits = [int(q) for q in qubits]
    if is_contiguous_ascending(qubits):
        start = qubits[0]
        if start == 0:
            return gate_column
        return f"({gate_column} << {start})"
    parts = []
    for position, qubit in enumerate(qubits):
        bit = f"(({gate_column} >> {position}) & 1)"
        if qubit == 0:
            parts.append(bit)
        else:
            parts.append(f"({bit} << {qubit})")
    return "(" + " | ".join(parts) + ")"


def clear_expression(state_column: str, qubits: Sequence[int]) -> str:
    """SQL expression clearing the gate qubits of ``state_column``: ``(s & ~mask)``."""
    mask = qubit_mask(qubits)
    return f"({state_column} & ~{mask})"


def output_index_expression(state_column: str, gate_column: str, qubits: Sequence[int]) -> str:
    """The full new-index expression ``(s & ~mask) | deposit(out_s)`` of the paper."""
    deposited = deposit_expression(gate_column, qubits)
    return f"({clear_expression(state_column, qubits)} | {deposited})"


def permutation_expression(state_column: str, physical: Sequence[int]) -> str:
    """SQL expression renaming bit positions: logical bit ``q`` is read from bit ``physical[q]``.

    The Python reference is ``extract_local(index, physical)``.  Bits moving
    by the same distance share one shift-and-mask term, so a permutation
    that fixes most qubits stays a short expression.
    """
    masks: dict[int, int] = {}
    for logical, bit in enumerate(physical):
        shift = logical - int(bit)
        masks[shift] = masks.get(shift, 0) | (1 << int(bit))
    parts = []
    for shift, mask in sorted(masks.items()):
        if shift == 0:
            parts.append(f"({state_column} & {mask})")
        elif shift > 0:
            parts.append(f"(({state_column} & {mask}) << {shift})")
        else:
            parts.append(f"(({state_column} >> {-shift}) & {mask >> -shift})")
    return "(" + " | ".join(parts) + ")"


def bitstring(index: int, num_qubits: int) -> str:
    """Render a basis index as a bitstring (qubit 0 rightmost)."""
    if index < 0 or index >= (1 << num_qubits):
        raise TranslationError(f"index {index} out of range for {num_qubits} qubits")
    return format(index, f"0{num_qubits}b")


def index_of_bitstring(bits: str) -> int:
    """Parse a bitstring (qubit 0 rightmost) back into a basis index."""
    stripped = bits.strip()
    if not stripped or any(ch not in "01" for ch in stripped):
        raise TranslationError(f"invalid bitstring {bits!r}")
    return int(stripped, 2)

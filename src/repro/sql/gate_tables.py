"""Gate-table construction and registry.

Every gate used by a circuit is materialized once as a relational table
``T(in_s, out_s, r, i)`` holding its nonzero transition amplitudes (Sec. 2.1
and the ``H`` / ``CX`` tables of Fig. 2b).  Identical gates share one table:
the registry deduplicates by matrix content, so a circuit with a thousand
Hadamards still creates a single ``H`` table.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from ..core.gates import Gate
from ..errors import TranslationError
from .bounds import table_kind
from .schema import is_valid_identifier, sanitize_identifier

#: Default tolerance below which a transition amplitude is treated as zero.
GATE_ATOL = 1e-12

GateRow = tuple[int, int, float, float]


class GateTable:
    """One registered gate table: a name plus its relational rows."""

    __slots__ = ("name", "gate_name", "num_qubits", "rows")

    def __init__(self, name: str, gate_name: str, num_qubits: int, rows: Sequence[GateRow]) -> None:
        self.name = name
        self.gate_name = gate_name
        self.num_qubits = num_qubits
        self.rows = list(rows)

    @property
    def num_rows(self) -> int:
        """Number of nonzero transition amplitudes."""
        return len(self.rows)

    @property
    def kind(self) -> str:
        """Branching, permutation or diagonal (see :func:`~repro.sql.bounds.table_kind`)."""
        return table_kind(self.rows)

    def __repr__(self) -> str:
        return f"GateTable({self.name!r}, gate={self.gate_name!r}, qubits={self.num_qubits}, rows={self.num_rows})"


def gate_rows(gate: Gate, atol: float = GATE_ATOL) -> list[GateRow]:
    """The relational rows of a gate: ``(in_s, out_s, Re, Im)`` for nonzero entries.

    A diagonal kind's rows come straight from its diagonal (``in_s = out_s``),
    without scanning a dense matrix.
    """
    if not gate.diagonal:
        return gate.nonzero_entries(atol=atol)
    entries = gate.diagonal_entries()
    index = np.flatnonzero(np.abs(entries) > atol)
    kept = entries[index]
    index = index.tolist()
    return list(zip(index, index, kept.real.tolist(), kept.imag.tolist()))


class GateTableRegistry:
    """Assigns table names to gates and deduplicates identical matrices.

    Naming convention: an unparameterized standard gate keeps its upper-case
    name (``H``, ``CX``, ``SWAP`` — matching the paper's figures); gates that
    carry parameters or collide with an existing (different) matrix get a
    numeric suffix (``RZ_0``, ``RZ_1``, ``UNITARY_0`` ...).
    """

    def __init__(self, atol: float = GATE_ATOL) -> None:
        self._atol = atol
        self._tables: dict[str, GateTable] = {}
        self._by_fingerprint: dict[tuple, str] = {}
        self._name_counters: dict[str, int] = {}

    # ------------------------------------------------------------ inspection

    @property
    def tables(self) -> list[GateTable]:
        """All registered tables in registration order."""
        return list(self._tables.values())

    def __iter__(self) -> Iterator[GateTable]:
        return iter(self._tables.values())

    def __len__(self) -> int:
        return len(self._tables)

    def get(self, name: str) -> GateTable:
        """Look up a table by name."""
        if name not in self._tables:
            raise TranslationError(f"no gate table named {name!r}")
        return self._tables[name]

    # -------------------------------------------------------------- registry

    def _base_name(self, gate: Gate) -> str:
        candidate = gate.name.upper()
        if gate.params or not is_valid_identifier(candidate):
            candidate = sanitize_identifier(candidate, fallback="GATE").upper()
            return candidate
        return candidate

    def register(self, gate: Gate) -> GateTable:
        """Register ``gate`` (or return the existing table for an identical matrix)."""
        if gate.is_parameterized:
            raise TranslationError(
                f"gate {gate.name!r} still has unbound parameters; bind them before translation"
            )
        rows = gate_rows(gate, atol=self._atol)
        if not rows:
            raise TranslationError(f"gate {gate.name!r} has an all-zero matrix")
        return self.register_rows(self._base_name(gate), gate.name, gate.num_qubits, rows, numbered=bool(gate.params))

    def register_rows(
        self, base: str, gate_name: str, num_qubits: int, rows: Sequence[GateRow], numbered: bool = False
    ) -> GateTable:
        """Register a table of ``rows`` named after ``base`` (or return the table with identical rows).

        The table is called ``base`` unless ``numbered`` is set or the name
        is taken, in which case it gets the next free ``base_<n>``.
        """
        rounded = tuple((in_s, out_s, round(r, 12), round(i, 12)) for in_s, out_s, r, i in rows)
        fingerprint = (num_qubits, rounded)
        existing = self._by_fingerprint.get(fingerprint)
        if existing is not None:
            return self._tables[existing]

        if numbered or base in self._tables:
            counter = self._name_counters.get(base, 0)
            name = f"{base}_{counter}"
            while name in self._tables:
                counter += 1
                name = f"{base}_{counter}"
            self._name_counters[base] = counter + 1
        else:
            name = base

        table = GateTable(name, gate_name, num_qubits, rows)
        self._tables[name] = table
        self._by_fingerprint[fingerprint] = name
        return table

    def total_rows(self) -> int:
        """Total number of gate-table rows across the registry."""
        return sum(table.num_rows for table in self._tables.values())

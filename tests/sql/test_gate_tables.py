"""Tests for gate-table construction and the registry."""

import math

import pytest

from repro.core.gates import standard_gate
from repro.core.parameters import Parameter
from repro.errors import TranslationError
from repro.sql.bounds import BRANCHING, DIAGONAL, PERMUTATION
from repro.sql.gate_tables import GateTableRegistry, gate_rows


class TestGateRows:
    def test_hadamard_rows(self):
        rows = gate_rows(standard_gate("h"))
        assert len(rows) == 4
        amp = 1 / math.sqrt(2)
        assert (1, 1, pytest.approx(-amp), 0.0) in [
            (a, b, pytest.approx(c), d) for a, b, c, d in rows
        ]

    def test_x_rows_are_permutation(self):
        rows = gate_rows(standard_gate("x"))
        assert rows == [(0, 1, 1.0, 0.0), (1, 0, 1.0, 0.0)]

    def test_zero_entries_are_dropped(self):
        rows = gate_rows(standard_gate("cx"))
        assert len(rows) == 4  # not 16


class TestRegistry:
    def test_standard_gates_keep_their_names(self):
        registry = GateTableRegistry()
        assert registry.register(standard_gate("h")).name == "H"
        assert registry.register(standard_gate("cx")).name == "CX"

    def test_identical_gates_are_deduplicated(self):
        registry = GateTableRegistry()
        first = registry.register(standard_gate("h"))
        second = registry.register(standard_gate("h"))
        assert first is second
        assert len(registry) == 1

    def test_parameterized_gates_get_suffixes(self):
        registry = GateTableRegistry()
        a = registry.register(standard_gate("rz", 0.3))
        b = registry.register(standard_gate("rz", 0.7))
        c = registry.register(standard_gate("rz", 0.3))
        assert a.name != b.name
        assert a is c
        assert a.name.startswith("RZ_")

    def test_unbound_parameter_rejected(self):
        registry = GateTableRegistry()
        with pytest.raises(TranslationError):
            registry.register(standard_gate("rz", Parameter("t")))

    def test_permutation_detection(self):
        registry = GateTableRegistry()
        assert registry.register(standard_gate("cx")).kind == PERMUTATION
        assert registry.register(standard_gate("h")).kind == BRANCHING
        assert registry.register(standard_gate("cz")).kind == DIAGONAL

    def test_lookup_and_total_rows(self):
        registry = GateTableRegistry()
        registry.register(standard_gate("h"))
        registry.register(standard_gate("cx"))
        assert registry.get("H").gate_name == "h"
        assert registry.total_rows() == 8
        with pytest.raises(TranslationError):
            registry.get("SWAP")

    def test_same_matrix_different_name_shares_table(self):
        registry = GateTableRegistry()
        cx = registry.register(standard_gate("cx"))
        cnot = registry.register(standard_gate("cnot"))
        assert cx is cnot

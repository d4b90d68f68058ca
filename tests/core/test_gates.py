"""Tests for the gate library."""

import math

import numpy as np
import pytest

from repro.core.gates import (
    _STANDARD_SPECS,
    STANDARD_GATES,
    DiagonalGate,
    Gate,
    canonical_gate_name,
    controlled_gate,
    is_standard_gate,
    standard_gate,
    unitary_gate,
)
from repro.core.parameters import Parameter
from repro.errors import GateError, ParameterError


class TestStandardGateLibrary:
    @pytest.mark.parametrize("name", sorted(STANDARD_GATES))
    def test_every_standard_gate_is_unitary(self, name):
        spec = STANDARD_GATES[name]
        params = [0.7] * spec.num_params
        gate = standard_gate(name, *params)
        gate.check_unitary()

    def test_alias_resolution(self):
        assert canonical_gate_name("cnot") == "cx"
        assert canonical_gate_name("u1") == "p"
        assert canonical_gate_name("toffoli") == "ccx"

    def test_unknown_gate_raises(self):
        with pytest.raises(GateError):
            canonical_gate_name("frobnicate")
        assert not is_standard_gate("frobnicate")

    def test_wrong_parameter_count(self):
        with pytest.raises(GateError):
            standard_gate("rz")
        with pytest.raises(GateError):
            standard_gate("h", 0.5)

    def test_hadamard_matrix(self):
        matrix = standard_gate("h").matrix()
        expected = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        np.testing.assert_allclose(matrix, expected)

    def test_cx_matrix_matches_paper_table(self):
        # Fig. 2b of the paper: in 0->0, 1->3, 2->2, 3->1 (control = local bit 0).
        rows = standard_gate("cx").nonzero_entries()
        assert rows == [(0, 0, 1.0, 0.0), (1, 3, 1.0, 0.0), (2, 2, 1.0, 0.0), (3, 1, 1.0, 0.0)]

    def test_hadamard_rows_match_paper_table(self):
        rows = standard_gate("h").nonzero_entries()
        amp = 1 / math.sqrt(2)
        assert rows == [
            (0, 0, pytest.approx(amp), 0.0),
            (0, 1, pytest.approx(amp), 0.0),
            (1, 0, pytest.approx(amp), 0.0),
            (1, 1, pytest.approx(-amp), 0.0),
        ]

    def test_rz_depends_on_angle(self):
        assert not np.allclose(standard_gate("rz", 0.3).matrix(), standard_gate("rz", 0.7).matrix())

    def test_ccx_flips_only_when_both_controls_set(self):
        matrix = standard_gate("ccx").matrix()
        # Local index 3 = both controls set, target 0 -> local index 7.
        assert matrix[7, 3] == pytest.approx(1.0)
        assert matrix[3, 3] == pytest.approx(0.0)
        assert matrix[2, 2] == pytest.approx(1.0)


class TestGateBehaviour:
    def test_parameterized_gate_binding(self):
        theta = Parameter("theta")
        gate = standard_gate("rx", theta)
        assert gate.is_parameterized
        bound = gate.bind({theta: math.pi})
        assert not bound.is_parameterized
        np.testing.assert_allclose(bound.matrix(), np.array([[0, -1j], [-1j, 0]]), atol=1e-12)

    def test_unbound_matrix_raises(self):
        gate = standard_gate("rx", Parameter("theta"))
        with pytest.raises(ParameterError):
            gate.matrix()

    def test_inverse_gate(self):
        gate = standard_gate("s")
        inverse = gate.inverse()
        np.testing.assert_allclose(gate.matrix() @ inverse.matrix(), np.eye(2), atol=1e-12)

    def test_inverse_of_parameterized_raises(self):
        with pytest.raises(GateError):
            standard_gate("rz", Parameter("t")).inverse()

    def test_diagonal_and_permutation_classification(self):
        assert standard_gate("z").is_diagonal()
        assert standard_gate("rz", 0.3).is_diagonal()
        assert not standard_gate("h").is_diagonal()
        assert standard_gate("x").is_permutation()
        assert standard_gate("cx").is_permutation()
        assert not standard_gate("h").is_permutation()

    @pytest.mark.parametrize("spec", _STANDARD_SPECS, ids=lambda spec: spec.name)
    def test_diagonal_kind_flag_is_the_law(self, spec):
        """Flagged <=> the matrix is diagonal at every drawn angle set."""
        rng = np.random.default_rng(sum(map(ord, spec.name)))
        always_diagonal = True
        for _draw in range(5):
            gate = standard_gate(spec.name, *rng.uniform(-2 * math.pi, 2 * math.pi, spec.num_params))
            assert gate.diagonal == spec.diagonal
            matrix = gate.matrix()
            diagonal = bool(np.allclose(matrix, np.diag(np.diag(matrix)), atol=1e-12))
            if spec.diagonal:
                assert diagonal
                np.testing.assert_array_equal(gate.diagonal_entries(), np.diag(matrix))
            always_diagonal &= diagonal
        assert always_diagonal == spec.diagonal

    def test_diagonal_flag_is_structural(self):
        theta = Parameter("theta")
        assert standard_gate("rz", theta).diagonal
        assert standard_gate("rz", theta).bind({theta: 0.4}).diagonal
        assert standard_gate("t").inverse().diagonal
        # RX(0) is the identity matrix, but RX is not a diagonal kind.
        assert standard_gate("rx", 0.0).is_diagonal() and not standard_gate("rx", 0.0).diagonal
        assert not unitary_gate(np.diag([1, 1j])).diagonal
        assert standard_gate("swap").is_swap
        assert not unitary_gate(standard_gate("swap").matrix(), name="swap").is_swap

    def test_diagonal_gate_from_entries(self):
        entries = np.exp(1j * np.arange(8))
        gate = DiagonalGate(entries)
        assert gate.diagonal and gate.num_qubits == 3
        np.testing.assert_array_equal(gate.diagonal_entries(), entries)
        np.testing.assert_allclose(gate.matrix(), np.diag(entries))
        with pytest.raises(GateError):
            DiagonalGate([1.0, 2.0])
        with pytest.raises(GateError):
            DiagonalGate([1.0, 1.0, 1.0])

    def test_equality(self):
        assert standard_gate("h") == standard_gate("h")
        assert standard_gate("rz", 0.5) == standard_gate("rz", 0.5)
        assert standard_gate("rz", 0.5) != standard_gate("rz", 0.6)
        assert standard_gate("h") != standard_gate("x")

    def test_free_parameters_property(self):
        theta = Parameter("theta")
        assert standard_gate("rz", theta).free_parameters == frozenset({theta})
        assert standard_gate("h").free_parameters == frozenset()


class TestCustomGates:
    def test_unitary_gate_roundtrip(self):
        matrix = standard_gate("h").matrix()
        gate = unitary_gate(matrix, name="my_h")
        np.testing.assert_allclose(gate.matrix(), matrix)
        assert gate.name == "my_h"

    def test_non_unitary_rejected(self):
        with pytest.raises(GateError):
            unitary_gate(np.array([[1, 0], [0, 2]]))

    def test_non_power_of_two_rejected(self):
        with pytest.raises(GateError):
            unitary_gate(np.eye(3))

    def test_non_square_rejected(self):
        with pytest.raises(GateError):
            unitary_gate(np.ones((2, 4)))

    def test_controlled_gate_construction(self):
        controlled_z = controlled_gate(standard_gate("z"))
        np.testing.assert_allclose(controlled_z.matrix(), standard_gate("cz").matrix(), atol=1e-12)

    def test_controlled_gate_of_parameterized_raises(self):
        with pytest.raises(GateError):
            controlled_gate(standard_gate("rz", Parameter("t")))

    def test_gate_requires_positive_qubits(self):
        with pytest.raises(GateError):
            Gate("bad", 0)

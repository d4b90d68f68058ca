"""Tests for the QuantumCircuit IR."""

import math

import pytest

from repro.core import ClassicalRegister, QuantumCircuit, QuantumRegister, standard_gate
from repro.core.circuit import circuit_from_instructions
from repro.core.instruction import Instruction
from repro.core.parameters import Parameter
from repro.errors import CircuitError, ParameterError


class TestConstruction:
    def test_basic_properties(self, ghz3):
        assert ghz3.num_qubits == 3
        assert ghz3.size() == 3
        assert ghz3.depth() == 3
        assert ghz3.count_ops() == {"h": 1, "cx": 2}

    def test_gates_property_excludes_non_gates(self):
        qc = QuantumCircuit(2)
        qc.h(0)
        qc.barrier()
        qc.measure_all()
        assert len(qc.gates) == 1
        assert len(qc.instructions) == 4

    def test_needs_at_least_one_qubit(self):
        with pytest.raises(CircuitError):
            QuantumCircuit(0)

    def test_register_construction(self):
        qreg = QuantumRegister(3, "data")
        creg = ClassicalRegister(2, "out")
        qc = QuantumCircuit(qreg, creg)
        assert qc.num_qubits == 3
        assert qc.num_clbits == 2
        qc.h(qreg[1])
        assert qc.gates[0].qubits == (1,)

    def test_qubit_out_of_range(self):
        qc = QuantumCircuit(2)
        with pytest.raises(CircuitError):
            qc.h(2)
        with pytest.raises(CircuitError):
            qc.cx(0, 5)

    def test_duplicate_qubits_rejected(self):
        qc = QuantumCircuit(2)
        with pytest.raises(CircuitError):
            qc.cx(1, 1)

    def test_fluent_chaining(self):
        qc = QuantumCircuit(2)
        returned = qc.h(0).cx(0, 1).x(1)
        assert returned is qc
        assert qc.size() == 3

    def test_all_gate_helpers_append(self):
        qc = QuantumCircuit(3)
        qc.id(0).x(0).y(0).z(0).h(0).s(0).sdg(0).t(0).tdg(0).sx(0)
        qc.rx(0.1, 0).ry(0.2, 0).rz(0.3, 0).p(0.4, 0).u(0.1, 0.2, 0.3, 0)
        qc.cx(0, 1).cy(0, 1).cz(0, 1).ch(0, 1).cp(0.1, 0, 1)
        qc.crx(0.1, 0, 1).cry(0.2, 0, 1).crz(0.3, 0, 1)
        qc.swap(0, 1).iswap(0, 1).rzz(0.5, 0, 1).rxx(0.5, 0, 1)
        qc.ccx(0, 1, 2).ccz(0, 1, 2).cswap(0, 1, 2)
        assert qc.size() == 30

    def test_unitary_append(self):
        qc = QuantumCircuit(1)
        qc.unitary(standard_gate("h").matrix(), [0], name="hadamard_like")
        assert qc.gates[0].gate.name == "hadamard_like"


class TestMeasurementAndClassicalBits:
    def test_measure_allocates_clbits(self):
        qc = QuantumCircuit(3)
        qc.measure(2)
        assert qc.num_clbits == 3
        assert qc.instructions[-1].clbits == (2,)

    def test_measure_all(self):
        qc = QuantumCircuit(3)
        qc.measure_all()
        assert qc.num_clbits == 3
        assert qc.measured_qubits() == [0, 1, 2]

    def test_explicit_clbit(self):
        qc = QuantumCircuit(2, 2)
        qc.measure(0, 1)
        assert qc.instructions[-1].clbits == (1,)

    def test_clbit_out_of_range(self):
        qc = QuantumCircuit(2, 1)
        with pytest.raises(CircuitError):
            qc.measure(0, 5)


class TestTransformations:
    def test_bind_parameters_by_name_and_object(self):
        theta = Parameter("theta")
        qc = QuantumCircuit(1)
        qc.rx(theta, 0)
        by_name = qc.bind_parameters({"theta": math.pi})
        by_object = qc.bind_parameters({theta: math.pi})
        assert not by_name.is_parameterized
        assert by_name == by_object
        # The original circuit is untouched.
        assert qc.is_parameterized

    def test_bind_unknown_parameter_raises(self):
        qc = QuantumCircuit(1)
        qc.rx(Parameter("theta"), 0)
        with pytest.raises(ParameterError):
            qc.bind_parameters({"other": 1.0})

    def test_compose_identity_mapping(self, ghz3):
        qc = QuantumCircuit(3)
        combined = qc.compose(ghz3)
        assert combined.count_ops() == ghz3.count_ops()

    def test_compose_onto_subset(self):
        inner = QuantumCircuit(2)
        inner.cx(0, 1)
        outer = QuantumCircuit(4)
        combined = outer.compose(inner, qubits=[2, 3])
        assert combined.gates[0].qubits == (2, 3)

    def test_compose_wrong_mapping_length(self, ghz3):
        with pytest.raises(CircuitError):
            QuantumCircuit(3).compose(ghz3, qubits=[0, 1])

    def test_inverse_reverses_and_inverts(self):
        qc = QuantumCircuit(1)
        qc.s(0).t(0)
        inverse = qc.inverse()
        assert [ins.gate.name for ins in inverse.gates] == ["t_dg", "s_dg"]

    def test_inverse_with_measurement_raises(self):
        qc = QuantumCircuit(1)
        qc.h(0).measure(0)
        with pytest.raises(CircuitError):
            qc.inverse()

    def test_without_measurements(self):
        qc = QuantumCircuit(2)
        qc.h(0).measure_all()
        stripped = qc.without_measurements()
        assert stripped.size() == 1
        assert len(stripped.instructions) == 1

    def test_power(self):
        qc = QuantumCircuit(1)
        qc.x(0)
        assert qc.power(3).size() == 3
        with pytest.raises(CircuitError):
            qc.power(-1)

    def test_copy_is_independent(self, ghz3):
        duplicate = ghz3.copy()
        duplicate.h(2)
        assert duplicate.size() == ghz3.size() + 1


class TestStatistics:
    def test_depth_with_parallel_gates(self):
        qc = QuantumCircuit(4)
        qc.h(0).h(1).h(2).h(3)
        qc.cx(0, 1).cx(2, 3)
        assert qc.depth() == 2

    def test_barrier_does_not_count_towards_depth(self):
        qc = QuantumCircuit(2)
        qc.h(0)
        qc.barrier()
        qc.h(1)
        assert qc.depth() == 1

    def test_num_nonlocal_gates(self, ghz3):
        assert ghz3.num_nonlocal_gates() == 2

    def test_branching_gate_count(self, ghz3):
        # H branches; CX gates are permutations.
        assert ghz3.branching_gate_count() == 1

    def test_diagonal_kinds_never_branch_bound_or_not(self):
        from repro.circuits import qaoa_maxcut_circuit

        template = qaoa_maxcut_circuit(8)
        bound = template.bind_parameters({parameter: 0.3 for parameter in template.parameters})
        # 8 H and 8 RX branch; the 8 RZZ are diagonal whether their angle is symbolic or not.
        assert template.branching_gate_count() == bound.branching_gate_count() == 16

    def test_width(self):
        qc = QuantumCircuit(2, 2)
        assert qc.width() == 4

    def test_draw_contains_gate_markers(self, ghz3):
        art = ghz3.draw()
        assert "[H]" in art
        assert "[CX]" in art
        assert art.count("\n") == 2


class TestIterationAndEquality:
    def test_len_iter_getitem(self, ghz3):
        assert len(ghz3) == 3
        assert ghz3[0].name == "h"
        assert [ins.name for ins in ghz3] == ["h", "cx", "cx"]

    def test_equality_by_structure(self):
        a = QuantumCircuit(2)
        a.h(0).cx(0, 1)
        b = QuantumCircuit(2, name="different_name")
        b.h(0).cx(0, 1)
        assert a == b
        b.x(0)
        assert a != b

    def test_circuit_from_instructions(self):
        instructions = [Instruction(standard_gate("h"), [0]), Instruction(standard_gate("cx"), [0, 1])]
        qc = circuit_from_instructions(2, instructions, name="rebuilt")
        assert qc.size() == 2
        assert qc.name == "rebuilt"

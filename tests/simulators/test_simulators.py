"""Tests for the baseline simulators (statevector, sparse, MPS, decision diagram)."""

import numpy as np
import pytest

from repro.circuits import (
    dense_phase_circuit,
    ghz_circuit,
    qft_on_basis_state,
    random_circuit,
    superposition_circuit,
    w_state_circuit,
)
from repro.core import QuantumCircuit, standard_gate
from repro.core.parameters import Parameter
from repro.errors import MidCircuitOperationError, ResourceLimitExceeded, SimulationError
from repro.output import SparseState, states_agree
from repro.simulators import (
    DecisionDiagramSimulator,
    MPSSimulator,
    SparseSimulator,
    StatevectorSimulator,
    available_simulators,
)
from repro.simulators.sparse import apply_gate_to_mapping
from repro.simulators.statevector import apply_gate_to_vector


class TestStatevectorSimulator:
    def test_ghz_amplitudes(self, ghz3, statevector_simulator):
        state = statevector_simulator.run(ghz3).state
        assert state.amplitude(0) == pytest.approx(2 ** -0.5)
        assert state.amplitude(7) == pytest.approx(2 ** -0.5)

    def test_initial_state_override(self, statevector_simulator):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        initial = SparseState(2, {1: 1.0})
        state = statevector_simulator.run(circuit, initial_state=initial).state
        assert state.probability_of(3) == pytest.approx(1.0)

    def test_qubit_limit(self):
        simulator = StatevectorSimulator(max_qubits=4)
        with pytest.raises(SimulationError):
            simulator.run(ghz_circuit(5))

    def test_memory_budget(self):
        simulator = StatevectorSimulator(max_state_bytes=100)
        with pytest.raises(ResourceLimitExceeded):
            simulator.run(ghz_circuit(4))

    def test_required_bytes(self):
        assert StatevectorSimulator().required_bytes(10) == 16 * 1024

    def test_reset_instruction(self):
        circuit = QuantumCircuit(1)
        circuit.x(0)
        circuit.reset(0)
        with pytest.raises(MidCircuitOperationError, match="reset"):
            StatevectorSimulator().run(circuit)

    def test_measurements_do_not_alter_state(self, statevector_simulator):
        circuit = ghz_circuit(3)
        circuit.measure_all()
        state = statevector_simulator.run(circuit).state
        assert state.num_nonzero == 2

    def test_unbound_parameters_rejected(self, statevector_simulator):
        circuit = QuantumCircuit(1)
        circuit.rz(Parameter("t"), 0)
        with pytest.raises(SimulationError):
            statevector_simulator.run(circuit)

    def test_apply_gate_to_vector_helper(self):
        vector = np.zeros(4, dtype=np.complex128)
        vector[0] = 1.0
        h = standard_gate("h").matrix()
        result = apply_gate_to_vector(vector, h, [1], 2)
        assert result[0] == pytest.approx(2 ** -0.5)
        assert result[2] == pytest.approx(2 ** -0.5)


class TestSparseSimulator:
    def test_only_nonzero_amplitudes_stored(self, sparse_simulator):
        result = sparse_simulator.run(ghz_circuit(10))
        assert result.state.num_nonzero == 2
        assert result.peak_state_rows == 2

    def test_matches_statevector_on_random_circuits(self, sparse_simulator, statevector_simulator):
        for seed in range(3):
            circuit = random_circuit(4, 6, seed=seed)
            assert states_agree(
                statevector_simulator.run(circuit).state,
                sparse_simulator.run(circuit).state,
                up_to_global_phase=False,
            )

    def test_max_nonzero_limit(self):
        simulator = SparseSimulator(max_nonzero=4)
        with pytest.raises(SimulationError):
            simulator.run(superposition_circuit(4))

    def test_peak_rows_estimate(self, sparse_simulator):
        assert sparse_simulator.peak_rows_estimate(ghz_circuit(8)) == 2
        assert sparse_simulator.peak_rows_estimate(superposition_circuit(3)) == 8

    def test_reset(self):
        circuit = QuantumCircuit(2)
        circuit.x(0)
        circuit.reset(0)
        with pytest.raises(MidCircuitOperationError, match="reset"):
            SparseSimulator().run(circuit)

    def test_apply_gate_to_mapping_matches_sql_semantics(self):
        rows = standard_gate("h").nonzero_entries()
        amplitudes = apply_gate_to_mapping({0: 1.0 + 0j}, rows, [2])
        assert amplitudes[0] == pytest.approx(2 ** -0.5)
        assert amplitudes[4] == pytest.approx(2 ** -0.5)


class TestMPSSimulator:
    @pytest.mark.parametrize(
        "circuit_factory",
        [
            lambda: ghz_circuit(6),
            lambda: w_state_circuit(5),
            lambda: qft_on_basis_state(4, 11),
            lambda: dense_phase_circuit(4, 2),
            lambda: random_circuit(5, 5, seed=13),
        ],
        ids=["ghz", "w", "qft", "dense", "random"],
    )
    def test_matches_statevector(self, circuit_factory):
        circuit = circuit_factory()
        reference = StatevectorSimulator().run(circuit).state
        result = MPSSimulator().run(circuit).state
        assert states_agree(reference, result, atol=1e-7, up_to_global_phase=False)

    def test_ghz_bond_dimension_stays_two(self):
        result = MPSSimulator().run(ghz_circuit(12))
        assert result.metadata["max_bond_dimension"] == 2

    def test_truncation_error_reported_when_bond_capped(self):
        circuit = random_circuit(6, 8, seed=3, two_qubit_probability=0.8)
        result = MPSSimulator(max_bond_dimension=2).run(circuit)
        assert result.metadata["truncation_error"] >= 0.0

    def test_non_adjacent_gates_supported(self):
        circuit = QuantumCircuit(4)
        circuit.h(0)
        circuit.cx(0, 3)
        reference = StatevectorSimulator().run(circuit).state
        assert states_agree(reference, MPSSimulator().run(circuit).state, up_to_global_phase=False)

    def test_initial_state_unsupported(self):
        with pytest.raises(SimulationError):
            MPSSimulator().run(ghz_circuit(2), initial_state=SparseState(2, {0: 1.0}))

    def test_invalid_bond_dimension(self):
        with pytest.raises(SimulationError):
            MPSSimulator(max_bond_dimension=0)

    def test_bond_profile(self):
        profile = MPSSimulator().bond_profile(ghz_circuit(5))
        assert len(profile) == 4
        assert max(profile) == 2


class TestDecisionDiagramSimulator:
    @pytest.mark.parametrize(
        "circuit_factory",
        [
            lambda: ghz_circuit(6),
            lambda: w_state_circuit(4),
            lambda: qft_on_basis_state(4, 5),
            lambda: superposition_circuit(5),
            lambda: random_circuit(4, 5, seed=21),
        ],
        ids=["ghz", "w", "qft", "superposition", "random"],
    )
    def test_matches_statevector(self, circuit_factory):
        circuit = circuit_factory()
        reference = StatevectorSimulator().run(circuit).state
        result = DecisionDiagramSimulator().run(circuit).state
        assert states_agree(reference, result, atol=1e-7, up_to_global_phase=False)

    def test_structured_states_have_small_diagrams(self):
        ghz_nodes = DecisionDiagramSimulator().run(ghz_circuit(14)).metadata["unique_nodes"]
        assert ghz_nodes < 600  # far below the 2^14 amplitudes of a dense representation

    def test_node_budget_enforced(self):
        simulator = DecisionDiagramSimulator(max_nodes=16)
        with pytest.raises(SimulationError):
            simulator.run(random_circuit(6, 6, seed=2))

    def test_initial_state_unsupported(self):
        with pytest.raises(SimulationError):
            DecisionDiagramSimulator().run(ghz_circuit(2), initial_state=SparseState(2, {0: 1.0}))

    def test_cx_with_control_below_target(self):
        circuit = QuantumCircuit(3)
        circuit.h(0)
        circuit.cx(0, 2)
        reference = StatevectorSimulator().run(circuit).state
        assert states_agree(reference, DecisionDiagramSimulator().run(circuit).state, up_to_global_phase=False)

    def test_node_count_helper(self):
        assert DecisionDiagramSimulator().node_count(ghz_circuit(6)) > 0


class TestRegistryAndResultMetadata:
    def test_available_simulators(self):
        registry = available_simulators()
        assert set(registry) == {"statevector", "sparse", "mps", "dd"}

    def test_every_method_reports_timing(self, any_method, ghz3):
        result = any_method.run(ghz3)
        assert result.wall_time_s > 0
        assert result.num_gates == 3
        assert result.circuit_name == "ghz_3"


_ALL_METHODS = ("statevector", "sparse", "mps", "dd", "sqlite", "memdb")


def _measure_then_gate() -> QuantumCircuit:
    """``H; measure; H``: the right answer is 50/50, the pre-measurement state says |0>."""
    circuit = QuantumCircuit(1)
    circuit.h(0)
    circuit.measure(0)
    circuit.h(0)
    circuit.measure(0)
    return circuit


def _bell_then_reset() -> QuantumCircuit:
    circuit = ghz_circuit(2)
    circuit.reset(0)
    return circuit


class TestMidCircuitOperationsAreRefused:
    """Every method computes the pre-measurement state, exact only for terminal measurements."""

    @pytest.mark.parametrize("method", _ALL_METHODS)
    @pytest.mark.parametrize("build", [_measure_then_gate, _bell_then_reset], ids=["gate-after-measure", "reset"])
    def test_every_method_refuses(self, method, build):
        from repro.service.jobs import make_method

        with pytest.raises(MidCircuitOperationError):
            make_method(method).compile(build())

    @pytest.mark.parametrize("method", _ALL_METHODS)
    def test_terminal_measurements_still_run(self, method):
        from repro.circuits import bernstein_vazirani_circuit, parity_check_circuit, phase_estimation_circuit
        from repro.service.jobs import make_method

        circuits = [parity_check_circuit("1011"), bernstein_vazirani_circuit("101")]
        if method != "dd":
            # The decision-diagram simulator cannot decompose the inverse
            # QFT's ``swap_dg``, measured or not.
            circuits.append(phase_estimation_circuit(3, 0.25, measure=True))
        for circuit in circuits:
            assert any(instruction.is_measurement for instruction in circuit.instructions)
            reference = StatevectorSimulator().run(circuit.without_measurements()).state
            assert states_agree(reference, make_method(method).run(circuit).state)

    def test_a_gate_on_another_qubit_after_a_measurement_runs(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.measure(0)
        circuit.x(1)
        assert StatevectorSimulator().run(circuit).state.probability_of(2) == pytest.approx(0.5)

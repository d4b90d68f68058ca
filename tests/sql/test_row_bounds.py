"""The per-step row bound: its walk rules, and exact sums on the corpus."""

import pytest

from repro.backends import MemDBBackend, SQLiteBackend
from repro.circuits import (
    ghz_circuit,
    hardware_efficient_ansatz,
    qaoa_maxcut_circuit,
    qft_circuit,
    random_circuit,
)
from repro.core import QuantumCircuit
from repro.errors import TranslationError
from repro.output import SparseState
from repro.simulators import SparseSimulator
from repro.sql import translate_circuit
from repro.sql.bounds import (
    BRANCHING,
    DIAGONAL,
    PERMUTATION,
    SWAP,
    circuit_row_bounds,
    row_bounds,
)


def _bound_hea8() -> QuantumCircuit:
    template = hardware_efficient_ansatz(8, reps=1, rotation_gates=("ry",))
    names = sorted(parameter.name for parameter in template.parameters)
    return template.bind_parameters({name: 0.3 + 0.1 * k for k, name in enumerate(names)})


class TestWalk:
    def test_branching_doubles_per_qubit_until_the_untouched_bits_run_out(self):
        steps = [(BRANCHING, (0,)), (BRANCHING, (1,)), (BRANCHING, (0,)), (BRANCHING, (0, 1))]
        # The third H on qubit 0 has 2 patterns outside it (bit 1) times 2.
        assert row_bounds(steps, num_qubits=2) == [2, 4, 4, 4]

    def test_a_permutation_keeps_the_bound_and_spreads_touched_bits(self):
        # H(0) CX(0, 1) H(0): bit 1 now varies with bit 0, so the second H
        # on qubit 0 can double the rows; behind an X(1) it cannot.
        touched = [(BRANCHING, (0,)), (PERMUTATION, (0, 1)), (BRANCHING, (0,))]
        assert row_bounds(touched, num_qubits=3) == [2, 2, 4]
        untouched = [(BRANCHING, (0,)), (PERMUTATION, (1,)), (BRANCHING, (0,))]
        assert row_bounds(untouched, num_qubits=3) == [2, 2, 2]

    def test_a_diagonal_changes_nothing(self):
        steps = [(BRANCHING, (0,)), (DIAGONAL, (0, 1)), (BRANCHING, (1,))]
        assert row_bounds(steps, num_qubits=2) == [2, 2, 4]

    def test_a_swap_exchanges_touched_bits(self):
        steps = [(BRANCHING, (0,)), (SWAP, (0, 1)), (BRANCHING, (1,)), (BRANCHING, (0,))]
        assert row_bounds(steps, num_qubits=2) == [2, 2, 2, 4]

    def test_the_bound_never_exceeds_the_state_space(self):
        assert row_bounds([(BRANCHING, (0, 1, 2))] * 3, num_qubits=2) == [4, 4, 4]

    def test_initial_rows_count_as_distinct_patterns(self):
        assert row_bounds([(BRANCHING, (0,))], num_qubits=4, initial_rows=3) == [6]
        translation = translate_circuit(
            ghz_circuit(4), initial_state=SparseState(4, {0: 0.6, 2: 0.8})
        )
        assert translation.row_bounds()[0] == 4


class TestTemplates:
    def test_an_unbound_template_is_priced_by_gate_kind(self):
        template = qaoa_maxcut_circuit(8)
        with pytest.raises(TranslationError):
            translate_circuit(template)
        # rzz is diagonal whatever its angle; rx is counted as branching.
        bound = template.bind_parameters({p.name: 0.4 for p in template.parameters})
        assert sum(circuit_row_bounds(template)) == sum(circuit_row_bounds(bound)) == 4606

    def test_sparse_peak_is_the_largest_bound(self):
        for circuit, expected in ((ghz_circuit(8), 2), (qft_circuit(5), 32)):
            simulator = SparseSimulator()
            assert simulator.peak_rows_estimate(circuit) == expected
            assert simulator.run(circuit).peak_state_rows <= expected


class TestExactOnTheCorpus:
    """The bound equals the materialized rows wherever nothing cancels."""

    @pytest.mark.parametrize(
        "build,total",
        [
            (lambda: ghz_circuit(3), 6),
            (lambda: ghz_circuit(5), 10),
            (lambda: ghz_circuit(40), 80),
            (lambda: qft_circuit(6), 258),
            (lambda: qft_circuit(12), 16_958),
            (lambda: qft_circuit(14), 67_864),
            (_bound_hea8, 4_350),
        ],
        ids=["ghz3", "ghz5", "ghz40", "qft6", "qft12", "qft14", "hea8"],
    )
    @pytest.mark.parametrize("engine", [MemDBBackend, SQLiteBackend], ids=["memdb", "sqlite"])
    def test_bound_sum_equals_step_rows(self, build, total, engine):
        circuit = build()
        backend = engine(mode="materialized")
        bounds = backend.translate(circuit).row_bounds()
        assert sum(bounds) == total
        assert backend.run(circuit).metadata["step_rows"] == bounds

    def test_random_circuit_is_bounded_not_exact(self):
        circuit = random_circuit(8, 10, seed=1)
        backend = SQLiteBackend(mode="materialized")
        bounds = backend.translate(circuit).row_bounds()
        step_rows = backend.run(circuit).metadata["step_rows"]
        assert (sum(bounds), sum(step_rows)) == (6_103, 5_029)
        assert all(rows <= bound for rows, bound in zip(step_rows, bounds))

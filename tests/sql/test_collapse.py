"""The diagonal-block / SWAP-relabel pass of the Translation Layer."""

import sqlite3

import numpy as np
import pytest

from repro.backends import MemDBBackend, SQLiteBackend
from repro.circuits import ghz_circuit, hardware_efficient_ansatz, qaoa_maxcut_circuit, qft_circuit
from repro.core import QuantumCircuit
from repro.core.gates import standard_gate, unitary_gate
from repro.output import states_agree
from repro.simulators import StatevectorSimulator
from repro.sql import collapse as collapse_module
from repro.sql import translate_circuit
from repro.sql.collapse import MAX_BLOCK_QUBITS, collapse
from repro.sql.encoding import extract_local, permutation_expression
from repro.sql.gate_tables import GateTableRegistry, gate_rows
from repro.sql.translator import GateStep, RelabelStep


def _gate_names(translation):
    return [step.gate_name for step in translation.steps if isinstance(step, GateStep)]


class TestDiagonalBlocks:
    def test_commuting_diagonals_merge_into_one_table(self):
        circuit = QuantumCircuit(3)
        circuit.h(0).h(1).h(2)
        circuit.rz(0.3, 0).cz(0, 1).t(2).cp(0.7, 1, 2).s(0)
        translation = translate_circuit(circuit)
        assert _gate_names(translation) == ["h", "h", "h", "diag"]
        block = translation.steps[-1]
        assert block.qubits == (0, 1, 2)
        assert block.gate_table.num_rows == 8
        assert all(in_s == out_s for in_s, out_s, _r, _i in block.gate_table.rows)
        summary = translation.describe()
        assert (summary["gates"], summary["diagonal_blocks"], summary["swaps_elided"]) == (8, 1, 0)

    def test_a_block_moves_back_past_gates_on_other_qubits(self):
        circuit = QuantumCircuit(3)
        circuit.h(0).h(1).h(2)
        circuit.rz(0.3, 0).h(2).cz(0, 1)
        translation = translate_circuit(circuit)
        # The block opened at rz, before h(2); cz joined it across h(2).
        assert _gate_names(translation) == ["h", "h", "h", "diag", "h"]
        assert translation.steps[3].qubits == (0, 1)

    def test_the_fence_keeps_a_diagonal_out_of_an_earlier_block(self):
        circuit = QuantumCircuit(3)
        circuit.h(0).h(1).h(2)
        circuit.rz(0.3, 0).h(2).rz(0.5, 2)
        translation = translate_circuit(circuit)
        # rz(2) follows h(2), emitted after the block opened: it opens a new block.
        assert _gate_names(translation) == ["h", "h", "h", "rz", "h", "rz"]
        assert translation.describe()["diagonal_blocks"] == 2

    def test_a_gate_on_the_block_closes_it(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).h(1).z(0).h(0).z(1)
        assert _gate_names(translate_circuit(circuit)) == ["h", "h", "z", "h", "z"]

    def test_barriers_close_blocks(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).h(1).z(0).barrier().z(1)
        assert _gate_names(translate_circuit(circuit)) == ["h", "h", "z", "z"]

    def test_block_width_is_bounded(self):
        circuit = QuantumCircuit(8)
        for qubit in range(8):
            circuit.h(qubit)
        for qubit in range(7):
            circuit.cz(qubit, qubit + 1)
        translation = translate_circuit(circuit)
        blocks = [step for step in translation.steps if step.gate_name == "diag"]
        assert blocks and all(len(step.qubits) <= MAX_BLOCK_QUBITS for step in blocks)
        assert max(step.gate_table.num_rows for step in translation.steps) <= 1 << MAX_BLOCK_QUBITS

    def test_block_rows_never_touch_a_dense_matrix(self, monkeypatch):
        circuit = qaoa_maxcut_circuit(8, p=1, gammas=[0.4], betas=[0.7])

        def forbidden(*_args, **_kwargs):
            raise AssertionError("a diagonal block took the dense-matrix path")

        translation = translate_circuit(circuit)
        monkeypatch.setattr(collapse_module.DiagonalGate, "nonzero_entries", forbidden)
        monkeypatch.setattr(collapse_module.DiagonalGate, "matrix", forbidden)
        assert translate_circuit(circuit).cte_query() == translation.cte_query()

    def test_rx0_and_ry0_keep_their_own_steps(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).h(1).rz(0.2, 0).rx(0.0, 1).ry(0.0, 0).rz(0.4, 1)
        translation = translate_circuit(circuit)
        # Numerically RX(0) and RY(0) are diagonal; by kind they are not, so
        # each keeps its step and fences the qubits it touches.
        assert _gate_names(translation) == ["h", "h", "rz", "rx", "ry", "rz"]

    def test_qaoa8_collapses_its_rzz_ring(self):
        template = qaoa_maxcut_circuit(8)
        bound = template.bind_parameters({parameter: 1.1 for parameter in template.parameters})
        translation = translate_circuit(bound)
        assert (template.size(), translation.describe()["num_steps"]) == (24, 19)


class TestSwapRelabel:
    def test_swaps_emit_no_step_and_one_trailing_relabel(self):
        circuit = QuantumCircuit(3)
        circuit.h(0).x(1).swap(0, 2).swap(1, 2).cx(2, 0)
        translation = translate_circuit(circuit, dialect="sqlite")
        assert [type(step) for step in translation.steps] == [GateStep, GateStep, GateStep, RelabelStep]
        relabel = translation.steps[-1]
        assert relabel.input_table == "T3" and translation.final_table == "T4"
        assert translation.describe()["swaps_elided"] == 2
        # cx(2, 0) ran on the bits that logical qubits 2 and 0 sat on.
        assert translation.steps[2].qubits == (1, 2)
        expected = StatevectorSimulator().run(circuit).state
        for backend in (SQLiteBackend(), SQLiteBackend(mode="materialized"), MemDBBackend(mode="materialized")):
            assert states_agree(backend.run(circuit).state, expected, up_to_global_phase=False)

    def test_swap_pair_leaves_no_relabel(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).swap(0, 1).swap(1, 0).cx(0, 1)
        translation = translate_circuit(circuit)
        assert all(isinstance(step, GateStep) for step in translation.steps)
        assert translation.describe()["swaps_elided"] == 2

    def test_relabel_is_a_create_table_as_in_materialized_mode(self):
        translation = translate_circuit(qft_circuit(4), dialect="sqlite")
        creates = [item for item in translation.materialized_statements() if item["kind"] == "create"]
        assert creates[-1]["table"] == translation.final_table
        assert creates[-1]["sql"].startswith(f"CREATE TABLE {translation.final_table} AS SELECT ((")
        assert " FROM T" in creates[-1]["sql"] and "JOIN" not in creates[-1]["sql"]
        assert translation.steps[-1].describe()["gate"] == "relabel"

    @pytest.mark.parametrize("seed", range(20))
    def test_permutation_expression_matches_python(self, seed):
        rng = np.random.default_rng(seed)
        num_qubits = int(rng.integers(1, 12))
        physical = [int(bit) for bit in rng.permutation(num_qubits)]
        expression = permutation_expression("s", physical)
        connection = sqlite3.connect(":memory:")
        for index in rng.integers(0, 1 << num_qubits, 16).tolist():
            value = connection.execute(f"SELECT {expression} FROM (SELECT {index} AS s)").fetchone()[0]
            assert value == extract_local(index, physical)

    def test_only_standard_swap_is_elided(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).append(unitary_gate(standard_gate("swap").matrix(), name="swap"), [0, 1])
        translation = translate_circuit(circuit)
        assert translation.describe()["swaps_elided"] == 0 and len(translation.steps) == 2


def _bound(template):
    return template.bind_parameters({parameter: 0.5 for parameter in template.parameters})


class TestBypass:
    @pytest.mark.parametrize(
        "circuit",
        [ghz_circuit(3), ghz_circuit(48), _bound(hardware_efficient_ansatz(8, reps=1, rotation_gates=("ry",)))],
        ids=["ghz3", "ghz48", "hea8-ry"],
    )
    def test_circuits_without_diagonal_or_swap_gates_pass_through(self, circuit):
        collapsed = collapse(circuit.instructions, circuit.num_qubits)
        assert collapsed.instructions == circuit.instructions
        assert collapsed.physical == tuple(range(circuit.num_qubits))
        translation = translate_circuit(circuit)
        assert len(translation.steps) == circuit.size()
        assert all(isinstance(step, GateStep) for step in translation.steps)


class TestRegistry:
    def test_matrix_and_rows_paths_share_one_entry_point(self):
        registry = GateTableRegistry()
        rz = standard_gate("rz", 0.3)
        table = registry.register(rz)
        assert table.rows == rz.nonzero_entries(atol=1e-12) == gate_rows(rz)
        assert registry.register_rows("OTHER", "other", 1, table.rows) is table
        fresh = registry.register_rows("BLOCK", "diag", 1, [(0, 0, 1.0, 0.0), (1, 1, 0.0, 1.0)])
        assert fresh.name == "BLOCK" and fresh.gate_name == "diag"
        assert registry.register_rows("BLOCK", "diag", 1, [(0, 0, 1.0, 0.0), (1, 1, -1.0, 0.0)]).name == "BLOCK_0"


class TestProvenance:
    def test_collapse_counts_reach_result_metadata_and_provenance(self):
        circuit = qft_circuit(4)
        backend = MemDBBackend()
        result = backend.run(circuit)
        summary = result.metadata["sql"]
        assert summary["gates"] == circuit.size()
        assert summary["swaps_elided"] == 2
        assert summary["diagonal_blocks"] >= 1
        assert summary["num_steps"] <= summary["gates"]
        executable = backend.compile(circuit)
        assert {key: executable.provenance["translation"][key] for key in ("gates", "diagonal_blocks", "swaps_elided")} == {
            key: summary[key] for key in ("gates", "diagonal_blocks", "swaps_elided")
        }

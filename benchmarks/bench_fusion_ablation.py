"""E8 — ablation of the gate-fusion query optimization (Sec. 3.2).

The Translation Layer can fuse runs of consecutive gates that act on a small
common qubit set into a single SQL stage.  Fusion runs on what the
diagonal-block / SWAP-relabel pass leaves (that pass is always on), so
``stages_plain`` is already below the gate count.  This harness times the
same workloads with fusion off and on, and reports the number of pipeline
stages, the fused / plain stage ratio and the intermediate tuples saved.

Expected shape: fusion reduces the number of CTE/materialized stages
(and therefore joins); the benefit is largest for gate-dense circuits with
long single/two-qubit runs (QFT, dense-phase), and the final states are
bit-for-bit identical.
"""

import pytest

from repro.backends import SQLiteBackend
from repro.circuits import dense_phase_circuit, ghz_circuit, qft_on_basis_state
from repro.output import comparison_table, states_agree

from conftest import emit

_WORKLOADS = {
    "ghz_12": lambda: ghz_circuit(12),
    "qft_8": lambda: qft_on_basis_state(8, 255),
    "dense_phase_8": lambda: dense_phase_circuit(8, rounds=2),
}


@pytest.mark.parametrize("fuse", [False, True], ids=["fusion-off", "fusion-on"])
@pytest.mark.parametrize("workload", sorted(_WORKLOADS), ids=str)
def test_fusion_timing(benchmark, workload, fuse):
    """Wall time with and without gate fusion on SQLite (materialized mode)."""
    circuit = _WORKLOADS[workload]()
    backend = SQLiteBackend(mode="materialized", fuse=fuse, max_fused_qubits=2)
    benchmark.group = f"fusion-{workload}"

    result = benchmark(lambda: backend.run(circuit))

    assert result.state.num_nonzero >= 1


def test_fusion_ablation_report(benchmark, results_dir):
    """Stages saved, intermediate tuples and correctness of the fused pipeline."""

    def collect():
        rows = []
        for name, factory in _WORKLOADS.items():
            circuit = factory()
            plain = SQLiteBackend(mode="materialized").run(circuit)
            fused = SQLiteBackend(mode="materialized", fuse=True).run(circuit)
            stages_plain = len(plain.metadata["step_rows"])
            stages_fused = len(fused.metadata["step_rows"])
            rows.append(
                {
                    "workload": name,
                    "gates": circuit.size(),
                    "stages_plain": stages_plain,
                    "stages_fused": stages_fused,
                    "fused_ratio": round(stages_fused / stages_plain, 3),
                    "tuples_plain": sum(plain.metadata["step_rows"]),
                    "tuples_fused": sum(fused.metadata["step_rows"]),
                    "time_plain_s": plain.wall_time_s,
                    "time_fused_s": fused.wall_time_s,
                    "states_agree": states_agree(plain.state, fused.state, up_to_global_phase=False),
                }
            )
        return rows

    rows = benchmark.pedantic(collect, rounds=1, iterations=1)
    table = comparison_table(rows)
    emit("E8 — gate fusion ablation (SQLite, materialized)", table)
    (results_dir / "e8_fusion.txt").write_text(table)

    assert all(row["states_agree"] for row in rows)
    assert all(row["stages_fused"] < row["stages_plain"] for row in rows)
    assert all(row["tuples_fused"] <= row["tuples_plain"] for row in rows)

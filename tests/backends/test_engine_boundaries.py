"""Both boundaries of the memdb engine are columnar — and say the same as the SQL text.

Tables enter memdb as arrays (``_load_tables`` -> ``MemDatabase.load_table``)
and the final state leaves as arrays (``_fetch_state``), while SQLite and
DuckDB are still handed the generated script.  These tests pin the two
properties that makes safe: the printed script and the loaded tables are the
same data, and a sweep point on memdb no longer sends any text but the one
cached CTE query through the SQL front end.
"""

import sqlite3

import numpy as np
import pytest

from repro.backends.memdb import MemDatabase
from repro.backends.memdb.engine import PlanCache, shared_plan_cache
from repro.backends.memdb_backend import MemDBBackend
from repro.backends.sqlite_backend import SQLiteBackend
from repro.circuits import ghz_circuit, hardware_efficient_ansatz, qaoa_maxcut_circuit, qft_circuit
from repro.output.result import SparseState


def _statements(script: str) -> list[str]:
    return [statement.rstrip(";") for statement in script.split(";\n")]


def _state_from_text_on_memdb(num_qubits: int, script: str) -> SparseState:
    db = MemDatabase(plan_cache=PlanCache(0))
    return SparseState.from_rows(num_qubits, db.execute(script).rows)


def _state_from_text_on_sqlite(num_qubits: int, script: str) -> SparseState:
    connection = sqlite3.connect(":memory:")
    try:
        *setup, query = _statements(script)
        for statement in setup:
            connection.execute(statement)
        return SparseState.from_rows(num_qubits, connection.execute(query).fetchall())
    finally:
        connection.close()


def _ansatz():
    template = hardware_efficient_ansatz(4, reps=2, rotation_gates=("ry", "rz"))
    names = sorted(parameter.name for parameter in template.parameters)
    return template.bind_parameters({name: 0.37 * (k + 1) for k, name in enumerate(names)})


_INITIAL = SparseState(3, {5: 0.6, 2: 0.8j})

_CASES = {
    "parameterized-ansatz": ({}, _ansatz, None),
    "fused": ({"fuse": True}, lambda: qft_circuit(4), None),
    "initial-state": ({}, lambda: ghz_circuit(3), _INITIAL),
}


@pytest.mark.parametrize("mode", ["cte", "materialized"])
@pytest.mark.parametrize("case", sorted(_CASES))
def test_printed_script_and_loaded_tables_agree(case, mode):
    options, build, initial_state = _CASES[case]
    circuit = build()
    backend = MemDBBackend(mode=mode, **options)
    ran = backend.run(circuit, initial_state=initial_state).state
    assert ran.norm() == pytest.approx(1.0, abs=1e-9)

    translation = backend.translate(circuit, initial_state=initial_state)
    if options.get("fuse"):
        assert translation.fusion_report["gates_after"] < translation.fusion_report["gates_before"]
    script = translation.full_script(mode)
    for from_text in (
        _state_from_text_on_memdb(circuit.num_qubits, script),
        _state_from_text_on_sqlite(circuit.num_qubits, script),
    ):
        assert from_text.pruned(1e-12).equiv(ran, atol=1e-9, up_to_global_phase=False)

    # The script is rendered from the very arrays memdb loads.
    tables = translation.tables()
    assert [table.name for table in tables][-1] == "T0"
    assert len(translation.setup_statements()) == 2 * len(tables)
    gate_rows = sum(len(table.columns["in_s"]) for table in tables[:-1])
    assert gate_rows == translation.describe()["gate_table_rows"]


def test_state_index_survives_62_qubits_on_both_fetch_paths():
    # One X per set bit: a single basis state far above 2**53.
    from repro.core.circuit import QuantumCircuit

    circuit = QuantumCircuit(62, name="top_bits")
    for qubit in (0, 1, 53, 60, 61):
        circuit.x(qubit)
    expected = sum(1 << qubit for qubit in (0, 1, 53, 60, 61))
    for backend in (MemDBBackend(), SQLiteBackend(), MemDBBackend(mode="materialized")):
        assert backend.run(circuit).state.to_rows() == [(expected, 1.0, 0.0)]


class TestSweepPointsStayOutOfTheSqlFrontEnd:
    POINTS = 6

    def _points(self):
        rng = np.random.default_rng(5)
        return [
            {"gamma[0]": float(rng.uniform(0, np.pi)), "beta[0]": float(rng.uniform(0, np.pi))}
            for _ in range(self.POINTS)
        ]

    def test_points_add_plan_hits_only(self):
        backend = MemDBBackend()
        executable = backend.compile(qaoa_maxcut_circuit(6))
        executable.bind(self._points()[0]).execute()  # the engine exists, the plan is cached
        before = shared_plan_cache().stats()
        for point in self._points():
            executable.bind(point).execute()
        after = shared_plan_cache().stats()
        assert after["hits"] - before["hits"] == self.POINTS
        for counter in ("misses", "evictions", "parse_only", "planned", "invalidations", "replans"):
            assert after[counter] == before[counter], counter

    def test_the_cte_query_is_the_only_statement_executed(self, monkeypatch):
        backend = MemDBBackend()
        template = qaoa_maxcut_circuit(6)
        executable = backend.compile(template)
        points = self._points()
        executable.bind(points[0]).execute()
        executed: list[str] = []
        original = MemDatabase.execute

        def counting(self, sql):
            executed.append(sql)
            return original(self, sql)

        monkeypatch.setattr(MemDatabase, "execute", counting)
        monkeypatch.setattr(
            "repro.backends.memdb.engine.parse_sql",
            lambda sql: pytest.fail(f"a sweep point parsed {sql[:60]!r}"),
        )
        for point in points:
            executable.bind(point).execute()
        query = backend.translate(template.bind_parameters(points[0])).cte_query(pretty=False)
        assert executed == [query] * self.POINTS

    def test_sqlite_is_still_handed_the_script(self, monkeypatch):
        backend = SQLiteBackend()
        circuit = ghz_circuit(3)
        sent: list[str] = []
        original = SQLiteBackend._execute

        def recording(self, sql):
            sent.append(sql)
            return original(self, sql)

        monkeypatch.setattr(SQLiteBackend, "_execute", recording)
        backend.run(circuit)
        assert sent == backend.translate(circuit).setup_statements()

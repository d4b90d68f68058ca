"""Tests for the auxiliary Output-Layer SQL queries (Table 1 operators included)."""

import sqlite3

import numpy as np
import pytest

from repro.backends import MemDBBackend, SQLiteBackend
from repro.backends.memdb.tokenizer import KEYWORD, KEYWORDS, PUNCT, scan
from repro.circuits import ghz_circuit, superposition_circuit, w_state_circuit
from repro.core import QuantumCircuit
from repro.errors import TranslationError
from repro.simulators import StatevectorSimulator
from repro.sql import (
    amplitude_query,
    expectation_z_query,
    joint_marginal_query,
    marginal_probability_query,
    norm_query,
    probabilities_query,
    row_count_query,
    state_rows_query,
    translate_circuit,
)


def _prepare(circuit, dialect="sqlite"):
    translation = translate_circuit(circuit, dialect=dialect)
    connection = sqlite3.connect(":memory:")
    for statement in translation.setup_statements():
        connection.execute(statement)
    for item in translation.materialized_statements():
        connection.execute(item["sql"])
    return connection, translation.final_table


class TestAnalysisQueries:
    def test_norm_is_one(self):
        connection, table = _prepare(ghz_circuit(3))
        assert connection.execute(norm_query(table)).fetchone()[0] == pytest.approx(1.0)

    def test_row_count(self):
        connection, table = _prepare(w_state_circuit(4))
        assert connection.execute(row_count_query(table)).fetchone()[0] == 4

    def test_probabilities_sorted_descending(self):
        connection, table = _prepare(ghz_circuit(3))
        rows = connection.execute(probabilities_query(table)).fetchall()
        assert [row[0] for row in rows] == [0, 7]
        assert rows[0][1] == pytest.approx(0.5)

    def test_probabilities_limit(self):
        connection, table = _prepare(superposition_circuit(3))
        rows = connection.execute(probabilities_query(table, limit=3)).fetchall()
        assert len(rows) == 3
        with pytest.raises(TranslationError):
            probabilities_query(table, limit=0)

    def test_marginal_probability(self):
        connection, table = _prepare(ghz_circuit(3))
        rows = dict(connection.execute(marginal_probability_query(table, 1)).fetchall())
        assert rows[0] == pytest.approx(0.5)
        assert rows[1] == pytest.approx(0.5)

    def test_joint_marginal(self):
        connection, table = _prepare(ghz_circuit(3))
        rows = dict(connection.execute(joint_marginal_query(table, [0, 2])).fetchall())
        assert rows == {0: pytest.approx(0.5), 3: pytest.approx(0.5)}
        with pytest.raises(TranslationError):
            joint_marginal_query(table, [])

    def test_expectation_z(self):
        connection, table = _prepare(ghz_circuit(2))
        assert connection.execute(expectation_z_query(table, 0)).fetchone()[0] == pytest.approx(0.0)

    def test_amplitude_query(self):
        connection, table = _prepare(ghz_circuit(3))
        row = connection.execute(amplitude_query(table, 7)).fetchone()
        assert row[0] == pytest.approx(2 ** -0.5)
        assert connection.execute(amplitude_query(table, 3)).fetchone() is None

    def test_state_rows_query_sorted(self):
        connection, table = _prepare(ghz_circuit(3))
        rows = connection.execute(state_rows_query(table)).fetchall()
        assert [row[0] for row in rows] == [0, 7]


class TestInDatabaseAnalysisViaBackends:
    @pytest.mark.parametrize("backend_cls", [SQLiteBackend, MemDBBackend])
    def test_execute_analysis_query(self, backend_cls):
        backend = backend_cls(mode="materialized")
        rows = backend.execute_analysis_query(ghz_circuit(3), marginal_probability_query, 2)
        marginals = {int(outcome): probability for outcome, probability in rows}
        assert marginals[0] == pytest.approx(0.5)
        assert marginals[1] == pytest.approx(0.5)

    @pytest.mark.parametrize("backend_cls", [SQLiteBackend, MemDBBackend])
    def test_norm_inside_engine(self, backend_cls):
        backend = backend_cls(mode="materialized")
        rows = backend.execute_analysis_query(superposition_circuit(4), norm_query)
        assert rows[0][0] == pytest.approx(1.0)


def _phased_circuit() -> QuantumCircuit:
    """Four qubits: complex amplitudes, tied probabilities, half the amplitudes zero."""
    circuit = QuantumCircuit(4)
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.ry(0.7, 3)
    circuit.h(2)
    circuit.t(2)
    circuit.rx(0.4, 3)
    return circuit


_ENGINES = {
    "sqlite": lambda: SQLiteBackend(mode="materialized"),
    "memdb-cte": lambda: MemDBBackend(mode="cte"),
    "memdb-materialized": lambda: MemDBBackend(mode="materialized"),
}


class TestEveryQueryOnEveryEngine:
    """Every ``sql/queries.py`` builder, run in the engine, against the statevector."""

    @pytest.fixture(scope="class")
    def reference(self):
        amplitudes = StatevectorSimulator().run(_phased_circuit()).state.to_dense()
        present = np.flatnonzero(np.abs(amplitudes) > 1e-9)
        return amplitudes, present, np.abs(amplitudes) ** 2

    @pytest.fixture(params=sorted(_ENGINES))
    def run(self, request):
        backend = _ENGINES[request.param]()

        def run(builder, *args):
            return backend.execute_analysis_query(_phased_circuit(), builder, *args)

        return run

    def test_probabilities(self, run, reference):
        _, present, probabilities = reference
        rows = run(probabilities_query)
        assert {int(s): prob for s, prob in rows} == {
            int(s): pytest.approx(probabilities[s]) for s in present
        }
        ordered = [prob for _, prob in rows]
        assert ordered == sorted(ordered, reverse=True)

    def test_probabilities_with_limit(self, run, reference):
        _, present, probabilities = reference
        rows = run(probabilities_query, 3)
        top = sorted(probabilities[present], reverse=True)[:3]
        assert [prob for _, prob in rows] == pytest.approx(top)

    def test_norm(self, run):
        assert run(norm_query) == [(pytest.approx(1.0),)]

    def test_row_count(self, run, reference):
        _, present, _ = reference
        assert run(row_count_query) == [(len(present),)]

    def test_marginal(self, run, reference):
        _, present, probabilities = reference
        expected = {bit: sum(probabilities[s] for s in present if (s >> 3) & 1 == bit) for bit in (0, 1)}
        assert dict(run(marginal_probability_query, 3)) == pytest.approx(expected)

    def test_joint_marginal(self, run, reference):
        _, present, probabilities = reference
        expected: dict[int, float] = {}
        for s in present:
            outcome = (s & 1) | (((s >> 2) & 1) << 1)
            expected[outcome] = expected.get(outcome, 0.0) + probabilities[s]
        rows = run(joint_marginal_query, [0, 2])
        assert [outcome for outcome, _ in rows] == sorted(expected)
        assert dict(rows) == pytest.approx(expected)

    def test_expectation_z(self, run, reference):
        _, present, probabilities = reference
        expected = sum(probabilities[s] * (1 - 2 * ((s >> 3) & 1)) for s in present)
        assert run(expectation_z_query, 3) == [(pytest.approx(expected),)]

    def test_amplitude(self, run, reference):
        amplitudes, present, _ = reference
        index = int(present[-1])
        assert run(amplitude_query, index) == [
            (pytest.approx(amplitudes[index].real), pytest.approx(amplitudes[index].imag))
        ]

    def test_state_rows(self, run, reference):
        amplitudes, present, _ = reference
        rows = run(state_rows_query)
        assert [int(s) for s, _, _ in rows] == present.tolist()
        assert [complex(r, i) for _, r, i in rows] == pytest.approx(amplitudes[present].tolist())


def _emitted_texts(source: str) -> list[str]:
    if source == "translator":
        translation = translate_circuit(_phased_circuit(), dialect="memdb")
        return [translation.cte_query(), translation.full_script()]
    return [
        probabilities_query("T9", 3),
        norm_query("T9"),
        row_count_query("T9"),
        marginal_probability_query("T9", 1),
        joint_marginal_query("T9", [0, 2]),
        expectation_z_query("T9", 0),
        amplitude_query("T9", 1),
        state_rows_query("T9"),
    ]


@pytest.mark.parametrize("source", ["translator", "queries"])
def test_every_emitted_alias_is_an_identifier_on_memdb(source):
    """No column alias the program emits is a reserved word of memdb's."""
    aliases = set()
    for text in _emitted_texts(source):
        tokens = scan(text)
        for current, following in zip(tokens, tokens[1:]):
            if current[:2] == (KEYWORD, "as") and following[0] != PUNCT:
                aliases.add(following[1])
    assert aliases
    assert not {alias for alias in aliases if alias.lower() in KEYWORDS}


class TestBitwiseOperatorCoverage:
    """Every operator of the paper's Table 1 must appear in generated SQL and compute correctly."""

    def test_all_table1_operators_appear(self):
        from repro.core import QuantumCircuit

        circuit = QuantumCircuit(3)
        circuit.h(1)        # shifted single-qubit gate -> >> and &
        circuit.cx(1, 2)    # contiguous two-qubit run above 0 -> << and ~ and |
        sql = translate_circuit(circuit).cte_query()
        for operator in ("&", "|", "~", "<<", ">>"):
            assert operator in sql, f"operator {operator} missing from generated SQL"

    @pytest.mark.parametrize("dialect_backend", [SQLiteBackend, MemDBBackend])
    def test_operators_compute_identically_across_backends(self, dialect_backend):
        from repro.core import QuantumCircuit
        from repro.simulators import StatevectorSimulator

        circuit = QuantumCircuit(4)
        circuit.h(2)
        circuit.cx(2, 0)
        circuit.cx(1, 3)
        circuit.x(3)
        reference = StatevectorSimulator().run(circuit).state
        result = dialect_backend().run(circuit).state
        assert reference.equiv(result, up_to_global_phase=False)

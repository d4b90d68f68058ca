"""Circuit-to-SQL translation (the paper's Translation Layer).

The translator walks a circuit's gate list and emits one relational step per
gate, exactly as in Fig. 2 of the paper:

* the state before the first gate is a table ``T0(s, r, i)``;
* gate ``k`` (table ``G``) produces ``T{k}`` via::

      SELECT ((T{k-1}.s & ~mask) | deposit(G.out_s))        AS s,
             SUM(T{k-1}.r * G.r - T{k-1}.i * G.i)           AS r,
             SUM(T{k-1}.r * G.i + T{k-1}.i * G.r)           AS i
      FROM T{k-1} JOIN G ON G.in_s = extract(T{k-1}.s)
      GROUP BY ((T{k-1}.s & ~mask) | deposit(G.out_s))

* the final query selects ``s, r, i`` from the last state table ordered by
  ``s``.

Two execution shapes are produced from the same steps:

* **CTE mode** — a single ``WITH T1 AS (...), T2 AS (...) ... SELECT`` query
  (the form shown in Fig. 2c), letting the RDBMS's optimizer pipeline the
  whole circuit;
* **materialized mode** — one ``CREATE TABLE T{k} AS SELECT ...`` statement
  per gate, which enables out-of-core execution, per-step row statistics and
  amplitude pruning between steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..core.circuit import QuantumCircuit
from ..errors import TranslationError
from ..output.result import SparseState
from .dialect import Dialect, get_dialect
from .encoding import (
    clear_expression,
    deposit_expression,
    extract_expression,
    output_index_expression,
    validate_qubits,
)
from .gate_tables import GateTable, GateTableRegistry
from .schema import (
    TableData,
    create_table_sql,
    gate_table_data,
    insert_sql,
    state_table_data,
    state_table_name,
)


@dataclass
class GateStep:
    """One gate application: reads ``input_table``, produces ``output_table``."""

    index: int
    gate_table: GateTable
    qubits: tuple[int, ...]
    input_table: str
    output_table: str
    gate_name: str

    def select_sql(self, pretty: bool = False) -> str:
        """The per-gate SELECT statement (the body of CTE ``T{index}``)."""
        state = self.input_table
        gate = self.gate_table.name
        state_s = f"{state}.s"
        out_expr = output_index_expression(state_s, f"{gate}.out_s", self.qubits)
        join_key = extract_expression(state_s, self.qubits)
        real = f"SUM(({state}.r * {gate}.r) - ({state}.i * {gate}.i))"
        imag = f"SUM(({state}.r * {gate}.i) + ({state}.i * {gate}.r))"
        if pretty:
            return (
                f"SELECT\n"
                f"    {out_expr} AS s,\n"
                f"    {real} AS r,\n"
                f"    {imag} AS i\n"
                f"  FROM {state}\n"
                f"  JOIN {gate}\n"
                f"    ON {gate}.in_s = {join_key}\n"
                f"  GROUP BY\n"
                f"    {out_expr}"
            )
        return (
            f"SELECT {out_expr} AS s, {real} AS r, {imag} AS i "
            f"FROM {state} JOIN {gate} ON {gate}.in_s = {join_key} "
            f"GROUP BY {out_expr}"
        )

    def describe(self) -> dict:
        """Summary dictionary used in reports and result metadata."""
        return {
            "step": self.index,
            "gate": self.gate_name,
            "gate_table": self.gate_table.name,
            "qubits": list(self.qubits),
            "input_table": self.input_table,
            "output_table": self.output_table,
            "gate_rows": self.gate_table.num_rows,
        }


@dataclass
class SQLTranslation:
    """The complete relational program for one circuit."""

    num_qubits: int
    circuit_name: str
    dialect: Dialect
    initial_rows: list[tuple[int, float, float]]
    gate_tables: list[GateTable]
    steps: list[GateStep]
    prune_epsilon: float | None = None
    fusion_report: dict = field(default_factory=dict)
    #: ``cte_query`` / ``materialized_statements`` results by their arguments:
    #: a translation does not change once built, and a compiled executable
    #: asks for the same text on every execution.
    _texts: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    # --------------------------------------------------------------- queries

    @property
    def final_table(self) -> str:
        """Name of the table holding the final state."""
        return self.steps[-1].output_table if self.steps else state_table_name(0)

    def tables(self) -> list[TableData]:
        """The gate tables and the initial state ``T0`` as data, in creation order.

        What an engine with a columnar way in loads directly; everything
        else gets the same data as text (:meth:`setup_statements`).
        """
        tables = [gate_table_data(table.name, table.rows) for table in self.gate_tables]
        tables.append(state_table_data(state_table_name(0), self.initial_rows))
        return tables

    def setup_statements(self) -> list[str]:
        """DDL and INSERTs creating the gate tables and the initial state ``T0``."""
        statements: list[str] = []
        for table in self.tables():
            statements.append(
                create_table_sql(table, self.dialect.integer_type, self.dialect.real_type)
            )
            statements.append(insert_sql(table))
        return statements

    def cte_query(self, pretty: bool = True) -> str:
        """The single WITH-query of Fig. 2c producing the final state rows.

        The emitted text is deterministic per circuit structure, which is
        what the memdb plan cache keys on: two sweep points of the same
        circuit family emit byte-identical CTE texts (only the gate INSERT
        literals differ), so their compiled plans are shared.
        """
        if pretty in self._texts:
            return self._texts[pretty]
        final = self.final_table
        if not self.steps:
            return f"SELECT s, r, i FROM {final} ORDER BY s"
        clauses = []
        for step in self.steps:
            body = step.select_sql(pretty=pretty)
            if pretty:
                clauses.append(f"{step.output_table} AS (\n  {body})")
            else:
                clauses.append(f"{step.output_table} AS ({body})")
        separator = ",\n" if pretty else ", "
        with_clause = separator.join(clauses)
        text = self._texts[pretty] = f"WITH {with_clause}\nSELECT s, r, i FROM {final} ORDER BY s"
        return text

    def materialized_statements(self, keep_intermediate: bool = False, temporary: bool = False) -> list[dict]:
        """Per-gate ``CREATE TABLE ... AS SELECT`` statements (out-of-core mode).

        Returns a list of dictionaries with keys ``sql``, ``kind``
        (``create``/``prune``/``drop``) and ``table`` so backends can track
        per-step row counts.  When ``keep_intermediate`` is false each input
        table is dropped as soon as its successor exists, bounding storage to
        two state tables at a time.

        The emitted texts are deterministic per circuit structure, so on the
        memdb backend every ``CREATE TABLE .. AS SELECT`` step hits the plan
        cache on repeated runs (sweep points re-bind the same compiled
        join-aggregate plan against fresh gate tables).  The list and its
        dictionaries are new on every call.
        """
        statements = self._texts.get((keep_intermediate, temporary))
        if statements is not None:
            return [dict(item) for item in statements]
        statements = []
        for step in self.steps:
            create = self.dialect.create_table_as(step.output_table, step.select_sql(pretty=False), temporary=temporary)
            statements.append({"sql": create, "kind": "create", "table": step.output_table, "step": step.index})
            if self.prune_epsilon is not None:
                prune = (
                    f"DELETE FROM {step.output_table} "
                    f"WHERE (r * r) + (i * i) <= {repr(float(self.prune_epsilon))}"
                )
                statements.append({"sql": prune, "kind": "prune", "table": step.output_table, "step": step.index})
            if not keep_intermediate and step.input_table != state_table_name(0):
                statements.append(
                    {"sql": self.dialect.drop_table(step.input_table), "kind": "drop", "table": step.input_table, "step": step.index}
                )
        self._texts[keep_intermediate, temporary] = statements
        return [dict(item) for item in statements]

    def final_select(self) -> str:
        """``SELECT s, r, i FROM <final> ORDER BY s`` for materialized execution."""
        return f"SELECT s, r, i FROM {self.final_table} ORDER BY s"

    def full_script(self, mode: str = "cte") -> str:
        """A complete, copy-pasteable SQL script (setup plus simulation query)."""
        statements = [f"{sql};" for sql in self.setup_statements()]
        if mode == "cte":
            statements.append(f"{self.cte_query()};")
        elif mode == "materialized":
            statements.extend(f"{item['sql']};" for item in self.materialized_statements())
            statements.append(f"{self.final_select()};")
        else:
            raise TranslationError(f"unknown script mode {mode!r}; expected 'cte' or 'materialized'")
        return "\n".join(statements)

    # ------------------------------------------------------------- reporting

    def describe(self) -> dict:
        """Summary used in benchmark reports and result metadata."""
        return {
            "circuit": self.circuit_name,
            "num_qubits": self.num_qubits,
            "num_steps": len(self.steps),
            "num_gate_tables": len(self.gate_tables),
            "gate_table_rows": sum(table.num_rows for table in self.gate_tables),
            "dialect": self.dialect.name,
            "prune_epsilon": self.prune_epsilon,
            "fusion": dict(self.fusion_report),
        }


class SQLTranslator:
    """Translate :class:`QuantumCircuit` objects into :class:`SQLTranslation` programs.

    Parameters
    ----------
    dialect:
        Target dialect name or :class:`Dialect` (default ``memdb``; the
        generated SQL is identical across dialects except for type names).
    prune_epsilon:
        When set, materialized execution deletes rows whose probability mass
        ``r*r + i*i`` falls at or below this threshold after every step.
    fuse:
        Apply the gate-fusion optimizer (Sec. 3.2) before translation.
    max_fused_qubits:
        Largest qubit count a fused gate may span (default 2).
    """

    def __init__(
        self,
        dialect: str | Dialect = "memdb",
        prune_epsilon: float | None = None,
        fuse: bool = False,
        max_fused_qubits: int = 2,
    ) -> None:
        self.dialect = dialect if isinstance(dialect, Dialect) else get_dialect(dialect)
        if prune_epsilon is not None and prune_epsilon < 0:
            raise TranslationError("prune_epsilon must be non-negative")
        self.prune_epsilon = prune_epsilon
        self.fuse = bool(fuse)
        self.max_fused_qubits = int(max_fused_qubits)

    def translate(
        self,
        circuit: QuantumCircuit,
        initial_state: SparseState | None = None,
    ) -> SQLTranslation:
        """Translate ``circuit`` into a relational program.

        Measurements and barriers are skipped (the SQL program computes the
        full pre-measurement state; measurement sampling happens in the
        Output Layer).  Parameterized circuits must be bound first.
        """
        if circuit.is_parameterized:
            names = sorted(parameter.name for parameter in circuit.parameters)
            raise TranslationError(f"circuit has unbound parameters {names}; bind them before translation")

        working = circuit
        fusion_report: dict = {}
        if self.fuse:
            from .fusion import fuse_adjacent_gates  # local import to avoid a cycle

            working, fusion_report = fuse_adjacent_gates(circuit, max_qubits=self.max_fused_qubits)

        if initial_state is None:
            initial_rows = [(0, 1.0, 0.0)]
        else:
            if initial_state.num_qubits != circuit.num_qubits:
                raise TranslationError(
                    f"initial state has {initial_state.num_qubits} qubits, circuit has {circuit.num_qubits}"
                )
            initial_rows = initial_state.to_rows()
            if not initial_rows:
                raise TranslationError("initial state has no nonzero amplitudes")

        registry = GateTableRegistry()
        steps: list[GateStep] = []
        step_index = 0
        for instruction in working.instructions:
            if not instruction.is_gate or instruction.gate is None:
                if instruction.kind == "reset":
                    raise TranslationError("reset instructions are not supported by the SQL translation")
                continue  # measurements and barriers do not generate SQL
            qubits = validate_qubits(instruction.qubits, circuit.num_qubits)
            table = registry.register(instruction.gate)
            step_index += 1
            steps.append(
                GateStep(
                    index=step_index,
                    gate_table=table,
                    qubits=qubits,
                    input_table=state_table_name(step_index - 1),
                    output_table=state_table_name(step_index),
                    gate_name=instruction.gate.name,
                )
            )

        return SQLTranslation(
            num_qubits=circuit.num_qubits,
            circuit_name=working.name,
            dialect=self.dialect,
            initial_rows=initial_rows,
            gate_tables=registry.tables,
            steps=steps,
            prune_epsilon=self.prune_epsilon,
            fusion_report=fusion_report,
        )


def translate_circuit(
    circuit: QuantumCircuit,
    dialect: str | Dialect = "memdb",
    initial_state: SparseState | None = None,
    prune_epsilon: float | None = None,
    fuse: bool = False,
    max_fused_qubits: int = 2,
) -> SQLTranslation:
    """Convenience wrapper around :class:`SQLTranslator`."""
    translator = SQLTranslator(
        dialect=dialect,
        prune_epsilon=prune_epsilon,
        fuse=fuse,
        max_fused_qubits=max_fused_qubits,
    )
    return translator.translate(circuit, initial_state=initial_state)

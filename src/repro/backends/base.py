"""Shared machinery of the RDBMS execution backends (the Simulation Layer).

A relational backend is "just another simulator" from the caller's point of
view: it implements :class:`~repro.simulators.base.BaseSimulator`, so results
carry the same metadata and plug into the same benchmarking framework as the
state-vector / MPS / DD baselines.  Internally it

1. asks the Translation Layer for the relational program of the circuit,
2. creates the gate tables and the initial state table ``T0``
   (:meth:`RelationalBackend._load_tables`),
3. executes the program either as one CTE query (Fig. 2c) or step by step
   in materialized mode (out-of-core; per-step row statistics and pruning),
4. reads the final state table back as its three columns ``(s, r, i)``
   (:meth:`RelationalBackend._fetch_state`) into a :class:`SparseState`.

Concrete subclasses only provide connection management and raw statement
execution for their engine (SQLite, DuckDB, memdb); memdb additionally
loads the tables and reads the state as arrays instead of SQL text and row
tuples.
"""

from __future__ import annotations

from abc import abstractmethod
from typing import Sequence

import numpy as np

from ..core.circuit import QuantumCircuit
from ..errors import BackendError, ResourceLimitExceeded
from ..obs.tracing import maybe_span
from ..output.result import SparseState
from ..simulators.base import BaseSimulator, EvolutionStats, Executable
from ..sql.dialect import Dialect
from ..sql.translator import SQLTranslation, SQLTranslator

#: Bytes per state-table row: s BIGINT + r DOUBLE + i DOUBLE.
ROW_BYTES = 24

#: Supported execution modes.
MODE_CTE = "cte"
MODE_MATERIALIZED = "materialized"


class RelationalBackend(BaseSimulator):
    """Base class for SQL-executing simulators.

    Parameters
    ----------
    mode:
        ``"cte"`` runs the whole circuit as a single WITH-query (the paper's
        Fig. 2c shape, letting the engine's optimizer pipeline all gates);
        ``"materialized"`` creates one state table per gate, enabling
        out-of-core execution, per-step statistics and pruning.
    prune_epsilon:
        Drop rows whose probability mass is at or below this threshold after
        every materialized step (ignored in CTE mode).
    fuse / max_fused_qubits:
        Enable the gate-fusion optimizer of the Translation Layer.
    keep_intermediate:
        In materialized mode, keep every ``T{k}`` table instead of dropping
        the predecessor (useful for inspecting intermediate states, as in the
        paper's educational scenario).
    max_state_bytes:
        Budget on the relational state size (rows * 24 bytes); exceeded
        intermediate states raise :class:`ResourceLimitExceeded`.  Only
        enforced per-step in materialized mode.
    """

    #: Dialect of the concrete engine; set by subclasses.
    dialect: Dialect

    def __init__(
        self,
        mode: str = MODE_CTE,
        prune_epsilon: float | None = None,
        fuse: bool = False,
        max_fused_qubits: int = 2,
        keep_intermediate: bool = False,
        max_state_bytes: int | None = None,
        prune_atol: float = 1e-12,
    ) -> None:
        super().__init__(max_state_bytes=max_state_bytes, prune_atol=prune_atol)
        if mode not in (MODE_CTE, MODE_MATERIALIZED):
            raise BackendError(f"unknown execution mode {mode!r}; expected 'cte' or 'materialized'")
        self.mode = mode
        self.prune_epsilon = prune_epsilon
        self.fuse = fuse
        self.max_fused_qubits = max_fused_qubits
        self.keep_intermediate = keep_intermediate

    # ------------------------------------------------------- engine contract

    @abstractmethod
    def _connect(self) -> None:
        """Open a fresh connection / database for one simulation run."""

    @abstractmethod
    def _disconnect(self) -> None:
        """Close the connection and release resources."""

    @abstractmethod
    def _execute(self, sql: str) -> None:
        """Execute a statement, discarding any result."""

    @abstractmethod
    def _fetch(self, sql: str) -> list[tuple]:
        """Execute a query and return all rows."""

    def _load_tables(self, translation: SQLTranslation) -> None:
        """Create and fill the gate tables and ``T0``.

        The only place a backend learns how tables arrive.  A real RDBMS is
        handed the translation's SQL script, statement by statement — that
        script is the paper's artifact.
        """
        for statement in translation.setup_statements():
            self._execute(statement)

    def _fetch_state(self, sql: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Run a query producing state rows; returns the columns ``(s, r, i)``.

        ``s`` is built as int64 directly: a float64 detour is exact only up
        to 2**53, and the capacity runs reach 62 qubits.
        """
        s, r, i = tuple(zip(*self._fetch(sql))) or ((), (), ())
        return (
            np.array(s, dtype=np.int64),
            np.array(r, dtype=np.float64),
            np.array(i, dtype=np.float64),
        )

    def _table_row_count(self, table: str) -> int:
        """Row count of a state table (used for per-step statistics)."""
        rows = self._fetch(f"SELECT COUNT(*) FROM {table}")
        return int(rows[0][0]) if rows else 0

    # --------------------------------------------------------------- running

    def translator(self) -> SQLTranslator:
        """The translator configured to this backend's dialect and options."""
        return SQLTranslator(
            dialect=self.dialect,
            prune_epsilon=self.prune_epsilon,
            fuse=self.fuse,
            max_fused_qubits=self.max_fused_qubits,
        )

    def translate(self, circuit: QuantumCircuit, initial_state: SparseState | None = None) -> SQLTranslation:
        """Translate a circuit without executing it (for inspection / reports)."""
        return self.translator().translate(circuit, initial_state=initial_state)

    # --------------------------------------------------- compile-bind-execute

    #: Parameter value used to translate a *representative* binding of a
    #: parameterized template at compile time.  The generated CTE / CREATE-AS
    #: texts depend only on the circuit structure (parameter values only move
    #: gate-table literals), so plans prepared from this binding serve every
    #: later bind.  0.5 avoids degenerate angles (rotations by 0 collapse to
    #: diagonal matrices with fewer nonzero gate rows).
    _REPRESENTATIVE_PARAMETER = 0.5

    def _compile(self, circuit: QuantumCircuit) -> dict:
        """Translate at compile time and hand the plans to the engine.

        For a fully bound circuit the translation itself is cached on the
        executable (execute skips the Translation Layer entirely).  For a
        parameterized template a representative binding is translated so the
        engine can prepare plans for the structure every bind will share.
        """
        artifact: dict = {}
        if circuit.is_parameterized:
            representative = circuit.bind_parameters(
                {parameter: self._REPRESENTATIVE_PARAMETER for parameter in circuit.parameters}
            )
            translation = self.translate(representative)
        else:
            translation = self.translate(circuit)
            artifact["translation"] = translation
        provenance: dict = {"translation": translation.describe()}
        self._prepare_plans(translation, provenance)
        artifact["provenance"] = provenance
        return artifact

    def _prepare_plans(self, translation: SQLTranslation, provenance: dict) -> None:
        """Hook: compile the translation's plans into the engine (default: no-op)."""

    def _evolve_compiled(
        self,
        executable: Executable,
        circuit: QuantumCircuit,
        initial_state: SparseState | None,
        stats: EvolutionStats,
    ) -> SparseState:
        translation = None
        if initial_state is None and circuit is executable.circuit:
            translation = executable.artifact.get("translation")
        if translation is None:
            return self._evolve(circuit, initial_state, stats)
        return self._evolve_translation(translation, stats)

    def _evolve(
        self,
        circuit: QuantumCircuit,
        initial_state: SparseState | None,
        stats: EvolutionStats,
    ) -> SparseState:
        with maybe_span("translate", gates=circuit.size()):
            translation = self.translate(circuit, initial_state=initial_state)
        return self._evolve_translation(translation, stats)

    def _evolve_translation(self, translation: SQLTranslation, stats: EvolutionStats) -> SparseState:
        self._connect()
        try:
            columns = self._execute_translation(translation, stats)
        finally:
            self._disconnect()
        stats.extras["sql"] = {
            "mode": self.mode,
            "dialect": self.dialect.name,
            **translation.describe(),
        }
        with maybe_span("state", rows=len(columns[0])):
            return SparseState.from_columns(translation.num_qubits, *columns)

    def _execute_translation(
        self, translation: SQLTranslation, stats: EvolutionStats
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Load the tables and run the program; returns the final ``(s, r, i)`` columns."""
        initial_rows = len(translation.initial_rows)
        with maybe_span(
            "load",
            tables=len(translation.gate_tables) + 1,
            rows=sum(table.num_rows for table in translation.gate_tables) + initial_rows,
        ):
            self._load_tables(translation)
        stats.observe(initial_rows, ROW_BYTES * initial_rows)

        if self.mode == MODE_CTE:
            columns = self._fetch_state(translation.cte_query(pretty=False))
            rows = len(columns[0])
            stats.observe(rows, ROW_BYTES * rows)
            self._check_budget(ROW_BYTES * rows, "final state")
            return columns

        # Materialized mode: run step by step, recording row counts.
        step_rows: list[int] = []
        for item in translation.materialized_statements(keep_intermediate=self.keep_intermediate):
            self._execute(item["sql"])
            if item["kind"] == "create":
                count = self._table_row_count(item["table"])
                step_rows.append(count)
                estimate = ROW_BYTES * count
                stats.observe(count, estimate)
                self._check_budget(estimate, f"state table {item['table']}")
        stats.extras["step_rows"] = step_rows
        return self._fetch_state(translation.final_select())

    # ------------------------------------------------------------- utilities

    def execute_analysis_query(self, circuit: QuantumCircuit, query_builder, *args) -> list[tuple]:
        """Run the circuit, then an Output-Layer query against the final state table.

        ``query_builder`` is one of the functions in :mod:`repro.sql.queries`
        taking the final table name as its first argument (plus ``*args``).
        The whole pipeline — simulation and analysis — runs inside the RDBMS.
        """
        translation = self.translate(circuit)
        self._connect()
        try:
            self._load_tables(translation)
            for item in translation.materialized_statements(keep_intermediate=self.keep_intermediate):
                self._execute(item["sql"])
            return self._fetch(query_builder(translation.final_table, *args))
        finally:
            self._disconnect()

    def run_script(self, statements: Sequence[str]) -> list[tuple]:
        """Execute arbitrary statements on a fresh connection (last result returned)."""
        self._connect()
        try:
            result: list[tuple] = []
            for statement in statements[:-1]:
                self._execute(statement)
            if statements:
                result = self._fetch(statements[-1])
            return result
        finally:
            self._disconnect()

    def capacity_rows(self) -> int | None:
        """How many state rows fit in the configured byte budget (None = unlimited)."""
        if self.max_state_bytes is None:
            return None
        return self.max_state_bytes // ROW_BYTES

"""End-to-end session: the programmatic equivalent of the Qymera web UI.

The original system is a web application with three tabs (Fig. 3): a Circuit
Panel for building/loading circuits, a Simulation Panel for selecting methods
and running them, and a Visualization Panel for inspecting results and
benchmarks.  :class:`QymeraSession` reproduces that workflow as a plain
Python facade, wiring the four architecture layers of Fig. 1 together:

* the **Circuit Panel** wraps the Circuit Layer (builder, file input, code
  input, parameterized families);
* the **Simulation Panel** wraps the Translation + Simulation Layers
  (SQL generation, backend selection, runs, sweeps, benchmarks);
* the **Output Panel** wraps the Output Layer (state tables, histograms,
  Bloch views, exports).
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping, Sequence

from ..backends import DuckDBBackend, MemDBBackend, SQLiteBackend, available_backends
from ..bench.metrics import BenchmarkRecord
from ..bench.runner import BenchmarkRunner, default_method_factories
from ..core.builder import CircuitGridBuilder
from ..core.circuit import QuantumCircuit
from ..errors import QymeraError
from ..io.json_io import load_circuit, loads_circuit
from ..io.qasm import load_qasm, loads_qasm
from ..io.quil import loads_quil
from ..output.analysis import bloch_vector, entanglement_entropy
from ..output.export import result_to_json, write_records_csv, write_state_csv
from ..output.result import SimulationResult, SparseState
from ..output.sampling import sample_counts
from ..output.visualization import (
    bloch_text,
    comparison_table,
    format_amplitude_table,
    histogram,
    probability_histogram,
)
from ..simulators import available_simulators
from ..sql.translator import SQLTranslation
from .jobs import JobHandle, JobService, make_method, options_fingerprint


class CircuitPanel:
    """Circuit construction and import (the Circuit Layer front-ends)."""

    def __init__(self) -> None:
        self._circuits: dict[str, QuantumCircuit] = {}

    # ------------------------------------------------------------- building

    def new_builder(self, num_qubits: int, name: str = "builder") -> CircuitGridBuilder:
        """Start a drag-and-drop style grid builder."""
        return CircuitGridBuilder(num_qubits, name=name)

    def add_circuit(self, circuit: QuantumCircuit, name: str | None = None) -> str:
        """Register a circuit under a name (code-input path)."""
        key = name or circuit.name
        self._circuits[key] = circuit
        return key

    def add_from_builder(self, builder: CircuitGridBuilder, name: str | None = None) -> str:
        """Compile a grid builder and register the resulting circuit."""
        circuit = builder.build(name=name)
        return self.add_circuit(circuit, name)

    # --------------------------------------------------------------- loading

    def load_file(self, path: str | Path, name: str | None = None) -> str:
        """Load a circuit file (.qasm or .json), registering it by name."""
        path = Path(path)
        if path.suffix.lower() == ".qasm":
            circuit = load_qasm(path, name=name)
        elif path.suffix.lower() == ".json":
            circuit = load_circuit(path)
        else:
            raise QymeraError(f"unsupported circuit file type {path.suffix!r} (expected .qasm or .json)")
        return self.add_circuit(circuit, name)

    def load_text(self, text: str, fmt: str, name: str | None = None) -> str:
        """Load circuit source text: ``fmt`` is ``qasm``, ``json`` or ``quil``."""
        fmt = fmt.lower()
        if fmt == "qasm":
            circuit = loads_qasm(text, name=name or "qasm_circuit")
        elif fmt == "json":
            circuit = loads_circuit(text)
        elif fmt == "quil":
            circuit = loads_quil(text, name=name or "quil_program")
        else:
            raise QymeraError(f"unsupported circuit text format {fmt!r}")
        return self.add_circuit(circuit, name)

    # ------------------------------------------------------------- retrieval

    def get(self, name: str) -> QuantumCircuit:
        """Fetch a registered circuit."""
        if name not in self._circuits:
            raise QymeraError(f"no circuit named {name!r}; registered: {sorted(self._circuits)}")
        return self._circuits[name]

    def names(self) -> list[str]:
        """Names of all registered circuits."""
        return sorted(self._circuits)

    def bind(self, name: str, values: Mapping[str, float], new_name: str | None = None) -> str:
        """Bind a parameterized circuit family and register the bound instance."""
        bound = self.get(name).bind_parameters(dict(values))
        key = new_name or f"{name}_bound"
        bound.name = key
        return self.add_circuit(bound, key)

    def describe(self, name: str) -> dict:
        """Structural summary of a circuit (shown in the UI's side panel)."""
        circuit = self.get(name)
        return {
            "name": name,
            "num_qubits": circuit.num_qubits,
            "num_gates": circuit.size(),
            "depth": circuit.depth(),
            "two_qubit_gates": circuit.num_nonlocal_gates(),
            "branching_gates": circuit.branching_gate_count() if not circuit.is_parameterized else None,
            "parameters": sorted(parameter.name for parameter in circuit.parameters),
            "counts": circuit.count_ops(),
        }


class SimulationPanel:
    """Method selection and execution (Translation + Simulation Layers).

    Every run goes through the compile–bind–execute pipeline
    (``method.compile(circuit).bind().execute()``).  Method instances are
    pooled per (method, options) combination: reusing the instance keeps the
    memdb backend's engine — and with it the compiled-plan cache — alive
    across runs, so re-running a circuit family (rebinding parameters,
    sweeping a grid) skips SQL parsing and planning after the first run.
    Asynchronous work (sweep grids, concurrent users) goes through
    :meth:`submit`, which queues onto the session's :class:`JobService`.
    """

    def __init__(self, circuit_panel: CircuitPanel, job_service: JobService | None = None) -> None:
        self._circuits = circuit_panel
        self._results: dict[tuple[str, str, tuple], SimulationResult] = {}
        self._method_pool: dict[tuple, object] = {}
        self._jobs = job_service if job_service is not None else JobService()

    # -------------------------------------------------------------- methods

    @staticmethod
    def available_methods() -> list[str]:
        """All simulation methods usable in this environment."""
        return sorted(set(available_backends()) | set(available_simulators()))

    @staticmethod
    def _make_method(method: str, **options):
        return make_method(method, **options)

    # ------------------------------------------------------------------ runs

    def translate(self, circuit_name: str, dialect: str = "sqlite", fuse: bool = False) -> SQLTranslation:
        """Show the SQL that would run for a circuit (the demo's inspection view)."""
        backends = {"sqlite": SQLiteBackend, "memdb": MemDBBackend, "duckdb": DuckDBBackend}
        if dialect not in backends:
            raise QymeraError(
                f"unknown SQL dialect {dialect!r}; expected one of {sorted(backends)}"
            )
        # DuckDBBackend raises BackendUnavailableError when the package is absent.
        backend = backends[dialect](fuse=fuse)
        return backend.translate(self._circuits.get(circuit_name))

    def explain(self, circuit_name: str, analyze: bool = False, **options) -> str:
        """The memdb plan for a circuit's generated query.

        Shows the logical rewrites, each block's physical operators and row
        bound (with ``analyze=True`` also its actual rows), and plan-cache
        provenance.
        Uses the pooled memdb method instance so provenance reflects the
        same plan cache the runs hit.
        """
        circuit = self._circuits.get(circuit_name)
        backend = self._pooled_method("memdb", options)
        if not isinstance(backend, MemDBBackend):
            raise QymeraError("EXPLAIN is only available on the memdb backend")
        return backend.explain_circuit(circuit, analyze=analyze)

    def engine_stats(self, method: str = "memdb", **options) -> dict:
        """The engine-stats document of a pooled backend instance.

        The engine's versioned document, unchanged (see
        :meth:`~repro.backends.memdb.engine.MemDatabase.engine_stats`):
        ``plan_cache``, ``optimizer``, ``storage`` and ``tracing`` sections
        under one ``schema_version``.
        """
        backend = self._pooled_method(method, options)
        if not isinstance(backend, MemDBBackend):
            raise QymeraError(f"engine statistics are not exposed by method {method!r}")
        return backend.engine_stats()

    def recent_traces(self, **options) -> list[dict]:
        """Recent query span trees of the pooled memdb backend (needs tracing on)."""
        backend = self._pooled_method("memdb", options)
        if not isinstance(backend, MemDBBackend):
            raise QymeraError("query traces are only available on the memdb backend")
        return backend.recent_traces()

    def slow_queries(self, **options) -> list[dict]:
        """Slow-query log entries of the pooled memdb backend (needs tracing on)."""
        backend = self._pooled_method("memdb", options)
        if not isinstance(backend, MemDBBackend):
            raise QymeraError("the slow-query log is only available on the memdb backend")
        return backend.slow_queries()

    def run(self, circuit_name: str, method: str = "sqlite", **options) -> SimulationResult:
        """Simulate a registered circuit with one method.

        Back-compat facade over the compile–bind–execute pipeline; results
        are stored under (circuit, method, options-fingerprint) so runs of
        the same circuit with different options never overwrite each other.
        """
        circuit = self._circuits.get(circuit_name)
        simulator = self._pooled_method(method, options)
        result = simulator.compile(circuit).bind().execute()
        self._results[(circuit_name, method, options_fingerprint(options))] = result
        return result

    def submit(
        self,
        circuit_name: str,
        method: str = "memdb",
        params: Mapping[str, float] | None = None,
        param_grid: Sequence[Mapping[str, float]] | None = None,
        **options,
    ) -> JobHandle:
        """Queue a run (or a whole sweep grid) on the session's job service.

        Returns immediately with a :class:`~repro.service.jobs.JobHandle`;
        use its ``poll`` / ``result`` / ``stream`` methods to follow it.
        """
        return self._jobs.submit(
            circuit=self._circuits.get(circuit_name),
            method=method,
            options=options,
            params=params,
            param_grid=param_grid,
            tag=circuit_name,
        )

    @property
    def jobs(self) -> JobService:
        """The job service backing :meth:`submit`."""
        return self._jobs

    def _pooled_method(self, method: str, options: Mapping[str, object]):
        # Deliberately NOT options_fingerprint (the results/job key): the
        # pool key uses the raw option values so that unhashable — typically
        # mutable — values never pool.  Pooling them by repr would alias a
        # backend built around an option object that the caller mutates
        # later; a fresh instance per run is the safe fallback.
        try:
            key = (method, tuple(sorted(options.items())))
            simulator = self._method_pool.get(key)
        except TypeError:
            # Unhashable option values: fall back to a fresh instance.
            return self._make_method(method, **options)
        if simulator is None:
            simulator = self._make_method(method, **options)
            self._method_pool[key] = simulator
        return simulator

    def run_all(
        self,
        circuit_name: str,
        methods: Sequence[str] | None = None,
        options: Mapping[str, Mapping[str, object]] | None = None,
    ) -> dict[str, SimulationResult]:
        """Simulate one circuit with several methods (the comparison view).

        ``options`` maps a method name to the keyword options forwarded to
        that method's run (and thus into the pooled-instance lookup), e.g.
        ``{"memdb": {"fuse": True}}``.
        """
        chosen = list(methods) if methods is not None else self.available_methods()
        per_method = {name: dict(value) for name, value in options.items()} if options else {}
        unknown = sorted(set(per_method) - set(chosen))
        if unknown:
            raise QymeraError(
                f"options given for methods that will not run: {unknown}; running {sorted(chosen)}"
            )
        return {method: self.run(circuit_name, method, **per_method.get(method, {})) for method in chosen}

    def benchmark(
        self,
        workloads: Sequence[str],
        sizes: Sequence[int],
        methods: Sequence[str] | None = None,
        max_state_bytes: int | None = None,
    ) -> list[BenchmarkRecord]:
        """Run the benchmarking suite over named workloads and sizes."""
        factories = default_method_factories(max_state_bytes=max_state_bytes)
        if methods is not None:
            missing = [m for m in methods if m not in factories]
            if missing:
                raise QymeraError(f"unknown benchmark methods {missing}; available: {sorted(factories)}")
            factories = {name: factories[name] for name in methods}
        runner = BenchmarkRunner(methods=factories)
        return runner.run_suite(workloads, sizes)

    def result(self, circuit_name: str, method: str, **options) -> SimulationResult:
        """Fetch a previously computed result.

        Pass the run's options to address one of several stored runs of the
        same (circuit, method); with no options, the lookup falls back to
        the single stored run when it is unambiguous.
        """
        key = (circuit_name, method, options_fingerprint(options))
        if key in self._results:
            return self._results[key]
        matches = [
            value
            for (circuit, run_method, _fingerprint), value in self._results.items()
            if circuit == circuit_name and run_method == method
        ]
        if not options:
            if len(matches) == 1:
                return matches[0]
            if len(matches) > 1:
                raise QymeraError(
                    f"{len(matches)} stored results for circuit {circuit_name!r} with method "
                    f"{method!r}; pass the run's options to disambiguate"
                )
        suffix = " and those options" if options else ""
        raise QymeraError(
            f"no stored result for circuit {circuit_name!r} with method {method!r}{suffix}"
        )

    def results(self) -> dict[tuple[str, str, tuple], SimulationResult]:
        """All stored results keyed by (circuit, method, options fingerprint)."""
        return dict(self._results)


class OutputPanel:
    """Result inspection, visualization and export (the Output Layer).

    Every view accepts the run's keyword ``options`` so that runs of the
    same (circuit, method) with different options can each be inspected;
    with no options the lookup resolves the single stored run.
    """

    def __init__(self, simulation_panel: SimulationPanel) -> None:
        self._simulations = simulation_panel

    def state_table(self, circuit_name: str, method: str, max_rows: int = 32, **options) -> str:
        """The final state as the paper's relational output table."""
        result = self._simulations.result(circuit_name, method, **options)
        return format_amplitude_table(result.state, max_rows=max_rows)

    def probability_histogram(self, circuit_name: str, method: str, **options) -> str:
        """ASCII histogram of measurement probabilities."""
        result = self._simulations.result(circuit_name, method, **options)
        return probability_histogram(result.state)

    def sample_histogram(
        self, circuit_name: str, method: str, shots: int = 1024, seed: int | None = 7, **options
    ) -> str:
        """ASCII histogram of sampled measurement shots."""
        result = self._simulations.result(circuit_name, method, **options)
        return histogram(sample_counts(result.state, shots, seed=seed))

    def bloch_view(self, circuit_name: str, method: str, qubit: int, **options) -> str:
        """Bloch-sphere description of one qubit (the educational visualization)."""
        result = self._simulations.result(circuit_name, method, **options)
        return bloch_text(bloch_vector(result.state, qubit))

    def entanglement(self, circuit_name: str, method: str, qubits: Sequence[int], **options) -> float:
        """Entanglement entropy (bits) of a qubit subset in the final state."""
        result = self._simulations.result(circuit_name, method, **options)
        return entanglement_entropy(result.state, qubits)

    def performance_table(self, circuit_name: str, methods: Sequence[str] | None = None) -> str:
        """Per-method time / memory comparison for one circuit.

        Runs of the same method with different options appear as separate
        rows, distinguished by the ``options`` column.
        """
        stored = self._simulations.results()
        rows = []
        for (name, method, fingerprint), result in sorted(
            stored.items(), key=lambda item: (item[0][0], item[0][1], repr(item[0][2]))
        ):
            if name != circuit_name:
                continue
            if methods is not None and method not in methods:
                continue
            rows.append(
                {
                    "method": method,
                    "options": ", ".join(f"{key}={value!r}" for key, value in fingerprint),
                    "wall_time_s": result.wall_time_s,
                    "peak_state_rows": result.peak_state_rows,
                    "peak_state_bytes": result.peak_state_bytes,
                    "nonzero": result.state.num_nonzero,
                }
            )
        if not rows:
            raise QymeraError(f"no stored results for circuit {circuit_name!r}")
        columns = ["method", "options", "wall_time_s", "peak_state_rows", "peak_state_bytes", "nonzero"]
        if all(not row["options"] for row in rows):
            columns.remove("options")
        return comparison_table(rows, columns=columns)

    def export_state_csv(self, circuit_name: str, method: str, path: str | Path, **options) -> Path:
        """Write the final state's relational rows to CSV."""
        result = self._simulations.result(circuit_name, method, **options)
        return write_state_csv(result.state, path)

    def export_result_json(self, circuit_name: str, method: str, **options) -> str:
        """Full result (state + metadata) as a JSON string."""
        return result_to_json(self._simulations.result(circuit_name, method, **options))

    def export_benchmark_csv(self, records: Sequence[BenchmarkRecord], path: str | Path) -> Path:
        """Write benchmark records to CSV."""
        return write_records_csv([record.to_dict() for record in records], path)


class QymeraSession:
    """One end-to-end session: circuits in, SQL-backed simulation, results out.

    Example (the paper's GHZ walk-through)::

        session = QymeraSession()
        builder = session.circuits.new_builder(3)
        builder.place("h", [0])
        builder.place("cx", [0, 1])
        builder.place("cx", [1, 2])
        session.circuits.add_from_builder(builder, "ghz")
        print(session.simulations.translate("ghz").cte_query())
        session.simulations.run("ghz", "sqlite")
        print(session.output.state_table("ghz", "sqlite"))
    """

    def __init__(self, job_service: JobService | None = None) -> None:
        self.circuits = CircuitPanel()
        self.jobs = job_service if job_service is not None else JobService()
        self.simulations = SimulationPanel(self.circuits, job_service=self.jobs)
        self.output = OutputPanel(self.simulations)

    def quick_run(self, circuit: QuantumCircuit, method: str = "sqlite") -> SimulationResult:
        """Register, run and return in one call (the quickstart path)."""
        name = self.circuits.add_circuit(circuit)
        return self.simulations.run(name, method)

    def final_state(self, circuit: QuantumCircuit, method: str = "sqlite") -> SparseState:
        """Just the final state of a circuit under one method."""
        return self.quick_run(circuit, method).state

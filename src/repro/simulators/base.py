"""Common interface for all simulation methods.

Every simulation method in the paper's Simulation Layer — the RDBMS backends
as well as the state-vector, sparse, MPS and decision-diagram baselines —
implements the same contract, organized as a three-stage lifecycle modelled
on prepared statements:

* :meth:`BaseSimulator.compile` turns a :class:`QuantumCircuit` (possibly
  still parameterized) into a reusable :class:`Executable` — translation,
  gate-matrix preparation and backend plan compilation happen here, once;
* :meth:`Executable.bind` substitutes parameter values and yields a
  :class:`BoundExecutable` for one concrete circuit instance;
* :meth:`BoundExecutable.execute` (or :meth:`Executable.execute_batch` for a
  whole parameter grid) runs the bound instance and returns a
  :class:`SimulationResult`.

:meth:`BaseSimulator.run` is the back-compat wrapper — it is exactly
``compile(circuit).bind().execute()``.  :class:`BaseSimulator` provides the
shared timing, bookkeeping, measurement handling and budget enforcement so
concrete simulators only implement :meth:`_evolve` (and optionally
:meth:`_compile` / :meth:`_evolve_compiled` to exploit compiled artifacts).
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from typing import Iterable, Mapping

from ..core.circuit import QuantumCircuit
from ..core.instruction import KIND_RESET
from ..errors import MidCircuitOperationError, ResourceLimitExceeded, SimulationError
from ..obs.tracing import maybe_span
from ..output.result import SimulationResult, SparseState


class EvolutionStats:
    """Mutable statistics a simulator records while evolving a state."""

    __slots__ = ("peak_rows", "peak_bytes", "extras")

    def __init__(self) -> None:
        self.peak_rows = 0
        self.peak_bytes = 0
        self.extras: dict = {}

    def observe(self, rows: int, bytes_estimate: int | None = None) -> None:
        """Record the size of an intermediate representation."""
        self.peak_rows = max(self.peak_rows, int(rows))
        if bytes_estimate is None:
            bytes_estimate = 24 * int(rows)
        self.peak_bytes = max(self.peak_bytes, int(bytes_estimate))


class Executable:
    """A compiled circuit bound to one simulation method instance.

    Holds the circuit template (which may still carry free parameters), the
    method that compiled it, and the method-specific compiled artifact —
    precomputed gate matrices and scatter indices for the in-memory
    simulators, the cached SQL translation and prepared engine plans for the
    relational backends.  An Executable is reusable: binding it many times
    (a parameter sweep, repeated service requests) re-uses the compile-time
    work by construction instead of relying on implicit method pooling.
    """

    __slots__ = ("_method", "_circuit", "_artifact", "_executions", "_provenance", "_compile_time_s")

    def __init__(
        self,
        method: "BaseSimulator",
        circuit: QuantumCircuit,
        artifact: dict | None = None,
        compile_time_s: float = 0.0,
    ) -> None:
        self._method = method
        self._circuit = circuit
        self._artifact = dict(artifact) if artifact else {}
        self._executions = 0
        self._compile_time_s = float(compile_time_s)
        self._provenance: dict = {"method": method.name, "compile_time_s": self._compile_time_s}
        compile_info = self._artifact.pop("provenance", None)
        if compile_info:
            self._provenance.update(compile_info)

    # ------------------------------------------------------------ properties

    @property
    def method(self) -> "BaseSimulator":
        """The simulator/backend instance this executable runs on."""
        return self._method

    @property
    def circuit(self) -> QuantumCircuit:
        """The circuit template this executable was compiled from."""
        return self._circuit

    @property
    def artifact(self) -> dict:
        """The method-specific compiled artifact (opaque to callers)."""
        return self._artifact

    @property
    def parameter_names(self) -> list[str]:
        """Names of the template's free parameters (empty when fully bound)."""
        return sorted(parameter.name for parameter in self._circuit.parameters)

    @property
    def is_parameterized(self) -> bool:
        """True when :meth:`bind` needs parameter values."""
        return self._circuit.is_parameterized

    @property
    def executions(self) -> int:
        """How many times this executable has been executed."""
        return self._executions

    @property
    def compile_time_s(self) -> float:
        """Wall time the compile stage took (amortized across every execution).

        Execution results time only the execute stage in ``wall_time_s``
        (that is the point of the lifecycle); this value — also recorded in
        each result's ``metadata["compile_time_s"]`` — keeps end-to-end
        accounting possible for benchmarks comparing one-shot runs.
        """
        return self._compile_time_s

    @property
    def provenance(self) -> dict:
        """Compile- and execution-time provenance (plan-cache state, translation summary)."""
        return dict(self._provenance)

    # ------------------------------------------------------------- lifecycle

    def bind(self, values: Mapping[str, float] | None = None, **kwargs: float) -> "BoundExecutable":
        """Substitute parameter values, yielding a fully bound executable.

        ``values`` maps parameter names to floats; ``kwargs`` are merged on
        top for parameters whose names are valid identifiers.  Every free
        parameter of the template must be covered (partial bindings raise,
        matching the prepared-statement contract), and unknown names raise
        :class:`~repro.errors.ParameterError`.
        """
        point: dict[str, float] = dict(values) if values else {}
        point.update(kwargs)
        if self._circuit.is_parameterized:
            bound = self._circuit.bind_parameters(point) if point else self._circuit
            if bound.is_parameterized:
                names = sorted(parameter.name for parameter in bound.parameters)
                raise SimulationError(
                    f"circuit has unbound parameters {names}; bind them before simulating"
                )
        else:
            if point:
                # Surfaces unknown-parameter errors with the usual message.
                self._circuit.bind_parameters(point)
            bound = self._circuit
        return BoundExecutable(self, bound, point)

    def execute_batch(
        self,
        points: Iterable[Mapping[str, float]],
        initial_state: SparseState | None = None,
    ) -> list[SimulationResult]:
        """Bind and execute every parameter point, returning one result each.

        This is the first-class sweep path: the compile-time artifact (and,
        on the memdb backend, the engine's plan cache) is shared across all
        points, so throughput matches a hand-pooled method instance.
        """
        return [self.bind(point).execute(initial_state=initial_state) for point in points]

    # ------------------------------------------------------------- internals

    def _record_execution(self, provenance: Mapping[str, object] | None) -> None:
        self._executions += 1
        if provenance:
            self._provenance.setdefault("first_execution", dict(provenance))
            self._provenance["last_execution"] = dict(provenance)

    def __repr__(self) -> str:
        parameters = ", ".join(self.parameter_names) or "bound"
        return (
            f"Executable(method={self._method.name!r}, circuit={self._circuit.name!r}, "
            f"parameters=[{parameters}], executions={self._executions})"
        )


class BoundExecutable:
    """An :class:`Executable` with every parameter substituted.

    The second lifecycle stage: holds the concrete bound circuit plus the
    parameter point it came from, and executes on the parent executable's
    method instance (sharing its compiled artifact).
    """

    __slots__ = ("_executable", "_circuit", "_point")

    def __init__(self, executable: Executable, circuit: QuantumCircuit, point: Mapping[str, float]) -> None:
        self._executable = executable
        self._circuit = circuit
        self._point = dict(point)

    @property
    def executable(self) -> Executable:
        """The compiled executable this binding belongs to."""
        return self._executable

    @property
    def circuit(self) -> QuantumCircuit:
        """The fully bound circuit instance."""
        return self._circuit

    @property
    def point(self) -> dict[str, float]:
        """The parameter assignment of this binding (empty for unparameterized templates)."""
        return dict(self._point)

    def execute(self, initial_state: SparseState | None = None) -> SimulationResult:
        """Simulate the bound circuit and return the final state plus metadata."""
        return self._executable.method._execute_bound(
            self._executable, self._circuit, initial_state, self._point
        )

    def __repr__(self) -> str:
        point = ", ".join(f"{name}={value:g}" for name, value in sorted(self._point.items()))
        return f"BoundExecutable(method={self._executable.method.name!r}, point={{{point}}})"


def refuse_mid_circuit_operations(circuit: QuantumCircuit) -> None:
    """Raise :class:`MidCircuitOperationError` on a reset or a gate after a measurement."""
    measured: set[int] = set()
    for instruction in circuit.instructions:
        if instruction.kind == KIND_RESET:
            raise MidCircuitOperationError(
                f"reset of qubit {instruction.qubits[0]} in {circuit.name!r}: reset is not simulated"
            )
        if instruction.is_measurement:
            measured.update(instruction.qubits)
        elif instruction.is_gate and not measured.isdisjoint(instruction.qubits):
            again = sorted(measured.intersection(instruction.qubits))
            raise MidCircuitOperationError(
                f"gate {instruction.name!r} acts on measured qubit(s) {again} in {circuit.name!r}: "
                "only terminal measurements are simulated"
            )


class BaseSimulator(ABC):
    """Abstract simulator.

    Parameters
    ----------
    max_state_bytes:
        Optional budget on the size of the simulator's state representation.
        When an intermediate state exceeds it, :class:`ResourceLimitExceeded`
        is raised — this is the knob the capacity experiments (E3/E9) sweep.
    prune_atol:
        Amplitudes whose magnitude falls at or below this are dropped from
        sparse representations (mirrors "only nonzero basis states are
        stored").
    """

    #: Short identifier reported in results ("statevector", "sqlite", ...).
    name: str = "base"

    def __init__(self, max_state_bytes: int | None = None, prune_atol: float = 1e-12) -> None:
        if max_state_bytes is not None and max_state_bytes <= 0:
            raise SimulationError("max_state_bytes must be positive when given")
        self.max_state_bytes = max_state_bytes
        self.prune_atol = float(prune_atol)

    # ------------------------------------------------------------------ API

    def compile(self, circuit: QuantumCircuit) -> Executable:
        """Compile ``circuit`` into a reusable :class:`Executable`.

        The circuit may still carry free parameters: compile-time work that
        only depends on the circuit *structure* (gate scatter indices, SQL
        translation shape, engine plans) is done here and shared by every
        subsequent :meth:`Executable.bind`.

        A circuit that resets a qubit, or applies a gate to a qubit it has
        measured, raises :class:`MidCircuitOperationError`: every method
        computes the pre-measurement state, which is exact only when every
        measurement is terminal.
        """
        refuse_mid_circuit_operations(circuit)
        started = time.perf_counter()
        with maybe_span(
            "compile", method=self.name, circuit=circuit.name, gates=circuit.size()
        ):
            artifact = self._compile(circuit)
        return Executable(self, circuit, artifact, compile_time_s=time.perf_counter() - started)

    def run(self, circuit: QuantumCircuit, initial_state: SparseState | None = None) -> SimulationResult:
        """Simulate ``circuit`` and return the final state plus metadata.

        Back-compat wrapper over the compile–bind–execute lifecycle: exactly
        ``compile(circuit).bind().execute(initial_state=initial_state)``.
        Measurements must be terminal (see :meth:`compile`) and are ignored
        for state evolution (the final state returned is the pre-measurement
        state; use :mod:`repro.output.sampling` to draw shots from it); they
        are listed in the result metadata.  Parameterized circuits must be
        bound first.
        """
        return self.compile(circuit).bind().execute(initial_state=initial_state)

    def _execute_bound(
        self,
        executable: Executable,
        circuit: QuantumCircuit,
        initial_state: SparseState | None,
        point: Mapping[str, float],
    ) -> SimulationResult:
        """Shared execute stage: validation, timing, bookkeeping, budget."""
        if circuit.is_parameterized:
            names = sorted(parameter.name for parameter in circuit.parameters)
            raise SimulationError(f"circuit has unbound parameters {names}; bind them before simulating")
        if initial_state is not None and initial_state.num_qubits != circuit.num_qubits:
            raise SimulationError(
                f"initial state has {initial_state.num_qubits} qubits, circuit has {circuit.num_qubits}"
            )
        stats = EvolutionStats()
        started = time.perf_counter()
        with maybe_span(
            "simulate",
            method=self.name,
            circuit=circuit.name,
            qubits=circuit.num_qubits,
            execution=executable.executions + 1,
        ) as span:
            state = self._evolve_compiled(executable, circuit, initial_state, stats)
            if span is not None:
                span.set(peak_rows=stats.peak_rows)
        elapsed = time.perf_counter() - started
        metadata = {"measured_qubits": circuit.measured_qubits()}
        metadata.update(stats.extras)
        metadata["compile_time_s"] = executable.compile_time_s
        if point:
            metadata["parameter_binding"] = dict(point)
        executable._record_execution(self._execution_provenance(executable))
        return SimulationResult(
            state=state.pruned(self.prune_atol),
            method=self.name,
            circuit_name=circuit.name,
            num_qubits=circuit.num_qubits,
            num_gates=circuit.size(),
            wall_time_s=elapsed,
            peak_state_rows=stats.peak_rows,
            peak_state_bytes=stats.peak_bytes,
            metadata=metadata,
        )

    def _check_budget(self, bytes_estimate: int, context: str = "") -> None:
        """Raise :class:`ResourceLimitExceeded` when the byte budget is exceeded."""
        if self.max_state_bytes is not None and bytes_estimate > self.max_state_bytes:
            raise ResourceLimitExceeded(
                f"{self.name}: state requires {bytes_estimate} bytes, budget is {self.max_state_bytes}"
                + (f" ({context})" if context else "")
            )

    # ----------------------------------------------------------- to override

    def _compile(self, circuit: QuantumCircuit) -> dict:
        """Build the method-specific compiled artifact (default: none).

        Subclasses return a dict of precomputed state; the reserved
        ``"provenance"`` key is lifted onto :attr:`Executable.provenance`.
        """
        return {}

    def _evolve_compiled(
        self,
        executable: Executable,
        circuit: QuantumCircuit,
        initial_state: SparseState | None,
        stats: EvolutionStats,
    ) -> SparseState:
        """Evolve using the compiled artifact; defaults to plain :meth:`_evolve`."""
        return self._evolve(circuit, initial_state, stats)

    def _execution_provenance(self, executable: Executable) -> dict:
        """Method-specific per-execution provenance (e.g. plan-cache counters)."""
        return {}

    @abstractmethod
    def _evolve(
        self,
        circuit: QuantumCircuit,
        initial_state: SparseState | None,
        stats: EvolutionStats,
    ) -> SparseState:
        """Evolve |0...0> (or ``initial_state``) through the circuit's gates."""

    def __repr__(self) -> str:
        budget = f", max_state_bytes={self.max_state_bytes}" if self.max_state_bytes else ""
        return f"{type(self).__name__}(name={self.name!r}{budget})"

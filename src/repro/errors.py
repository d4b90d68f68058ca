"""Exception hierarchy for the Qymera reproduction.

Every error raised by this package derives from :class:`QymeraError`, so
downstream code can catch a single base class.  Sub-hierarchies mirror the
system layers described in DESIGN.md: circuit construction, translation to
SQL, backend execution, simulation, IO, and benchmarking.
"""

from __future__ import annotations


class QymeraError(Exception):
    """Base class for all errors raised by this package."""


class CircuitError(QymeraError):
    """Invalid circuit construction or manipulation.

    Raised for out-of-range qubit indices, duplicate qubit arguments to a
    gate, arity mismatches, and similar structural problems.
    """


class ParameterError(CircuitError):
    """Invalid use of circuit parameters (unbound, unknown, or duplicate)."""


class GateError(CircuitError):
    """Unknown gate name or invalid gate definition (non-unitary matrix, bad shape)."""


class TranslationError(QymeraError):
    """The SQL translation layer could not translate a circuit.

    Typical causes: unbound parameters at translation time, unsupported
    instruction kinds, or qubit counts exceeding the integer encoding width
    supported by the target dialect.
    """


class BackendError(QymeraError):
    """An RDBMS backend failed to execute a translated query."""


class BackendUnavailableError(BackendError):
    """The requested backend is not installed / usable in this environment."""


class SQLParseError(BackendError):
    """The embedded columnar engine (memdb) could not parse a SQL statement."""


class SQLExecutionError(BackendError):
    """The embedded columnar engine (memdb) failed while executing a plan."""


class SimulationError(QymeraError):
    """A baseline simulator (state-vector, sparse, MPS, DD) failed."""


class MidCircuitOperationError(SimulationError):
    """A circuit measures a qubit and then acts on it again, or resets a qubit.

    Every method computes the pre-measurement pure state, which is exact
    only when all measurements are terminal, so these circuits are refused.
    """


class ResourceLimitExceeded(SimulationError):
    """A simulation exceeded its configured memory or amplitude-count budget."""


class CircuitFormatError(QymeraError):
    """A circuit file (QASM, JSON, Quil-like) could not be parsed."""


class BenchmarkError(QymeraError):
    """The benchmarking framework was configured or used incorrectly."""


class AnalysisError(QymeraError):
    """Result analysis failed (e.g. comparing states of different widths)."""

"""Memory accounting and budgets for the capacity experiments.

The headline numbers the paper cites (appendix B4 of the extended report) are
obtained under a fixed memory limit: "with a 2.0 GB memory limit, the RDBMS
approach simulated up to 3,118x more qubits than a conventional simulation
method for sparse circuits".  This module provides the budget arithmetic used
to reproduce the *shape* of that result:

* the dense state-vector needs ``16 * 2**n`` bytes regardless of sparsity;
* the relational representation needs ``24 * rows`` bytes, where ``rows`` is
  the number of nonzero amplitudes (2 for a GHZ state, independent of n);
* given a budget, each representation has a maximum simulable qubit count.

Physical process memory can also be sampled (``resource`` / ``tracemalloc``)
for reporting, but budget enforcement is logical so experiments are
deterministic and platform-independent.
"""

from __future__ import annotations

import resource
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass

from ..errors import BenchmarkError

#: Bytes per dense complex128 amplitude.
STATEVECTOR_BYTES_PER_AMPLITUDE = 16
#: Bytes per relational state row (s BIGINT, r DOUBLE, i DOUBLE).
RELATIONAL_BYTES_PER_ROW = 24

#: The memory limit used in the paper's referenced experiment.
PAPER_MEMORY_LIMIT_BYTES = 2 * 1024 ** 3


def statevector_bytes(num_qubits: int) -> int:
    """Memory needed by a dense state vector on ``num_qubits`` qubits."""
    if num_qubits < 1:
        raise BenchmarkError("num_qubits must be positive")
    return STATEVECTOR_BYTES_PER_AMPLITUDE * (1 << num_qubits)


def relational_bytes(rows: int) -> int:
    """Memory needed by a relational state with ``rows`` nonzero amplitudes."""
    if rows < 0:
        raise BenchmarkError("row count must be non-negative")
    return RELATIONAL_BYTES_PER_ROW * rows


def max_statevector_qubits(budget_bytes: int) -> int:
    """Largest ``n`` with ``16 * 2**n <= budget_bytes``."""
    if budget_bytes < STATEVECTOR_BYTES_PER_AMPLITUDE * 2:
        return 0
    n = 0
    while statevector_bytes(n + 1) <= budget_bytes:
        n += 1
    return n


def max_relational_qubits(budget_bytes: int, rows_for_circuit) -> int:
    """Largest ``n`` whose relational state fits the budget.

    ``rows_for_circuit`` maps a qubit count to the peak number of nonzero
    amplitudes of the workload (e.g. ``lambda n: 2`` for GHZ).  The search is
    capped at the 62-qubit limit of the 64-bit integer encoding.
    """
    best = 0
    for n in range(1, 63):
        if relational_bytes(int(rows_for_circuit(n))) <= budget_bytes:
            best = n
        else:
            break
    return best


def capacity_ratio(budget_bytes: int, rows_for_circuit) -> dict:
    """Capacity comparison under a budget: the paper's "k x more qubits" claim.

    Returns the max qubit counts of both representations plus their ratio and
    the ratio of representable state-space sizes (2**n), which is the factor
    the paper quotes.
    """
    dense = max_statevector_qubits(budget_bytes)
    relational = max_relational_qubits(budget_bytes, rows_for_circuit)
    return {
        "budget_bytes": budget_bytes,
        "statevector_max_qubits": dense,
        "relational_max_qubits": relational,
        "extra_qubits": relational - dense,
        "qubit_ratio": (relational / dense) if dense else float("inf"),
    }


# ---------------------------------------------------------------------------
# Physical memory sampling (reporting only)
# ---------------------------------------------------------------------------


def peak_rss_bytes() -> int:
    """Peak resident set size of this process so far (Linux: ru_maxrss is KiB)."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return int(usage.ru_maxrss) * 1024


@dataclass
class AllocationReport:
    """Result of tracing Python allocations around a code block."""

    current_bytes: int
    peak_bytes: int


@contextmanager
def trace_allocations():
    """Context manager measuring Python-level allocations via ``tracemalloc``.

    Yields an :class:`AllocationReport` that is filled in when the block
    exits.  Nested tracing is not supported (tracemalloc is process-global).
    """
    report = AllocationReport(0, 0)
    already_tracing = tracemalloc.is_tracing()
    if not already_tracing:
        tracemalloc.start()
    baseline, _baseline_peak = tracemalloc.get_traced_memory()
    tracemalloc.reset_peak()
    try:
        yield report
    finally:
        current, peak = tracemalloc.get_traced_memory()
        report.current_bytes = max(0, current - baseline)
        report.peak_bytes = max(0, peak - baseline)
        if not already_tracing:
            tracemalloc.stop()


class MemoryBudget:
    """A byte budget shared by capacity experiments.

    Provides convenience constructors for the budgets used in the benchmark
    harness (the paper's 2 GB limit and scaled-down laptop variants).
    """

    def __init__(self, limit_bytes: int) -> None:
        if limit_bytes <= 0:
            raise BenchmarkError("memory budget must be positive")
        self.limit_bytes = int(limit_bytes)

    @classmethod
    def paper_limit(cls) -> "MemoryBudget":
        """The 2.0 GB limit of the referenced experiment."""
        return cls(PAPER_MEMORY_LIMIT_BYTES)

    @classmethod
    def mebibytes(cls, amount: float) -> "MemoryBudget":
        """A budget expressed in MiB."""
        return cls(int(amount * 1024 ** 2))

    def fits_statevector(self, num_qubits: int) -> bool:
        """True when a dense vector of ``num_qubits`` fits the budget."""
        return statevector_bytes(num_qubits) <= self.limit_bytes

    def fits_relational(self, rows: int) -> bool:
        """True when a relational state of ``rows`` rows fits the budget."""
        return relational_bytes(rows) <= self.limit_bytes

    def __repr__(self) -> str:
        return f"MemoryBudget({self.limit_bytes} bytes)"

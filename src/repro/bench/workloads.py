"""Named benchmark workloads (circuit families keyed by qubit count).

The benchmarking scenarios in the paper revolve around a small set of
circuit families — GHZ preparation, the equal superposition, the parity-check
algorithm, plus densifying circuits like the QFT.  A workload here is simply
a named factory ``num_qubits -> QuantumCircuit`` with a declared sparsity
class, so the runner and the capacity experiments can iterate over them
generically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..circuits import (
    dense_phase_circuit,
    ghz_circuit,
    parity_check_circuit,
    qaoa_maxcut_circuit,
    qft_on_basis_state,
    random_dense_circuit,
    random_sparse_circuit,
    ring_graph,
    superposed_parity_circuit,
    superposition_circuit,
    w_state_circuit,
)
from ..core.circuit import QuantumCircuit
from ..errors import BenchmarkError

#: Sparsity classes used to group workloads in reports.
SPARSE = "sparse"
LINEAR = "linear"
DENSE = "dense"


@dataclass(frozen=True)
class Workload:
    """A named circuit family."""

    name: str
    factory: Callable[[int], QuantumCircuit]
    sparsity: str
    description: str
    #: Peak nonzero amplitudes as a function of the qubit count (for capacity math).
    peak_rows: Callable[[int], int]

    def build(self, num_qubits: int) -> QuantumCircuit:
        """Instantiate the workload at a given width."""
        return self.factory(num_qubits)


def _parity_factory(num_qubits: int) -> QuantumCircuit:
    if num_qubits < 2:
        raise BenchmarkError("the parity workload needs at least 2 qubits (data + ancilla)")
    bits = [(index % 2) for index in range(num_qubits - 1)]
    return parity_check_circuit(bits, measure=False)


_WORKLOADS: dict[str, Workload] = {}


def _register(workload: Workload) -> None:
    _WORKLOADS[workload.name] = workload


_register(
    Workload(
        name="ghz",
        factory=ghz_circuit,
        sparsity=SPARSE,
        description="GHZ preparation (H + CX ladder); 2 nonzero amplitudes at any width",
        peak_rows=lambda n: 2,
    )
)
_register(
    Workload(
        name="parity",
        factory=_parity_factory,
        sparsity=SPARSE,
        description="Classical parity check loaded onto an ancilla; 1 nonzero amplitude",
        peak_rows=lambda n: 1,
    )
)
_register(
    Workload(
        name="w_state",
        factory=w_state_circuit,
        sparsity=LINEAR,
        description="W-state preparation; n nonzero amplitudes",
        peak_rows=lambda n: max(1, n),
    )
)
_register(
    Workload(
        name="parity_superposed",
        factory=lambda n: superposed_parity_circuit(max(1, n - 1)),
        sparsity=DENSE,
        description="Parity oracle over the uniform superposition of the data register",
        peak_rows=lambda n: 1 << max(1, n - 1),
    )
)
_register(
    Workload(
        name="superposition",
        factory=superposition_circuit,
        sparsity=DENSE,
        description="Equal superposition (H on every qubit); all 2^n amplitudes nonzero",
        peak_rows=lambda n: 1 << n,
    )
)
_register(
    Workload(
        name="qft",
        factory=lambda n: qft_on_basis_state(n, (1 << n) - 1),
        sparsity=DENSE,
        description="QFT applied to a basis state; dense output with nontrivial phases",
        peak_rows=lambda n: 1 << n,
    )
)
_register(
    Workload(
        name="dense_phase",
        factory=lambda n: dense_phase_circuit(n, rounds=2),
        sparsity=DENSE,
        description="H + CZ ring + T rounds; dense with entangling structure",
        peak_rows=lambda n: 1 << n,
    )
)
_register(
    Workload(
        name="random_sparse",
        factory=lambda n: random_sparse_circuit(n, depth=8, max_branching=2, seed=7),
        sparsity=SPARSE,
        description="Random permutation/diagonal circuit with at most 2 branching gates",
        peak_rows=lambda n: 4,
    )
)
_register(
    Workload(
        name="random_dense",
        factory=lambda n: random_dense_circuit(n, depth=3, seed=7),
        sparsity=DENSE,
        description="Random dense circuit (Hadamard layers + entanglers)",
        peak_rows=lambda n: 1 << n,
    )
)
_register(
    Workload(
        name="qaoa_ring",
        factory=lambda n: qaoa_maxcut_circuit(n, edges=ring_graph(n), p=1, gammas=[0.45], betas=[0.6]),
        sparsity=DENSE,
        description="Depth-1 QAOA MaxCut on a ring; the repeated-structure sweep workload",
        peak_rows=lambda n: 1 << n,
    )
)


def qaoa_sweep_family(num_nodes: int) -> Callable[[dict], QuantumCircuit]:
    """A ``point -> circuit`` family for parameter sweeps over the QAOA ring.

    Every point produces a circuit with identical structure (hence identical
    generated SQL apart from gate-table literals), which is the shape the
    memdb plan cache exploits: sweeps re-bind fresh gate tables against the
    plans compiled at the first point.
    """
    if num_nodes < 3:
        raise BenchmarkError("the QAOA ring sweep needs at least 3 nodes")
    edges = ring_graph(num_nodes)

    def family(point: dict) -> QuantumCircuit:
        return qaoa_maxcut_circuit(
            num_nodes, edges=edges, p=1, gammas=[point["gamma"]], betas=[point["beta"]]
        )

    return family


def get_workload(name: str) -> Workload:
    """Look up a workload by name."""
    if name not in _WORKLOADS:
        raise BenchmarkError(f"unknown workload {name!r}; available: {sorted(_WORKLOADS)}")
    return _WORKLOADS[name]


def workload_names() -> list[str]:
    """All registered workload names."""
    return sorted(_WORKLOADS)


def workloads_by_sparsity(sparsity: str) -> list[Workload]:
    """All workloads of one sparsity class."""
    return [workload for workload in _WORKLOADS.values() if workload.sparsity == sparsity]

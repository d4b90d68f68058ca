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

import numpy as np

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


# ---------------------------------------------------------------------------
# Hierarchical (XPath-style) relational workload
# ---------------------------------------------------------------------------
#
# A DBLP-style document tree flattened into one relation, with pre/post-order
# node encodings.  XPath axes map onto the SQL features this workload
# exercises: the descendant axis is the pre/post interval containment
# predicate, the following-sibling axis is a window over
# ``PARTITION BY parent ORDER BY pre``, and unbounded reachability is a
# recursive CTE over the ``parent`` edge.  ``benchmarks/bench_window.py``
# gates the vectorized window kernels against a per-partition Python loop on
# exactly this table.

#: Element names by tree depth, echoing DBLP's document structure.
TREE_LEVELS = ("dblp", "proceedings", "inproceedings", "author", "title")

#: Venue partition keys; the non-ASCII entries keep the dictionary-encoded
#: text path honest about unicode collation in partition keys.
TREE_VENUES = ("SIGMOD", "VLDB", "ICDE", "EDBT", "CIDR", "Grundlagen", "Théorie", "データベース")

#: Root's ``parent`` sentinel (no node has id -1, so joins never match it).
TREE_NO_PARENT = -1


def dblp_tree_columns(num_nodes: int, seed: int = 7) -> dict[str, np.ndarray]:
    """A random recursive tree as columnar arrays (``load_table``).

    Node 0 is the root; every later node attaches uniformly at random to an
    earlier node, which keeps the expected depth logarithmic — recursive-CTE
    reachability converges in ``O(log n)`` breadth-first iterations, far from
    the engine's iteration cap.  Columns: ``id``, ``parent`` (-1 for the
    root), ``pre``/``post`` order ranks, ``depth``, ``kind`` (element name by
    depth), ``venue`` (text partition key) and ``score`` (numeric payload).
    """
    if num_nodes < 1:
        raise BenchmarkError("the tree workload needs at least 1 node")
    rng = np.random.default_rng(seed)
    parent = np.full(num_nodes, TREE_NO_PARENT, dtype=np.int64)
    if num_nodes > 1:
        parent[1:] = rng.integers(0, np.arange(1, num_nodes))

    children: list[list[int]] = [[] for _ in range(num_nodes)]
    for node in range(1, num_nodes):
        children[parent[node]].append(node)

    pre = np.zeros(num_nodes, dtype=np.int64)
    post = np.zeros(num_nodes, dtype=np.int64)
    depth = np.zeros(num_nodes, dtype=np.int64)
    clock = 0
    # Iterative DFS: (node, next-child index) so post ranks close after subtrees.
    stack: list[list[int]] = [[0, 0]]
    pre[0] = clock
    clock += 1
    while stack:
        node, child_index = stack[-1]
        if child_index < len(children[node]):
            stack[-1][1] += 1
            child = children[node][child_index]
            depth[child] = depth[node] + 1
            pre[child] = clock
            clock += 1
            stack.append([child, 0])
        else:
            post[node] = clock
            clock += 1
            stack.pop()

    kinds = np.array(TREE_LEVELS, dtype=object)
    venues = np.array(TREE_VENUES, dtype=object)
    return {
        "id": np.arange(num_nodes, dtype=np.int64),
        "parent": parent,
        "pre": pre,
        "post": post,
        "depth": depth,
        "kind": kinds[np.minimum(depth, len(TREE_LEVELS) - 1)],
        "venue": venues[rng.integers(0, len(TREE_VENUES), num_nodes)],
        "score": np.round(rng.normal(size=num_nodes), 4),
    }


def tree_sibling_window_sql(table: str = "tree") -> str:
    """Sibling position, venue rank and running score in one window query.

    ``row_number() OVER (PARTITION BY parent ORDER BY pre)`` is the XPath
    following-sibling position; the venue rank and running sum exercise the
    ranking and prefix-aggregate kernels over the same scan.
    """
    return (
        "SELECT parent, pre, id, "
        "row_number() OVER (PARTITION BY parent ORDER BY pre) AS sibling_pos, "
        "rank() OVER (PARTITION BY venue ORDER BY score DESC, id) AS venue_rank, "
        "sum(score) OVER (PARTITION BY parent ORDER BY pre) AS running_score "
        f"FROM {table} ORDER BY parent, pre"
    )


def tree_descendants_recursive_sql(root: int, table: str = "tree") -> str:
    """Descendant axis as a recursive CTE over the parent edge."""
    return (
        "WITH RECURSIVE reach(node) AS ("
        f"SELECT id FROM {table} WHERE id = {root} "
        f"UNION SELECT t.id FROM {table} AS t JOIN reach AS r ON t.parent = r.node"
        ") SELECT node FROM reach ORDER BY node"
    )


def tree_descendants_interval_sql(root: int, table: str = "tree") -> str:
    """Descendant axis as the pre/post interval containment predicate."""
    return (
        f"SELECT t.id AS node FROM {table} AS t JOIN {table} AS a ON a.id = {root} "
        "WHERE t.pre >= a.pre AND t.post <= a.post ORDER BY t.id"
    )

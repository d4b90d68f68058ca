"""The row-bound law: no engine produces more rows at a step than its bound.

:meth:`repro.sql.translator.SQLTranslation.row_bounds` bounds each step's
output rows from the step list alone.  On generated circuits (the
gate-algebra strategy: diagonal blocks, SWAPs, barriers, shared qubits),
every step's actual row count is at most its bound on memdb in CTE mode
(EXPLAIN ANALYZE's per-block actuals) and materialized mode, with fusion off
and on, and on SQLite in materialized mode.  An engine whose join emits
extra rows fails the law even when its final state is right.  The sparse
simulator's peak stays within the largest per-gate bound of its own walk.
"""

from __future__ import annotations

import re

import pytest
from hypothesis import given
from test_gate_algebra import _FAST, circuits

from repro.backends import MemDBBackend, SQLiteBackend
from repro.simulators import SparseSimulator

_BLOCK = re.compile(r"^(T\d+): row bound (\d+), actual rows (\d+)$")


def _explained_blocks(circuit, fuse: bool) -> list[tuple[int, int]]:
    """``(bound, actual rows)`` of every ``T{k}`` block EXPLAIN ANALYZE reports."""
    backend = MemDBBackend(fuse=fuse)
    lines = backend.explain_circuit(circuit, analyze=True).splitlines()
    blocks = [match.groups() for match in map(_BLOCK.match, lines) if match]
    steps = len(backend.translate(circuit).steps)
    # Every step is a block; only a trailing relabel may be inlined away.
    assert steps - 1 <= len(blocks) <= steps
    return [(int(bound), int(actual)) for _label, bound, actual in blocks]


def check_cte_blocks(circuit, fuse: bool) -> None:
    for bound, actual in _explained_blocks(circuit, fuse):
        assert actual <= bound, (fuse, circuit.draw())
    backend = MemDBBackend(fuse=fuse)
    bounds = backend.translate(circuit).row_bounds()
    if bounds:
        assert backend.run(circuit).state.num_nonzero <= bounds[-1]


def check_materialized_steps(backend, circuit) -> None:
    bounds = backend.translate(circuit).row_bounds()
    step_rows = backend.run(circuit).metadata["step_rows"]
    assert len(step_rows) == len(bounds)
    assert all(rows <= bound for rows, bound in zip(step_rows, bounds)), (backend, circuit.draw())


@pytest.mark.parametrize("fuse", [False, True], ids=["plain", "fused"])
@_FAST
@given(circuit=circuits())
def test_memdb_cte_blocks_stay_within_their_row_bounds(circuit, fuse):
    check_cte_blocks(circuit, fuse)


@pytest.mark.parametrize(
    "make",
    [
        lambda: MemDBBackend(mode="materialized"),
        lambda: MemDBBackend(mode="materialized", fuse=True),
        lambda: SQLiteBackend(mode="materialized"),
        lambda: SQLiteBackend(mode="materialized", fuse=True),
    ],
    ids=["memdb-plain", "memdb-fused", "sqlite-plain", "sqlite-fused"],
)
@_FAST
@given(circuit=circuits())
def test_materialized_steps_stay_within_their_row_bounds(circuit, make):
    check_materialized_steps(make(), circuit)


@_FAST
@given(circuit=circuits())
def test_sparse_peak_stays_within_the_largest_gate_bound(circuit):
    sparse = SparseSimulator()
    assert sparse.run(circuit).peak_state_rows <= sparse.peak_rows_estimate(circuit)

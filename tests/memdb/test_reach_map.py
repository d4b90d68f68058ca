"""Which memdb functions the paper's own workload reaches.

Runs the paper path — QFT-6, GHZ-5 and a random 6-qubit circuit in CTE and
materialized mode with gate fusion off and on, every Output-Layer query of
``sql/queries.py``, and a QAOA-4 parameter sweep through ``execute_batch`` —
under ``sys.setprofile``, and records every ``backends/memdb/`` function
that was called.  Run with ``-s`` to print, per file, the functions the path
never reaches: the candidates for the next deletion, measured instead of
guessed.  Only the stdlib is used (``coverage`` is not a dependency).

The test asserts nothing about the unreached list.  It asserts that the
hook saw the fused join-aggregate operator and the gate-table join, so a
hook that records nothing cannot pass.
"""

from __future__ import annotations

import inspect
import sys
from pathlib import Path

import repro.backends.memdb as memdb_package
from repro.backends import MemDBBackend
from repro.backends.memdb import PlanCache
from repro.circuits import ghz_circuit, qaoa_maxcut_circuit, qft_circuit, random_sparse_circuit
from repro.sql import queries

MEMDB_DIR = Path(memdb_package.__file__).parent


def _paper_path() -> None:
    # One private plan cache, cold at the start: what is reached must not
    # depend on which tests warmed the process-wide cache before this one.
    plans = PlanCache()
    circuits = [ghz_circuit(5), qft_circuit(6), random_sparse_circuit(6, 3, seed=5)]
    for mode in ("cte", "materialized"):
        for fuse in (False, True):
            backend = MemDBBackend(mode=mode, fuse=fuse, plan_cache=plans)
            for circuit in circuits:
                backend.run(circuit)
    builders = [
        (queries.probabilities_query, ()),
        (queries.probabilities_query, (3,)),
        (queries.norm_query, ()),
        (queries.row_count_query, ()),
        (queries.marginal_probability_query, (1,)),
        (queries.joint_marginal_query, ([0, 2],)),
        (queries.expectation_z_query, (0,)),
        (queries.amplitude_query, (0,)),
        (queries.state_rows_query, ()),
    ]
    for mode in ("cte", "materialized"):
        backend = MemDBBackend(mode=mode, plan_cache=plans)
        for builder, args in builders:
            backend.execute_analysis_query(ghz_circuit(5), builder, *args)
    executable = MemDBBackend(plan_cache=plans).compile(qaoa_maxcut_circuit(4))
    executable.execute_batch(
        [{"gamma[0]": 0.1 * k, "beta[0]": 0.7 - 0.1 * k} for k in range(4)]
    )


def _record_calls(run) -> set[tuple[str, str]]:
    """``(file name, qualified name)`` of every memdb function ``run`` calls."""
    prefix = str(MEMDB_DIR)
    seen: set[tuple[str, str]] = set()

    def hook(frame, event, _arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(prefix):
                seen.add((code.co_filename, code.co_qualname))

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return seen


def _functions(path: Path) -> list[tuple[int, str]]:
    """``(first line, qualified name)`` of every named function in a source file."""
    found = []
    pending = [compile(path.read_text(), str(path), "exec")]
    while pending:
        code = pending.pop()
        if code.co_flags & inspect.CO_OPTIMIZED and not code.co_name.startswith("<"):
            found.append((code.co_firstlineno, code.co_qualname))
        pending.extend(const for const in code.co_consts if inspect.iscode(const))
    return sorted(found)


def test_paper_path_reach_map():
    seen = _record_calls(_paper_path)

    report = []
    for path in sorted(MEMDB_DIR.rglob("*.py")):
        functions = _functions(path)
        unreached = [(line, name) for line, name in functions if (str(path), name) not in seen]
        report.append(
            f"{path.relative_to(MEMDB_DIR.parent)}: "
            f"{len(unreached)} of {len(functions)} functions unreached"
        )
        report.extend(f"  {line:5d}  {name}" for line, name in unreached)
    print("\n" + "\n".join(report))

    names = {name for _, name in seen}
    assert "_FusedJoinAggregateOp.run" in names
    assert "join_indices" in names

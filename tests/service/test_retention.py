"""What a finished job keeps alive while the service retains its handle.

The server keeps up to ``max_retained_jobs`` finished jobs with their results,
so bytes retained per job — not per-request garbage — set its resident size
under load.  A grid job's results are dominated by the final states: 8 points
x 256 amplitudes are 48 KB as ``(s, r, i)`` columns.  Stored as per-amplitude
Python objects the same job retained 187 KB.
"""

import gc
import tracemalloc

import numpy as np

from repro.circuits import hardware_efficient_ansatz
from repro.obs.tracing import TRACE_ENV_VAR
from repro.service import JobService

_JOBS = 6
_POINTS = 8
_LIMIT_BYTES = 110 * 1024


def test_retained_bytes_per_finished_grid_job_stay_columnar(monkeypatch):
    # The tracer's ring buffer keeps whole span trees until it wraps; this
    # test weighs what the job service retains, not what the tracer does.
    monkeypatch.delenv(TRACE_ENV_VAR, raising=False)
    circuit = hardware_efficient_ansatz(8, reps=1, rotation_gates=("ry",))
    names = sorted(parameter.name for parameter in circuit.parameters)
    rng = np.random.default_rng(3)
    grids = [
        [{name: float(rng.uniform(0.0, 2.0 * np.pi)) for name in names} for _ in range(_POINTS)]
        for _ in range(_JOBS + 2)
    ]
    service = JobService(max_workers=1, max_retained_jobs=4 * _JOBS)
    try:
        for grid in grids[:2]:  # plan cache, engine pool and metric registries are warm
            service.submit(circuit=circuit, method="memdb", param_grid=grid).result(timeout=60)
        gc.collect()
        tracemalloc.start()
        try:
            before, _peak = tracemalloc.get_traced_memory()
            for grid in grids[2:]:
                results = service.submit(
                    circuit=circuit, method="memdb", param_grid=grid
                ).result(timeout=60)
                assert sum(result.state.num_nonzero for result in results) == _POINTS * 256
            del results
            gc.collect()
            after, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(service.jobs()) == _JOBS + 2  # every handle is still retained
        assert (after - before) / _JOBS < _LIMIT_BYTES
    finally:
        service.shutdown(wait=True)

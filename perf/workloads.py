"""The benchmark's seven workloads.

Each workload names one kind of traffic the system serves and is built so
that one module of the program does most of the work (see README.md for the
layer -> end-to-end table).  A workload is driven only through public
functions of ``repro``; engine knobs stay at their defaults.

A workload provides:

* ``setup()`` / ``teardown()`` — construct the method or server and compile;
  the harness times ``setup()`` plus the warm-up ops as ``setup_s``;
* ``settled()`` — whether the caches have reached the state the workload is
  about (the harness runs untimed ops until they have);
* ``items(client)`` — an endless, seeded stream of op inputs (the program
  only ever sees these generated circuits and parameter points);
* ``op(item, client)`` — one op through the path a user calls (timed);
* ``check(item, output)`` — compare the output with the reference
  simulator to 1e-9 and require unit norm (never timed);
* ``traced_op(item, spans)`` — the same op replayed as explicit
  layer-by-layer public calls, one span per layer.
"""

from __future__ import annotations

import http.client
import itertools
import json
import random
import resource
import subprocess
import sys
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.backends.memdb import shared_plan_cache
from repro.backends.memdb_backend import MemDBBackend
from repro.backends.sqlite_backend import SQLiteBackend
from repro.circuits import (
    ghz_expected_amplitudes,
    hardware_efficient_ansatz,
    qaoa_maxcut_circuit,
    qft_on_basis_state,
    random_sparse_circuit,
)
from repro.core.circuit import QuantumCircuit
from repro.io.json_io import circuit_to_dict
from repro.output.result import SparseState
from repro.service.jobs import JobService
from repro.service.server import parse_job_payload
from repro.simulators.statevector import StatevectorSimulator

from spans import SpanRecorder

AMPLITUDE_ATOL = 1e-9
#: Largest register the dense reference comparison is used for.
DENSE_CHECK_QUBITS = 20
#: What the relational backends prune final states at (their default).
PRUNE_ATOL = 1e-12
#: The value ``RelationalBackend`` binds a template's parameters to at compile time.
REPRESENTATIVE_PARAMETER = 0.5


def state_ok(state: SparseState, reference: SparseState) -> bool:
    """Amplitudes equal the reference to 1e-9 and the norm is 1."""
    if state.num_qubits != reference.num_qubits:
        return False
    if state.num_qubits > DENSE_CHECK_QUBITS:
        return abs(state.norm() - 1.0) <= AMPLITUDE_ATOL and state.equiv(
            reference, atol=AMPLITUDE_ATOL, up_to_global_phase=False
        )
    dense = state.to_dense()
    return (
        float(np.max(np.abs(dense - reference.to_dense()))) <= AMPLITUDE_ATOL
        and abs(float(np.linalg.norm(dense)) - 1.0) <= AMPLITUDE_ATOL
    )


def rows_to_state(spans: SpanRecorder, num_qubits: int, rows: list[tuple]) -> SparseState:
    """The output layer: row cast + ``SparseState.from_rows`` + ``pruned``."""
    with spans.span("output.state"):
        cast = [(int(s), float(r), float(i)) for s, r, i in rows]
        return SparseState.from_rows(num_qubits, cast).pruned(PRUNE_ATOL)


def ghz_chain(num_qubits: int, rng: random.Random) -> QuantumCircuit:
    """GHZ preparation whose CX chain visits the qubits in a seeded order.

    The state is GHZ either way (2 amplitudes, ``num_qubits`` gates); the
    seed only changes which circuit the program is handed.
    """
    order = list(range(num_qubits))
    rng.shuffle(order)
    circuit = QuantumCircuit(num_qubits, name=f"ghz_{num_qubits}")
    circuit.h(order[0])
    for control, target in zip(order, order[1:]):
        circuit.cx(control, target)
    return circuit


class Workload:
    """Base: seeded input streams, plan-cache counters, own-process memory."""

    name = ""
    #: Closed-loop clients driving the op (the sandbox has 2 cores).
    clients = 1
    #: Nominal op rate; sizes the fixed-count (exactly repeatable) traced pass.
    traced_ops_per_s = 50.0

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.scratch = scratch
        self.reference = StatevectorSimulator()

    def rng(self, stream: object) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{stream}")

    def setup(self) -> None:
        """Construct and compile, starting cold: the plan cache is process-wide."""
        shared_plan_cache().clear()

    def teardown(self) -> None:
        """Release what ``setup()`` made; the harness calls it before every re-setup."""

    def settled(self) -> bool:
        """False while the program's caches are still filling toward their measured state."""
        return True

    def items(self, client: int) -> Iterator:
        raise NotImplementedError

    def op(self, item, client: int = 0):
        raise NotImplementedError

    def check(self, item, output) -> bool:
        raise NotImplementedError

    def traced_op(self, item, spans: SpanRecorder):
        raise NotImplementedError

    def counters(self) -> dict[str, int]:
        """Cumulative exact counters; the harness reports their change over the traced pass."""
        stats = shared_plan_cache().stats()
        return {
            "memdb.plan_hits": stats["hits"],
            "memdb.plan_misses": stats["misses"],
            "memdb.plan_evictions": stats["evictions"],
        }

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class EngineReplay:
    """One op's path through the memdb engine as explicit public calls.

    Mirrors what ``RelationalBackend`` does between ``compile()`` and the
    returned state — translate, generate SQL text, load the gate tables,
    prepare, execute, cast rows — with a span around each layer.
    """

    def __init__(self, spans: SpanRecorder, backend: MemDBBackend) -> None:
        self.spans = spans
        self.translator = backend.translator()
        # The backend's own engine (it exists once the warm-up ops have run),
        # so the replay uses the plan-cache flavor the real path uses.
        self.db = backend.database

    def bind(self, template: QuantumCircuit, point: dict) -> QuantumCircuit:
        with self.spans.span("circuits.bind"):
            return template.bind_parameters(point)

    def translate(self, circuit: QuantumCircuit):
        with self.spans.span("sql.translate"):
            return self.translator.translate(circuit)

    def texts(self, translation) -> tuple[list[str], str]:
        with self.spans.span("sql.translate"):
            setup = translation.setup_statements()
            query = translation.cte_query(pretty=False)
        self.spans.count("sql.statements", len(setup) + 1)
        return setup, query

    def load(self, setup: list[str]) -> None:
        self.db.clear()
        with self.spans.span("memdb.load"):
            for statement in setup:
                self.db.execute(statement)
        self.spans.count("memdb.load_statements", len(setup))

    def compile(self, translation) -> None:
        """``MemDBBackend._prepare_plans``: prepare the CTE query unless it is cached."""
        setup, query = self.texts(translation)
        with self.spans.span("memdb.plan"):
            cached = self.db.plan_cache.peek_state(query, None, self.db.plan_flavor)
        if cached != "hit":
            self.load(setup)
            with self.spans.span("memdb.plan"):
                self.db.prepare(query)
            self.db.clear()

    def fetch(self, query: str) -> list[tuple]:
        with self.spans.span("memdb.exec"):
            rows = list(self.db.execute(query).rows)
        self.spans.count("memdb.rows_out", len(rows))
        self.db.clear()
        return rows

    def execute(self, translation) -> SparseState:
        """One CTE-mode execution of an already translated circuit."""
        setup, query = self.texts(translation)
        self.load(setup)
        return rows_to_state(self.spans, translation.num_qubits, self.fetch(query))

    def job(self, circuit: QuantumCircuit, points: list[dict] | None) -> list[SparseState]:
        """``compile(circuit)`` once, then bind + execute per point (``run()`` when no points)."""
        if circuit.is_parameterized:
            representative = self.bind(
                circuit, {p.name: REPRESENTATIVE_PARAMETER for p in circuit.parameters}
            )
            self.compile(self.translate(representative))
            return [self.execute(self.translate(self.bind(circuit, point))) for point in points]
        translation = self.translate(circuit)
        self.compile(translation)
        return [self.execute(translation)]


# ------------------------------------------------------------------ sweeps


class SweepQaoa8(Workload):
    """Depth-1 QAOA ring on 8 nodes, compiled once, bound per seeded point."""

    backend_class: type = MemDBBackend
    traced_ops_per_s = 120.0

    def __init__(self, seed: int, scratch: Path) -> None:
        super().__init__(seed, scratch)
        self.template = qaoa_maxcut_circuit(8)
        self.reference_executable = self.reference.compile(self.template)

    def setup(self) -> None:
        super().setup()
        self.backend = self.backend_class()
        self.executable = self.backend.compile(self.template)

    def items(self, client: int) -> Iterator[dict]:
        rng = self.rng(client)
        while True:
            yield {"gamma[0]": rng.uniform(0.0, np.pi), "beta[0]": rng.uniform(0.0, np.pi)}

    def op(self, item, client: int = 0) -> SparseState:
        return self.executable.bind(item).execute().state

    def check(self, item, output) -> bool:
        return state_ok(output, self.reference_executable.bind(item).execute().state)


class SweepQaoa8Memdb(SweepQaoa8):
    name = "sweep_qaoa8_memdb"

    def traced_op(self, item, spans: SpanRecorder) -> SparseState:
        replay = EngineReplay(spans, self.backend)
        with spans.op():
            return replay.execute(replay.translate(replay.bind(self.template, item)))


class SweepQaoa8Sqlite(SweepQaoa8):
    name = "sweep_qaoa8_sqlite"
    backend_class = SQLiteBackend
    traced_ops_per_s = 80.0

    def traced_op(self, item, spans: SpanRecorder) -> SparseState:
        with spans.op():
            with spans.span("circuits.bind"):
                bound = self.template.bind_parameters(item)
            with spans.span("sql.translate"):
                translation = self.backend.translator().translate(bound)
                script = translation.setup_statements()
                script.append(translation.cte_query(pretty=False))
            spans.count("sql.statements", len(script))
            with spans.span("backends.sqlite"):
                rows = self.backend.run_script(script)
            return rows_to_state(spans, translation.num_qubits, rows)


# ------------------------------------------------- one circuit, re-executed


class Reexecuted(Workload):
    """One fixed circuit, compiled once and executed again and again, warm."""

    mode = "cte"
    circuit: QuantumCircuit
    expected: SparseState

    def setup(self) -> None:
        super().setup()
        self.backend = MemDBBackend(mode=self.mode)
        self.executable = self.backend.compile(self.circuit)
        self.translation = None

    def items(self, client: int) -> Iterator[None]:
        return itertools.repeat(None)

    def op(self, item, client: int = 0) -> SparseState:
        return self.executable.bind().execute().state

    def check(self, item, output) -> bool:
        return state_ok(output, self.expected)

    def replay(self, spans: SpanRecorder):
        """The engine replay and the translation ``compile()`` cached (made on first use)."""
        if self.translation is None:
            self.translation = self.backend.translate(self.circuit)
        return EngineReplay(spans, self.backend), self.translation


class DenseQft14Memdb(Reexecuted):
    """QFT of a seeded 14-qubit basis state: 16 384 output rows, 119 gates."""

    name = "dense_qft14_memdb"
    traced_ops_per_s = 16.0

    def __init__(self, seed: int, scratch: Path) -> None:
        super().__init__(seed, scratch)
        # Seven of the fourteen bits set, so every seed has the same gate count.
        index = sum(1 << bit for bit in self.rng("basis").sample(range(14), 7))
        self.circuit = qft_on_basis_state(14, index)
        self.expected = self.reference.run(self.circuit).state

    def traced_op(self, item, spans: SpanRecorder) -> SparseState:
        replay, translation = self.replay(spans)
        with spans.op():
            return replay.execute(translation)


class StepsGhz48Memdb(Reexecuted):
    """GHZ-48 in materialized mode: one CREATE TABLE AS + row count + DROP per gate."""

    name = "steps_ghz48_memdb"
    traced_ops_per_s = 80.0
    mode = "materialized"

    def __init__(self, seed: int, scratch: Path) -> None:
        super().__init__(seed, scratch)
        self.circuit = ghz_chain(48, self.rng("order"))
        # 2^48 amplitudes do not fit a dense reference; the analytic state stands in.
        self.expected = SparseState(48, ghz_expected_amplitudes(48))

    def traced_op(self, item, spans: SpanRecorder) -> SparseState:
        replay, translation = self.replay(spans)
        with spans.op():
            with spans.span("sql.translate"):
                setup = translation.setup_statements()
                steps = translation.materialized_statements()
                final = translation.final_select()
            spans.count("sql.statements", len(setup) + len(steps) + 1)
            replay.load(setup)
            with spans.span("memdb.ddl"):
                for step in steps:
                    replay.db.execute(step["sql"])
                    if step["kind"] == "create":
                        replay.db.row_count(step["table"])
            spans.count("memdb.ddl_statements", len(steps))
            return rows_to_state(spans, translation.num_qubits, replay.fetch(final))


class FreshRandom8Memdb(Workload):
    """Structurally distinct random sparse circuits, each ``run()`` exactly once."""

    name = "fresh_random8_memdb"
    traced_ops_per_s = 40.0
    #: Sized so a cold op is ~15-25 ms here: 18 gates, at most 4 nonzero amplitudes.
    depth = 2

    def setup(self) -> None:
        super().setup()
        # One long-lived backend, whose plan tier (256 entries) the run overflows.
        self.backend = MemDBBackend()

    def settled(self) -> bool:
        # Measured with the plan tier full and evicting; 20 warm-up ops leave
        # it filling, with heap and collector pauses still growing.
        stats = shared_plan_cache().stats()
        return stats["planned"] >= stats["maxsize"]

    def items(self, client: int) -> Iterator[QuantumCircuit]:
        rng = self.rng(client)
        while True:
            yield random_sparse_circuit(8, self.depth, max_branching=2, seed=rng.getrandbits(32))

    def op(self, item, client: int = 0) -> SparseState:
        return self.backend.run(item).state

    def check(self, item, output) -> bool:
        return state_ok(output, self.reference.run(item).state)

    def traced_op(self, item, spans: SpanRecorder) -> SparseState:
        replay = EngineReplay(spans, self.backend)
        with spans.op():
            return replay.job(item, None)[0]


# ------------------------------------------------------------------- HTTP


class ServeHttp(Workload):
    """Two closed-loop clients against a ``build_server`` child process.

    One op is one job: POST /v1/jobs, then drain /v1/jobs/{id}/stream?rows=1
    to its terminal record.  Each client keeps one connection open.
    """

    clients = 2
    circuit: QuantumCircuit

    def __init__(self, seed: int, scratch: Path) -> None:
        super().__init__(seed, scratch)
        self.child: subprocess.Popen | None = None
        self.connections: list[http.client.HTTPConnection] = []
        self.child_peak_kb = 0
        self.children = 0
        self.service: JobService | None = None

    def setup(self) -> None:
        self.children += 1
        journal = self.scratch / f"journal_{self.children}.jsonl"
        self.child = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("serve_child.py")), str(journal)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        announced = self.child.stdout.readline()
        if not announced:
            raise RuntimeError(f"server child exited with {self.child.wait()} before listening")
        port = json.loads(announced)["port"]
        self.connections = [
            http.client.HTTPConnection("127.0.0.1", port, timeout=60.0)
            for _ in range(self.clients)
        ]

    def teardown(self) -> None:
        for connection in self.connections:
            connection.close()
        self.connections = []
        if self.service is not None:
            self.service.shutdown(wait=True)
            self.service = None
        child, self.child = self.child, None
        if child is None:
            return
        try:
            reported, _ = child.communicate(timeout=30.0)  # closes stdin: the child's stop signal
            self.child_peak_kb = json.loads(reported)["ru_maxrss_kb"]
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()

    def peak_rss_mb(self) -> float:
        """Of the server child that served the measured windows (known after teardown)."""
        return self.child_peak_kb / 1024.0

    def payload(self, item) -> dict:
        raise NotImplementedError

    def expected_states(self, item) -> list[SparseState]:
        raise NotImplementedError

    def exchange(self, connection: http.client.HTTPConnection, body: bytes) -> tuple[int, bytes]:
        connection.request(
            "POST", "/v1/jobs", body=body, headers={"Content-Type": "application/json"}
        )
        response = connection.getresponse()
        raw = response.read()
        if response.status != 202:
            return response.status, raw
        job_id = json.loads(raw)["job_id"]
        connection.request("GET", f"/v1/jobs/{job_id}/stream?rows=1")
        response = connection.getresponse()
        return response.status, response.read()

    def op(self, item, client: int = 0) -> tuple[int, bytes]:
        body = json.dumps(self.payload(item)).encode("utf-8")
        return self.exchange(self.connections[client], body)

    def check(self, item, output) -> bool:
        status, raw = output
        if status != 200:
            return False
        *records, terminal = [json.loads(line) for line in raw.decode("utf-8").splitlines()]
        expected = self.expected_states(item)
        if terminal.get("status") != "done" or len(records) != len(expected):
            return False
        return all(
            state_ok(SparseState.from_rows(self.circuit.num_qubits, record["rows"]), reference)
            for record, reference in zip(records, expected)
        )

    def counters(self) -> dict[str, int]:
        counters = super().counters()
        connection = self.connections[0]
        connection.request("GET", "/v1/stats")
        stats = json.loads(connection.getresponse().read())
        counters["server.requests"] = stats["requests_served"]
        counters["server.journal_records"] = stats["service"]["journal"]["records_written"]
        return counters

    def traced_op(self, item, spans: SpanRecorder) -> tuple[int, bytes]:
        if self.service is None:
            # The in-process comparison path: a bare JobService (no HTTP, no
            # admission, no fair scheduler, no journal) and a bare engine.
            self.service = JobService(max_workers=2)
            self.engine = MemDBBackend()
            self.engine.run(self.circuit.bind_parameters(
                {p.name: REPRESENTATIVE_PARAMETER for p in self.circuit.parameters}
            ))
        payload = self.payload(item)
        with spans.op():
            with spans.span("io.json"):
                body = json.dumps(payload).encode("utf-8")
            with spans.span("server.http") as exchange:
                output = self.exchange(self.connections[0], body)
        # The same request again without HTTP, attributed to the exchange it
        # explains: what is left of server.http is HTTP parse/encode,
        # admission, the fair queue, the journal and trace sealing.
        with spans.span("io.json", parent=exchange):
            request = parse_job_payload(json.loads(body))
        with spans.span("service.jobs", parent=exchange) as jobs:
            results = self.service.submit(request).result()
        results = results if isinstance(results, list) else [results]
        with spans.span("io.json", parent=exchange):
            documents = [result.to_dict() for result in results]
            for document in documents:
                json.dumps(document)
        # Rows only: the rest of a result document carries wall times whose
        # digits differ from run to run, and io.bytes has to repeat exactly.
        spans.count("io.bytes", len(body) + sum(len(json.dumps(d["rows"])) for d in documents))
        # And once more on a bare engine: what is left of service.jobs is
        # the job service's own queueing, leasing and bookkeeping.
        with spans.span("engine", parent=jobs):
            EngineReplay(spans, self.engine).job(request.circuit, payload.get("param_grid"))
        return output


class ServeSingleHttp(ServeHttp):
    name = "serve_single_http"
    traced_ops_per_s = 60.0

    def __init__(self, seed: int, scratch: Path) -> None:
        super().__init__(seed, scratch)
        self.circuit = ghz_chain(3, self.rng("order"))
        self.document = circuit_to_dict(self.circuit)
        self.expected = [self.reference.run(self.circuit).state]

    def items(self, client: int) -> Iterator[int]:
        return itertools.count(1)

    def payload(self, item) -> dict:
        return {"circuit": self.document, "method": "memdb", "tenant": "bench", "tag": f"ghz-{item}"}

    def expected_states(self, item) -> list[SparseState]:
        return self.expected


class ServeGridHttp(ServeHttp):
    name = "serve_grid_http"
    traced_ops_per_s = 3.0
    grid_points = 8

    def __init__(self, seed: int, scratch: Path) -> None:
        super().__init__(seed, scratch)
        # 8 qubits x 8 points: 2 048 amplitudes per response, priced well
        # under the default admission ceiling with two jobs in flight.
        self.circuit = hardware_efficient_ansatz(8, reps=1, rotation_gates=("ry",))
        self.document = circuit_to_dict(self.circuit)
        self.parameter_names = sorted(p.name for p in self.circuit.parameters)
        self.reference_executable = self.reference.compile(self.circuit)

    def items(self, client: int) -> Iterator[list[dict]]:
        rng = self.rng(client)
        while True:
            yield [
                {name: rng.uniform(0.0, 2.0 * np.pi) for name in self.parameter_names}
                for _ in range(self.grid_points)
            ]

    def payload(self, item) -> dict:
        return {
            "circuit": self.document,
            "method": "memdb",
            "tenant": "bench",
            "param_grid": item,
        }

    def expected_states(self, item) -> list[SparseState]:
        return [self.reference_executable.bind(point).execute().state for point in item]


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (
        SweepQaoa8Memdb,
        SweepQaoa8Sqlite,
        DenseQft14Memdb,
        FreshRandom8Memdb,
        StepsGhz48Memdb,
        ServeSingleHttp,
        ServeGridHttp,
    )
}

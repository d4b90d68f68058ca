"""Tests for the benchmarking framework (metrics, memory, workloads, runner, sweep, report)."""

import math

import pytest

from repro.backends import SQLiteBackend
from repro.bench import (
    BenchmarkRecord,
    BenchmarkRunner,
    MemoryBudget,
    ParameterSweep,
    STATUS_OK,
    STATUS_OOM,
    capacity_ratio,
    capacity_table,
    default_method_factories,
    fastest_method_summary,
    get_workload,
    grid,
    max_relational_qubits,
    max_statevector_qubits,
    memory_table,
    records_to_rows,
    relational_bytes,
    scaling_plot,
    speedup,
    statevector_bytes,
    time_callable,
    timing_table,
    trace_allocations,
    win_counts,
    workload_names,
    workloads_by_sparsity,
)
from repro.bench.memory import PAPER_MEMORY_LIMIT_BYTES, peak_rss_bytes
from repro.circuits import qaoa_maxcut_circuit, ring_graph, maxcut_expected_value
from repro.errors import BenchmarkError
from repro.simulators import SparseSimulator, StatevectorSimulator


class TestMemoryAccounting:
    def test_statevector_bytes(self):
        assert statevector_bytes(10) == 16 * 1024
        with pytest.raises(BenchmarkError):
            statevector_bytes(0)

    def test_relational_bytes(self):
        assert relational_bytes(2) == 48

    def test_max_statevector_qubits_under_paper_limit(self):
        # 2 GB / 16 bytes = 2^27 amplitudes -> 27 qubits.
        assert max_statevector_qubits(PAPER_MEMORY_LIMIT_BYTES) == 27

    def test_max_relational_qubits_for_ghz_hits_encoding_limit(self):
        assert max_relational_qubits(PAPER_MEMORY_LIMIT_BYTES, lambda n: 2) == 62

    def test_capacity_ratio_shape(self):
        ratio = capacity_ratio(PAPER_MEMORY_LIMIT_BYTES, lambda n: 2)
        assert ratio["relational_max_qubits"] > ratio["statevector_max_qubits"]
        assert ratio["extra_qubits"] == ratio["relational_max_qubits"] - ratio["statevector_max_qubits"]

    def test_budget_helpers(self):
        budget = MemoryBudget.mebibytes(1)
        assert budget.fits_relational(1000)
        assert not budget.fits_statevector(20)
        assert MemoryBudget.paper_limit().limit_bytes == PAPER_MEMORY_LIMIT_BYTES
        with pytest.raises(BenchmarkError):
            MemoryBudget(0)

    def test_physical_memory_probes(self):
        assert peak_rss_bytes() > 0
        with trace_allocations() as report:
            _payload = [0] * 100000
        assert report.peak_bytes > 0


class TestMetrics:
    def test_record_to_dict(self):
        record = BenchmarkRecord("ghz", 4, "sqlite", wall_time_s=0.1, extra={"note": 1})
        row = record.to_dict()
        assert row["workload"] == "ghz"
        assert row["extra_note"] == 1
        assert record.succeeded

    def test_time_callable(self):
        stats = time_callable(lambda: sum(range(1000)), repeats=3, warmup=1)
        assert stats.best <= stats.mean
        assert len(stats.samples) == 3
        assert stats.to_dict()["repeats"] == 3

    def test_time_callable_validation(self):
        with pytest.raises(BenchmarkError):
            time_callable(lambda: None, repeats=0)

    def test_speedup(self):
        baseline = [BenchmarkRecord("ghz", 4, "statevector", wall_time_s=1.0)]
        candidate = [BenchmarkRecord("ghz", 4, "sqlite", wall_time_s=0.5)]
        assert speedup(baseline, candidate)[("ghz", 4)] == pytest.approx(2.0)


class TestWorkloads:
    def test_registry_contains_paper_workloads(self):
        names = workload_names()
        assert {"ghz", "superposition", "parity", "qft"} <= set(names)

    def test_unknown_workload(self):
        with pytest.raises(BenchmarkError):
            get_workload("nonexistent")

    def test_sparsity_classes(self):
        sparse_names = {w.name for w in workloads_by_sparsity("sparse")}
        assert "ghz" in sparse_names and "superposition" not in sparse_names

    def test_peak_rows_model_matches_simulation(self):
        for name in ("ghz", "superposition", "w_state"):
            workload = get_workload(name)
            state = SparseSimulator().run(workload.build(4)).state
            assert state.num_nonzero <= workload.peak_rows(4)

    def test_build(self):
        assert get_workload("ghz").build(5).num_qubits == 5


class TestRunner:
    def test_small_comparison_run(self):
        runner = BenchmarkRunner(
            methods={
                "sqlite": lambda: SQLiteBackend(mode="materialized"),
                "statevector": StatevectorSimulator,
            }
        )
        records = runner.run_workload("ghz", sizes=[3, 4])
        assert len(records) == 4
        assert all(record.status == STATUS_OK for record in records)
        assert all(record.extra.get("matches_reference", True) for record in records)

    def test_oom_is_recorded_not_raised(self):
        runner = BenchmarkRunner(
            methods={
                "statevector": lambda: StatevectorSimulator(max_state_bytes=200),
                "sparse": lambda: SparseSimulator(max_state_bytes=200),
            },
            reference="sparse",
        )
        records = runner.run_workload("ghz", sizes=[6])
        by_method = {record.method: record for record in records}
        assert by_method["statevector"].status == STATUS_OOM
        assert by_method["sparse"].status == STATUS_OK

    def test_max_simulable_qubits_shape(self):
        runner = BenchmarkRunner(
            methods={
                "statevector": lambda: StatevectorSimulator(),
                "sqlite": lambda: SQLiteBackend(mode="materialized"),
            },
            verify=False,
        )
        budget = 16 * (1 << 6)  # room for a 6-qubit dense vector
        best = runner.max_simulable_qubits("ghz", budget, candidate_sizes=[4, 6, 8, 10])
        assert best["sqlite"] > best["statevector"]

    def test_max_simulable_qubits_uses_one_prepared_instance_per_method(self):
        """The capacity sweep routes through compile-bind-execute.

        One method instance per method (not per size), every run via an
        explicit Executable: the factory call count proves the routing, the
        compile counter proves each size compiled exactly once.
        """
        instances = []
        compiles = []

        class CountingSimulator(StatevectorSimulator):
            def compile(self, circuit):
                compiles.append(circuit.num_qubits)
                return super().compile(circuit)

        def factory():
            simulator = CountingSimulator()
            instances.append(simulator)
            return simulator

        runner = BenchmarkRunner(methods={"statevector": factory}, verify=False)
        budget = 16 * (1 << 6)
        best = runner.max_simulable_qubits("ghz", budget, candidate_sizes=[4, 6, 8])
        assert best["statevector"] == 6
        assert len(instances) == 1
        assert sorted(compiles) == [4, 6, 8]
        assert instances[0].max_state_bytes == budget

    def test_empty_methods_rejected(self):
        with pytest.raises(BenchmarkError):
            BenchmarkRunner(methods={})

    def test_default_factories_cover_all_methods(self):
        assert set(default_method_factories()) == {"sqlite", "memdb", "statevector", "sparse", "mps", "dd"}


class TestSweep:
    def test_grid(self):
        points = grid({"gamma": [0.1, 0.2], "beta": [0.3]})
        assert len(points) == 2
        with pytest.raises(BenchmarkError):
            grid({})

    def test_qaoa_sweep_with_observable(self):
        edges = ring_graph(4)

        def family(point):
            return qaoa_maxcut_circuit(4, edges=edges, p=1, gammas=[point["gamma"]], betas=[point["beta"]])

        sweep = ParameterSweep(
            family,
            method_factory=StatevectorSimulator,
            observable=lambda result: maxcut_expected_value(edges, result.state.probabilities()),
        )
        points = grid({"gamma": [0.2, 0.6], "beta": [0.3, 0.9]})
        results = sweep.run(points)
        assert len(results) == 4
        assert all(result.status == "ok" for result in results)
        best = sweep.best_point(results)
        assert best.observable == max(result.observable for result in results)

    def test_sweep_records_errors(self):
        def broken_family(_point):
            raise ValueError("boom")

        def family(point):
            if point["x"] > 0:
                from repro.circuits import ghz_circuit

                return ghz_circuit(2)
            raise BenchmarkError("bad point")

        sweep = ParameterSweep(family, method_factory=StatevectorSimulator)
        results = sweep.run(grid({"x": [-1, 1]}))
        statuses = sorted(result.status for result in results)
        assert statuses == ["error", "ok"]

    def test_sweep_result_to_dict(self):
        sweep_result_fields = ParameterSweep(
            lambda p: get_workload("ghz").build(2), StatevectorSimulator
        ).run([{"n": 2.0}])[0].to_dict()
        assert "param_n" in sweep_result_fields


class TestReport:
    @pytest.fixture
    def records(self):
        return [
            BenchmarkRecord("ghz", 4, "sqlite", wall_time_s=0.2, peak_state_bytes=48, status=STATUS_OK),
            BenchmarkRecord("ghz", 4, "statevector", wall_time_s=0.1, peak_state_bytes=256, status=STATUS_OK),
            BenchmarkRecord("ghz", 6, "sqlite", wall_time_s=0.3, peak_state_bytes=48, status=STATUS_OK),
            BenchmarkRecord("ghz", 6, "statevector", wall_time_s=0.4, peak_state_bytes=1024, status=STATUS_OK),
        ]

    def test_timing_table(self, records):
        table = timing_table(records, "ghz")
        assert "qubits" in table and "sqlite" in table

    def test_memory_table(self, records):
        table = memory_table(records, "ghz")
        assert "1024" in table

    def test_scaling_plot(self, records):
        assert "wall time" in scaling_plot(records, "ghz")

    def test_fastest_and_win_counts(self, records):
        fastest = fastest_method_summary(records)
        assert fastest[("ghz", 4)] == "statevector"
        assert fastest[("ghz", 6)] == "sqlite"
        assert win_counts(records) == {"statevector": 1, "sqlite": 1}

    def test_capacity_table(self):
        table = capacity_table({"sqlite": 40, "statevector": 22}, budget_bytes=1 << 30)
        assert "sqlite" in table and "40" in table

    def test_records_to_rows(self, records):
        rows = records_to_rows(records)
        assert rows[0]["workload"] == "ghz"

    def test_empty_workload_rejected(self, records):
        with pytest.raises(BenchmarkError):
            timing_table(records, "nonexistent")

    def test_engine_stats_table(self):
        from repro.backends import MemDBBackend
        from repro.bench import engine_stats_table
        from repro.circuits import ghz_circuit

        backend = MemDBBackend()
        backend.run(ghz_circuit(3))
        table = engine_stats_table(backend.engine_stats())
        assert "plan_cache" in table and "optimizer" in table
        assert "hits" in table and "enabled" in table

    def test_engine_stats_table_renders_every_counter(self):
        from repro.backends import MemDBBackend
        from repro.backends.memdb.engine import PlanCache
        from repro.bench import engine_stats_table
        from repro.circuits import ghz_circuit
        from repro.obs import flatten_counters

        backend = MemDBBackend(
            plan_cache=PlanCache(maxsize=16),
            enable_parallel=True,
            parallel_workers=2,
            parallel_threshold_rows=0,
            enable_tracing=True,
        )
        backend.run(ghz_circuit(3))
        stats = backend.engine_stats()
        rendered = {
            tuple(cell.strip() for cell in line.split("|")[:2])
            for line in engine_stats_table(stats).splitlines()[2:]
        }
        for name in flatten_counters(stats):
            subsystem, _, counter = name.partition(".")
            assert (subsystem, counter) in rendered, name
        for row in [("parallel", "pool.tasks"), ("adaptive", "decays"), ("tracing", "traces_dropped")]:
            assert row in rendered

    def test_engine_stats_table_rejects_empty(self):
        from repro.bench import engine_stats_table

        with pytest.raises(BenchmarkError):
            engine_stats_table({})


class TestTemplateSweep:
    """ParameterSweep over a parameterized template (compile once, bind per point)."""

    def _template(self):
        return qaoa_maxcut_circuit(4, edges=ring_graph(4), p=1)

    def test_template_sweep_matches_callable_family(self):
        edges = ring_graph(4)
        points = grid({"gamma[0]": [0.2, 0.6], "beta[0]": [0.3, 0.9]})

        template_sweep = ParameterSweep(
            self._template(),
            method_factory=StatevectorSimulator,
            observable=lambda result: maxcut_expected_value(edges, result.state.probabilities()),
        )

        def family(point):
            return qaoa_maxcut_circuit(
                4, edges=edges, p=1, gammas=[point["gamma[0]"]], betas=[point["beta[0]"]]
            )

        callable_sweep = ParameterSweep(
            family,
            method_factory=StatevectorSimulator,
            observable=lambda result: maxcut_expected_value(edges, result.state.probabilities()),
        )
        template_results = template_sweep.run(points)
        callable_results = callable_sweep.run(points)
        assert all(result.status == "ok" for result in template_results)
        for mine, theirs in zip(template_results, callable_results):
            assert mine.observable == pytest.approx(theirs.observable, abs=1e-9)

    def test_template_sweep_without_reuse(self):
        points = grid({"gamma[0]": [0.2, 0.6], "beta[0]": [0.3]})
        sweep = ParameterSweep(
            self._template(), method_factory=StatevectorSimulator, reuse_method=False
        )
        results = sweep.run(points)
        assert [result.status for result in results] == ["ok", "ok"]

    def test_template_sweep_records_bad_points(self):
        points = [{"gamma[0]": 0.2, "beta[0]": 0.3}, {"nonsense": 1.0}]
        sweep = ParameterSweep(self._template(), method_factory=StatevectorSimulator)
        results = sweep.run(points)
        assert [result.status for result in results] == ["ok", "error"]
        assert "nonsense" in results[1].error

    def test_template_sweep_shares_one_executable(self):
        from repro.backends import MemDBBackend
        from repro.backends.memdb.engine import PlanCache

        cache = PlanCache()
        points = grid({"gamma[0]": [0.2, 0.4, 0.6], "beta[0]": [0.3]})
        sweep = ParameterSweep(self._template(), method_factory=lambda: MemDBBackend(plan_cache=cache))
        results = sweep.run(points)
        assert all(result.status == "ok" for result in results)
        # compile() prepared the hot plan once; every point re-bound it.
        stats = cache.stats()
        assert stats["planned"] >= 1
        assert stats["hits"] > 0

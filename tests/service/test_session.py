"""Tests for the end-to-end session facade (E11: Fig. 1 / Fig. 3 walk-through)."""

import json

import pytest

from repro.backends import duckdb_available
from repro.backends.memdb.engine import PlanCache
from repro.circuits import ghz_circuit, qaoa_maxcut_circuit
from repro.errors import QymeraError
from repro.io import dumps_circuit, dumps_qasm
from repro.service import QymeraSession


@pytest.fixture
def session():
    return QymeraSession()


class TestCircuitPanel:
    def test_builder_path(self, session):
        builder = session.circuits.new_builder(3)
        builder.place("h", [0])
        builder.place("cx", [0, 1])
        builder.place("cx", [1, 2])
        name = session.circuits.add_from_builder(builder, "ghz")
        assert name == "ghz"
        assert session.circuits.get("ghz") == ghz_circuit(3)

    def test_code_input_path(self, session):
        session.circuits.add_circuit(ghz_circuit(4), "ghz4")
        assert "ghz4" in session.circuits.names()

    def test_file_input_paths(self, session, tmp_path):
        qasm_path = tmp_path / "ghz.qasm"
        qasm_path.write_text(dumps_qasm(ghz_circuit(3)))
        json_path = tmp_path / "ghz.json"
        json_path.write_text(dumps_circuit(ghz_circuit(3)))
        session.circuits.load_file(qasm_path, "from_qasm")
        session.circuits.load_file(json_path, "from_json")
        assert session.circuits.get("from_qasm").count_ops() == {"h": 1, "cx": 2}
        assert session.circuits.get("from_json").count_ops() == {"h": 1, "cx": 2}
        with pytest.raises(QymeraError):
            session.circuits.load_file(tmp_path / "bogus.txt")

    def test_text_input_paths(self, session):
        session.circuits.load_text("H 0\nCNOT 0 1\n", "quil", "bell_quil")
        session.circuits.load_text(dumps_qasm(ghz_circuit(2)), "qasm", "bell_qasm")
        assert session.circuits.get("bell_quil").size() == 2
        with pytest.raises(QymeraError):
            session.circuits.load_text("H 0", "morse")

    def test_parameterized_family_binding(self, session):
        session.circuits.add_circuit(qaoa_maxcut_circuit(4, p=1), "qaoa")
        described = session.circuits.describe("qaoa")
        assert described["parameters"] == ["beta[0]", "gamma[0]"]
        bound_name = session.circuits.bind("qaoa", {"gamma[0]": 0.4, "beta[0]": 0.3})
        assert not session.circuits.get(bound_name).is_parameterized

    def test_unknown_circuit(self, session):
        with pytest.raises(QymeraError):
            session.circuits.get("missing")


class TestSimulationPanel:
    def test_translate_shows_sql(self, session):
        session.circuits.add_circuit(ghz_circuit(3), "ghz")
        translation = session.simulations.translate("ghz")
        assert "WITH T1 AS" in translation.cte_query()

    def test_run_and_run_all(self, session):
        session.circuits.add_circuit(ghz_circuit(3), "ghz")
        single = session.simulations.run("ghz", "sqlite")
        assert single.state.num_nonzero == 2
        everything = session.simulations.run_all("ghz", methods=["memdb", "statevector", "dd"])
        assert set(everything) == {"memdb", "statevector", "dd"}

    def test_unknown_method(self, session):
        session.circuits.add_circuit(ghz_circuit(2), "ghz")
        with pytest.raises(QymeraError):
            session.simulations.run("ghz", "quantum_annealer")

    def test_benchmark_entry_point(self, session):
        records = session.simulations.benchmark(["ghz"], sizes=[3], methods=["sqlite", "statevector"])
        assert len(records) == 2
        with pytest.raises(QymeraError):
            session.simulations.benchmark(["ghz"], sizes=[3], methods=["fpga"])

    def test_available_methods(self, session):
        methods = session.simulations.available_methods()
        assert {"sqlite", "memdb", "statevector", "sparse", "mps", "dd"} <= set(methods)

    def test_explain_shows_optimizer_plan(self, session):
        session.circuits.add_circuit(ghz_circuit(3), "ghz")
        plan = session.simulations.explain("ghz")
        assert "T1: row bound 2\n  physical: fused join-aggregate" in plan
        assert "plan cache:" in plan
        analyzed = session.simulations.explain("ghz", analyze=True)
        assert "T3: row bound 2, actual rows 2" in analyzed

    def test_engine_stats_exposed(self, session):
        session.circuits.add_circuit(ghz_circuit(3), "ghz")
        session.simulations.run("ghz", "memdb")
        stats = session.simulations.engine_stats()
        assert "plan_cache" in stats and "optimizer" in stats
        assert "hits" in stats["plan_cache"]
        assert set(stats["optimizer"]["counters"]) == {"constant_folds", "ctes_inlined"}
        with pytest.raises(QymeraError):
            session.simulations.engine_stats("statevector")


class TestTranslateDialectRouting:
    def test_known_dialects(self, session):
        session.circuits.add_circuit(ghz_circuit(3), "ghz")
        assert session.simulations.translate("ghz", dialect="sqlite").dialect.name == "sqlite"
        assert session.simulations.translate("ghz", dialect="memdb").dialect.name == "memdb"

    def test_duckdb_routes_to_duckdb_backend(self, session):
        session.circuits.add_circuit(ghz_circuit(3), "ghz")
        if duckdb_available():
            assert session.simulations.translate("ghz", dialect="duckdb").dialect.name == "duckdb"
        else:
            with pytest.raises(QymeraError, match="duckdb"):
                session.simulations.translate("ghz", dialect="duckdb")

    def test_unknown_dialect_raises(self, session):
        """Regression: unknown dialects used to fall through to memdb silently."""
        session.circuits.add_circuit(ghz_circuit(3), "ghz")
        with pytest.raises(QymeraError, match="unknown SQL dialect"):
            session.simulations.translate("ghz", dialect="oracle")


class TestResultOptionsFingerprint:
    def test_runs_with_different_options_do_not_overwrite(self, session):
        """Regression: results were keyed by (circuit, method) only."""
        session.circuits.add_circuit(ghz_circuit(3), "ghz")
        plain = session.simulations.run("ghz", "memdb")
        fused = session.simulations.run("ghz", "memdb", fuse=True)
        assert len(session.simulations.results()) == 2
        assert session.simulations.result("ghz", "memdb", fuse=True) is fused
        assert session.simulations.result("ghz", "memdb") is plain

    def test_unambiguous_lookup_without_options(self, session):
        session.circuits.add_circuit(ghz_circuit(3), "ghz")
        result = session.simulations.run("ghz", "sqlite", fuse=True)
        # Only one stored run for (ghz, sqlite): option-less lookup finds it.
        assert session.simulations.result("ghz", "sqlite") is result

    def test_wrong_options_raise(self, session):
        session.circuits.add_circuit(ghz_circuit(3), "ghz")
        session.simulations.run("ghz", "sqlite")
        with pytest.raises(QymeraError, match="no stored result"):
            session.simulations.result("ghz", "sqlite", fuse=True)

    def test_output_views_accept_run_options(self, session):
        session.circuits.add_circuit(ghz_circuit(3), "ghz")
        session.simulations.run("ghz", "memdb")
        session.simulations.run("ghz", "memdb", fuse=True)
        # Views address a specific run by its options...
        assert "111" in session.output.state_table("ghz", "memdb", fuse=True)
        assert "#" in session.output.probability_histogram("ghz", "memdb", fuse=True)
        assert session.output.entanglement("ghz", "memdb", [0], fuse=True) == pytest.approx(1.0)
        # ...an option-less lookup exactly matches the option-less run...
        assert "111" in session.output.state_table("ghz", "memdb")
        # ...and is only ambiguous when several optioned runs exist with no
        # option-less one.
        session.simulations.run("ghz", "sqlite", fuse=True)
        session.simulations.run("ghz", "sqlite", prune_atol=1e-10)
        with pytest.raises(QymeraError, match="disambiguate"):
            session.output.state_table("ghz", "sqlite")

    def test_performance_table_distinguishes_option_sets(self, session):
        session.circuits.add_circuit(ghz_circuit(3), "ghz")
        session.simulations.run("ghz", "memdb")
        session.simulations.run("ghz", "memdb", fuse=True)
        table = session.output.performance_table("ghz")
        assert "options" in table
        assert "fuse=True" in table
        # Option-less sessions keep the original compact table.
        session.simulations.run("ghz", "sqlite")
        assert "options" not in session.output.performance_table("ghz", methods=["sqlite"])


class TestRunAllOptions:
    def test_per_method_options_are_forwarded(self, session):
        session.circuits.add_circuit(ghz_circuit(3), "ghz")
        results = session.simulations.run_all(
            "ghz",
            methods=["memdb", "statevector"],
            options={"memdb": {"fuse": True}},
        )
        assert set(results) == {"memdb", "statevector"}
        assert results["memdb"].metadata["sql"]["fusion"]["enabled"] is True
        # The fused run was stored under its own fingerprint.
        assert session.simulations.result("ghz", "memdb", fuse=True) is results["memdb"]

    def test_options_for_methods_not_run_raise(self, session):
        session.circuits.add_circuit(ghz_circuit(3), "ghz")
        with pytest.raises(QymeraError, match="will not run"):
            session.simulations.run_all("ghz", methods=["sqlite"], options={"memdb": {"fuse": True}})

    def test_pooled_instances_are_shared_with_run(self, session):
        session.circuits.add_circuit(ghz_circuit(3), "ghz")
        session.simulations.run_all("ghz", methods=["memdb"], options={"memdb": {"fuse": True}})
        pooled = session.simulations._pooled_method("memdb", {"fuse": True})
        assert pooled is session.simulations._method_pool[("memdb", (("fuse", True),))]


class TestPooledMethod:
    def test_pool_reuse_across_run_explain_engine_stats(self, session):
        session.circuits.add_circuit(ghz_circuit(3), "ghz")
        session.simulations.run("ghz", "memdb")
        pooled = session.simulations._pooled_method("memdb", {})
        session.simulations.explain("ghz")
        session.simulations.engine_stats("memdb")
        # All three entry points resolve to the same pooled instance.
        assert session.simulations._pooled_method("memdb", {}) is pooled
        assert len([key for key in session.simulations._method_pool if key[0] == "memdb"]) == 1

    def test_unhashable_options_fall_back_to_fresh_instances(self, session):
        class UnhashableCache(PlanCache):
            __hash__ = None

        options = {"plan_cache": UnhashableCache()}
        first = session.simulations._pooled_method("memdb", options)
        second = session.simulations._pooled_method("memdb", options)
        assert first is not second
        assert not session.simulations._method_pool

    def test_unhashable_options_still_run(self, session):
        class UnhashableCache(PlanCache):
            __hash__ = None

        session.circuits.add_circuit(ghz_circuit(3), "ghz")
        result = session.simulations.run("ghz", "memdb", plan_cache=UnhashableCache())
        assert result.state.num_nonzero == 2

    def test_plan_cache_hits_survive_pooling(self, session):
        """Re-running a circuit on the pooled memdb instance hits cached plans."""
        cache = PlanCache()
        session.circuits.add_circuit(ghz_circuit(4), "ghz4")
        session.simulations.run("ghz4", "memdb", plan_cache=cache)
        planned_after_first = cache.stats()["planned"]
        hits_after_first = cache.stats()["hits"]
        session.simulations.run("ghz4", "memdb", plan_cache=cache)
        stats = cache.stats()
        # Same pooled instance, same SQL texts: the second run compiles no new
        # plans and lands only hits for the hot query.
        assert stats["planned"] == planned_after_first
        assert stats["hits"] > hits_after_first


class TestJobSubmission:
    def test_submit_routes_through_the_job_service(self, session):
        session.circuits.add_circuit(qaoa_maxcut_circuit(4, p=1), "qaoa")
        grid = [{"gamma[0]": 0.2 * k, "beta[0]": 0.3} for k in range(1, 4)]
        handle = session.simulations.submit("qaoa", "memdb", param_grid=grid)
        results = handle.result(timeout=60)
        assert len(results) == 3
        assert handle.poll()["tag"] == "qaoa"
        assert session.jobs.stats()["jobs"]["done"] >= 1
        session.jobs.shutdown()


class TestOutputPanel:
    def test_views_and_exports(self, session, tmp_path):
        session.circuits.add_circuit(ghz_circuit(3), "ghz")
        session.simulations.run("ghz", "sqlite")
        session.simulations.run("ghz", "statevector")

        assert "111" in session.output.state_table("ghz", "sqlite")
        assert "#" in session.output.probability_histogram("ghz", "sqlite")
        assert "mixed" in session.output.bloch_view("ghz", "sqlite", 0)
        assert session.output.entanglement("ghz", "sqlite", [0]) == pytest.approx(1.0)
        assert "sqlite" in session.output.performance_table("ghz")

        histogram_text = session.output.sample_histogram("ghz", "sqlite", shots=256)
        assert "000" in histogram_text or "111" in histogram_text

        csv_path = session.output.export_state_csv("ghz", "sqlite", tmp_path / "state.csv")
        assert csv_path.exists()
        payload = json.loads(session.output.export_result_json("ghz", "sqlite"))
        assert payload["method"] == "sqlite"

        records = session.simulations.benchmark(["ghz"], sizes=[3], methods=["sqlite", "statevector"])
        bench_path = session.output.export_benchmark_csv(records, tmp_path / "bench.csv")
        assert "sqlite" in bench_path.read_text()

    def test_missing_result(self, session):
        session.circuits.add_circuit(ghz_circuit(2), "ghz")
        with pytest.raises(QymeraError):
            session.output.state_table("ghz", "sqlite")


class TestQuickHelpers:
    def test_quick_run_and_final_state(self, session):
        result = session.quick_run(ghz_circuit(3), "memdb")
        assert result.method == "memdb"
        state = session.final_state(ghz_circuit(2), "sqlite")
        assert state.num_nonzero == 2

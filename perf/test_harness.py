"""Self-test of the benchmark harness: ``pytest perf -q`` (not part of tier-1).

Runs the whole suite at ``--scale 0.05`` — once untraced, twice traced — and
checks the records against ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

PERF = Path(__file__).resolve().parent
BENCHMARK = json.loads((PERF.parent / "BENCHMARK.json").read_text())
WORKLOADS = [spec["name"] for spec in BENCHMARK["workloads"]]
IN_PROCESS = [name for name in WORKLOADS if not name.startswith("serve_")]


def suite(out: Path, *flags: str) -> dict:
    finished = subprocess.run(
        [sys.executable, str(PERF / "run.py"), "--scale", "0.05", "--out", str(out), *flags],
        capture_output=True, text=True, timeout=600,
    )
    assert finished.returncode == 0, finished.stdout + finished.stderr
    return json.loads(out.read_text())["workloads"]


@pytest.fixture(scope="module")
def untraced(tmp_path_factory) -> dict:
    return suite(tmp_path_factory.mktemp("perf") / "untraced.json")


@pytest.fixture(scope="module")
def traced(tmp_path_factory) -> tuple[dict, dict]:
    directory = tmp_path_factory.mktemp("perf")
    return (
        suite(directory / "traced_a.json", "--traced"),
        suite(directory / "traced_b.json", "--traced"),
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_reported_with_its_unit(untraced, workload):
    record = untraced[workload]
    assert record["correct"] and record["failed"] == 0 and record["attempted"] >= 1
    assert set(record["metrics"]) == {spec["name"] for spec in BENCHMARK["end_to_end"]}
    for spec in BENCHMARK["end_to_end"]:
        metric = record["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert metric["value"] > 0
    fingerprint = record["fingerprint"]
    assert {"cores", "python", "numpy", "sqlite", "repro_env", "git_commit"} <= set(fingerprint)
    assert record["seed"] == 11


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_per_layer_metric_is_reported_with_its_unit(traced, workload):
    record = traced[0][workload]
    assert record["correct"] and record["failed"] == 0
    assert set(record["metrics"]) == {spec["name"] for spec in BENCHMARK["per_layer"]}
    for spec in BENCHMARK["per_layer"]:
        assert record["metrics"][spec["name"]]["unit"] == spec["unit"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly_for_a_seed(traced, workload):
    first, second = traced[0][workload], traced[1][workload]
    assert first["counts"] and first["counts"] == second["counts"]
    assert first["ops"] == second["ops"]


@pytest.mark.parametrize("workload", IN_PROCESS)
def test_layers_account_for_the_op(traced, workload):
    assert 0.8 <= traced[0][workload]["coverage"] <= 1.2


def test_one_workload_prints_the_result_object_last():
    finished = subprocess.run(
        [sys.executable, str(PERF / "run.py"), "--workload", "steps_ghz48_memdb",
         "--seed", "5", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180,
    )
    assert finished.returncode == 0, finished.stderr
    result = json.loads(finished.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    for spec in BENCHMARK["end_to_end"]:
        assert set(result["metrics"][spec["name"]]) == {"value", "unit"}


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(PERF.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERF, tmp_path / "perf", ignore=shutil.ignore_patterns("results", "__pycache__"))
    finished = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert finished.returncode != 0
    assert finished.stdout.strip() == ""


def test_compare_judges_by_the_bounds():
    spec = {"name": "latency_p50_ms", "better": "lower", "bound": 0.1}
    base = {"value": 10.0, "spread": 0.02}
    assert run.verdict(spec, base, {"value": 10.5, "spread": 0.02}) == "same"
    assert run.verdict(spec, base, {"value": 11.5, "spread": 0.02}) == "worse"
    assert run.verdict(spec, base, {"value": 8.5, "spread": 0.02}) == "better"
    assert run.verdict(spec, base, {"value": 10.5, "spread": 0.2}) == "unresolved"
    higher = {"name": "ops_per_s", "better": "higher", "bound": 0.1}
    assert run.verdict(higher, base, {"value": 8.5, "spread": 0.0}) == "worse"
    setup = {"name": "setup_s", "better": "lower", "bound": 0.25}
    small = {"value": 0.1, "spread": 0.0}
    assert run.verdict(setup, small, {"value": 0.14, "spread": 0.0}) == "same"  # within 0.05 s
    assert run.verdict(setup, small, {"value": 0.16, "spread": 0.0}) == "worse"


def test_compare_of_a_record_with_itself_has_nothing_worse(untraced, tmp_path, capsys):
    # Tiny smoke windows disagree by more than the bounds, so zero the
    # spreads: this checks the table and the exit code, not the machine.
    for record in untraced.values():
        for metric in record["metrics"].values():
            metric["spread"] = 0.0
    path = tmp_path / "record.json"
    path.write_text(json.dumps({"workloads": untraced}))
    assert run.compare(str(path), str(path)) == 0
    table = capsys.readouterr().out
    assert "worse" not in table and "unresolved" not in table
    assert all(name in table for name in WORKLOADS)

"""The repo's benchmark: ``python perf/run.py`` (see README.md beside this file).

* no ``--workload``: run every workload of ``BENCHMARK.json``, each in its own
  fresh subprocess (the plan cache and worker pool are process-wide), print
  every metric by name with its unit, and write one JSON record under
  ``perf/results/``; ``--traced`` does the per-layer pass instead;
* ``--workload NAME --seed N --seconds S --trace 0|1``: one workload in this
  process — the form the benchmark contract drives; the last line printed is
  the result object;
* ``--compare A.json B.json``: judge record B against record A by the bounds
  in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

from checkout import RESULTS, ROOT, use_checkout_source

SCHEMA_VERSION = 1
#: ``setup_s`` may also worsen by this many seconds before it counts (small
#: set-ups are mostly process noise); the relative bound is in BENCHMARK.json.
SETUP_ABSOLUTE_SLACK_S = 0.05


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def record_path(workload: str, trace: int) -> Path:
    return RESULTS / f"{workload}.{'traced' if trace else 'untraced'}.json"


# ------------------------------------------------------------ one workload


def layer_metrics(benchmark: dict, record: dict) -> dict:
    """The declared per-layer metrics, read off a traced record."""
    metrics = {}
    for spec in benchmark["per_layer"]:
        name = spec["name"]
        if name == "trace.coverage":
            value = record["coverage"]
        elif name == "trace.overhead_frac":
            value = record["overhead_frac"]
        elif name.endswith("_ms"):
            value = record["layers"].get(name[: -len("_ms")], {}).get("self_ms", 0.0)
        else:
            value = record["counts"].get(name, 0)
        metrics[name] = {"value": value, "unit": spec["unit"]}
    return metrics


def print_record(benchmark: dict, record: dict) -> None:
    print(
        f"{record['workload']}  seed={record['seed']}  seconds={record['seconds']:g}  "
        f"attempted={record['attempted']}  failed={record['failed']}  "
        f"failed_frac={record['failed_frac']:g}"
    )
    for name, metric in record["metrics"].items():
        line = f"  {name:<24} {metric['value']:>14.6g} {metric['unit']}"
        if "windows" in metric:
            line += f"   spread {metric['spread']:.1%}, best 3 of {len(metric['windows'])}"
        if "samples" in metric:
            line += f"   n={'/'.join(str(n) for n in metric['samples'])} per window"
        print(line)
    if record["trace"]:
        print(f"  untraced p50 {record['untraced_p50_ms']:.4g} ms, "
              f"traced p50 {record['traced_p50_ms']:.4g} ms over {record['ops']} ops each")
        for name, layer in record["layers"].items():
            print(f"  layer {name:<18} spans={layer['count']:<7} "
                  f"self {layer['self_ms']:.4g} ms/op  share {layer['share']:.1%}")
    for message in record["errors"]:
        print("  failed op: " + message.replace("\n", "\n    "))


def run_workload(args: argparse.Namespace) -> int:
    """Measure one workload here and print the contract's result line last."""
    benchmark = load_benchmark()
    if args.workload not in {w["name"] for w in benchmark["workloads"]}:
        sys.exit(f"perf: unknown workload {args.workload!r}")
    use_checkout_source()
    import harness
    from workloads import WORKLOADS

    scratch = RESULTS / f"tmp_{args.workload}_{time.time_ns()}"
    scratch.mkdir(parents=True)
    seconds = args.seconds * args.scale
    try:
        workload = WORKLOADS[args.workload](args.seed, scratch)
        if args.trace:
            record = harness.measure_layers(workload, seconds)
            record["metrics"] = layer_metrics(benchmark, record)
        else:
            record = harness.measure_end_to_end(workload, seconds, smoke=args.scale < 1.0)
            units = {spec["name"]: spec["unit"] for spec in benchmark["end_to_end"]}
            for name, metric in record["metrics"].items():
                metric["unit"] = units[name]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    record.update(
        schema_version=SCHEMA_VERSION,
        workload=args.workload,
        seed=args.seed,
        seconds=seconds,
        trace=args.trace,
        fingerprint=harness.fingerprint(),
    )
    record_path(args.workload, args.trace).write_text(json.dumps(record, indent=1))
    print_record(benchmark, record)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": metric["value"], "unit": metric["unit"]}
            for name, metric in record["metrics"].items()
        },
    }))
    return 0 if record["correct"] else 1


# ---------------------------------------------------------------- the suite


def run_suite(args: argparse.Namespace) -> int:
    """Every workload, each in a fresh subprocess; one record for the lot."""
    benchmark = load_benchmark()
    trace = args.trace
    records = {}
    for spec in benchmark["workloads"]:
        name = spec["name"]
        record_path(name, trace).unlink(missing_ok=True)
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(trace), "--scale", str(args.scale),
        ]
        # The child's last line is for the contract's driver; the lines above
        # it are the human-readable report, passed through as they come.
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        if not record_path(name, trace).exists():
            print(f"{child.stdout}\n{name}: exited with {child.returncode} before writing a record")
            return 1
        print("\n".join(child.stdout.splitlines()[:-1]), flush=True)
        records[name] = json.loads(record_path(name, trace).read_text())
    document = {
        "schema_version": SCHEMA_VERSION,
        "traced": bool(trace),
        "seed": args.seed,
        "scale": args.scale,
        "workloads": records,
    }
    out = Path(args.out) if args.out else RESULTS / f"run_{time.strftime('%Y%m%dT%H%M%S')}{'_traced' if trace else ''}.json"
    out.write_text(json.dumps(document, indent=1))
    failed = [name for name, record in records.items() if not record["correct"]]
    print(f"record: {out}" + (f"   FAILED: {', '.join(failed)}" if failed else ""))
    return 1 if failed else 0


# ------------------------------------------------------------------ compare


def verdict(spec: dict, base: dict, other: dict) -> str:
    """better / same / worse by the metric's bound; unresolved when the windows disagree more."""
    def allowed(value: float) -> float:
        slack = SETUP_ABSOLUTE_SLACK_S if spec["name"] == "setup_s" else 0.0
        return max(spec["bound"] * value, slack)

    if any(run["spread"] * run["value"] > allowed(run["value"]) for run in (base, other)):
        return "unresolved"
    sign = 1.0 if spec["better"] == "lower" else -1.0
    change = sign * (other["value"] - base["value"])  # > 0 is worse
    if change > allowed(base["value"]):
        return "worse"
    return "better" if change < -allowed(base["value"]) else "same"


def compare(path_a: str, path_b: str) -> int:
    """One row per (workload, end-to-end metric): both medians, B/A, verdict."""
    benchmark = load_benchmark()
    base_run = json.loads(Path(path_a).read_text())["workloads"]
    other_run = json.loads(Path(path_b).read_text())["workloads"]
    print(f"A = {path_a}\nB = {path_b}\n")
    print(f"{'workload':<22}{'metric':<18}{'A':>12}{'B':>12}  {'B/A':>7}  verdict")
    bad = 0
    for workload in base_run:
        if workload not in other_run:
            continue
        base, other = base_run[workload], other_run[workload]
        for spec in benchmark["end_to_end"]:
            a, b = base["metrics"][spec["name"]], other["metrics"][spec["name"]]
            outcome = verdict(spec, a, b)
            bad += outcome in ("worse", "unresolved")
            print(f"{workload:<22}{spec['name']:<18}{a['value']:>12.5g}{b['value']:>12.5g}"
                  f"  {b['value'] / a['value']:>6.3f}x  {outcome}")
        # Not a BENCHMARK.json metric (it is 0 on a healthy run, so it has no
        # ratio): any increase in the share of failed ops is worse.
        a, b = base["failed_frac"], other["failed_frac"]
        outcome = "worse" if b > a else "better" if b < a else "same"
        bad += outcome == "worse"
        print(f"{workload:<22}{'failed_frac':<18}{a:>12.5g}{b:>12.5g}  {'':>7}  {outcome}")
    print("\nratios are B/A, base A; bounds from BENCHMARK.json"
          f" (setup_s also gets {SETUP_ABSOLUTE_SLACK_S} s)")
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", help="measure this one workload in this process")
    parser.add_argument("--seed", type=int, default=11, help="workload seed (default 11)")
    parser.add_argument("--seconds", type=float, help="measured seconds per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = the per-layer traced pass instead of the end-to-end one")
    parser.add_argument("--traced", dest="trace", action="store_const", const=1,
                        help="same as --trace 1")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every run by this factor (smoke tests)")
    parser.add_argument("--out", help="suite: where to write the record")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.seconds is None:
        args.seconds = float(load_benchmark()["run_seconds"])
    RESULTS.mkdir(exist_ok=True)
    return run_workload(args) if args.workload else run_suite(args)


if __name__ == "__main__":
    sys.exit(main())

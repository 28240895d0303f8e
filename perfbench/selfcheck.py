#!/usr/bin/env python3
"""Self-check of the benchmark's own code.

    python3 perfbench/selfcheck.py

Builds the benchmark, runs its unit checks (nearest-rank percentile against
hand-computed cases, interval union, result checksum), then runs every
workload named in BENCHMARK.json for one short untraced and one short
traced run and asserts that:
  * the result line has exactly the keys correct/attempted/failed/metrics,
    every query was correct, and none failed;
  * the untraced run reports exactly the end_to_end metrics and the traced
    run exactly the per_layer metrics of BENCHMARK.json, each with the unit
    BENCHMARK.json gives it, and each printed by name with that unit;
  * every ratio or per-query mean prints its base, and every ratio's base
    counts are reported beside it;
  * the traced run's Chrome trace loads as JSON.
Exits non-zero on the first failed check.
"""

import json
import subprocess
import sys
from pathlib import Path

import run

SECONDS = "2"
SEED = "7"

# Each ratio and the metrics it is computed from.
RATIO_BASES = {
    "placement.gpu_op_share": ["placement.gpu_ops", "placement.cpu_ops"],
    "placement.cpu_fallbacks_per_kq": ["placement.gpu_aborts",
                                       "engine.queries"],
    "cache.hit_ratio": ["cache.hits", "cache.misses"],
    "telemetry.trace_overhead_pct": ["telemetry.untraced_qps",
                                     "telemetry.traced_qps"],
}


def fail(message):
    print("selfcheck FAILED: " + message)
    sys.exit(1)


def needs_base(name, unit):
    return (name in RATIO_BASES or unit in ("ratio", "%") or "/" in unit
            or "per_query" in name)


def check_run(workload, trace, expected):
    command = [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload",
               workload, "--seed", SEED, "--seconds", SECONDS, "--trace",
               str(trace)]
    proc = subprocess.run(command, capture_output=True, text=True,
                          timeout=float(SECONDS) + run.RUN_OVERHEAD_S + 10)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        fail(f"{where}: exit code {proc.returncode}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0:
        fail(f"{where}: correct={result['correct']} failed={result['failed']}")
    if result["attempted"] < 1:
        fail(f"{where}: nothing attempted")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        fail(f"{where}: metrics differ from BENCHMARK.json: "
             f"missing {sorted(set(expected) - set(metrics))}, "
             f"extra {sorted(set(metrics) - set(expected))}")
    printed = {}
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) >= 3 and fields[0] in expected:
            printed[fields[0]] = line
    for name, unit in expected.items():
        if metrics[name]["unit"] != unit:
            fail(f"{where}: {name} unit {metrics[name]['unit']} != {unit}")
        if not isinstance(metrics[name]["value"], (int, float)):
            fail(f"{where}: {name} value is not a number")
        line = printed.get(name)
        if line is None or line.split()[2] != unit:
            fail(f"{where}: {name} not printed with unit {unit}: {line!r}")
        if needs_base(name, unit) and "[" not in line:
            fail(f"{where}: {name} printed without its base: {line!r}")
        for base in RATIO_BASES.get(name, []):
            if base not in metrics:
                fail(f"{where}: ratio {name} reported without base {base}")
    return lines


def main():
    if not run.build():
        fail("build failed")
    unit = subprocess.run([str(run.BINARY), "--selftest"], capture_output=True,
                          text=True)
    print(unit.stdout.strip())
    if unit.returncode != 0:
        fail("unit checks")

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    # error_rate is printed for people and travels in attempted/failed;
    # it is not a BENCHMARK.json metric because it reads 0 when correct.
    for workload in [w["name"] for w in spec["workloads"]]:
        lines = check_run(workload, 0, end_to_end)
        if not any(l.split()[:1] == ["error_rate"] for l in lines):
            fail(f"{workload}: error_rate not printed")
        check_run(workload, 1, per_layer)
        trace = run.RESULTS_DIR / f"{workload}-seed{SEED}.trace.json"
        events = json.loads(trace.read_text())["traceEvents"]
        if not events:
            fail(f"{workload}: empty Chrome trace")
        print(f"{workload}: ok ({len(events)} trace events)")
    print("selfcheck: ok")


if __name__ == "__main__":
    main()

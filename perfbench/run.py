#!/usr/bin/env python3
"""Builds and runs the HetDB end-to-end benchmark.

    python3 perfbench/run.py --workload ssb_stream_host --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run from the repository root. The first call configures and builds the
engine and the benchmark in optimized mode under .bench_build/; later calls
rebuild incrementally. `--workload all` runs every workload in turn and
prints each one's metrics. Per-run results (with the host stamp) and, for
--trace 1, the Chrome trace are written to .bench_build/results/.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is non-zero when the build
fails, a query fails, or a result differs from the CPU-only reference.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RESULTS_DIR = ROOT / ".bench_build" / "results"
BINARY = BUILD_DIR / "perfbench"
WORKLOADS = ["ssb_serve_modeled", "ssb_shift_modeled", "ssb_stream_host",
             "ssb_serve_host"]
# A run's time beyond --seconds: three setups, the warm-up pass, and exit.
RUN_OVERHEAD_S = 130


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; returns False on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"engine sources not found under {ROOT / 'src'}")
        return False
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for step in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("benchmark build failed: " + " ".join(step))
            return False
    return BINARY.is_file()


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    if (ROOT / ".git").exists():
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if head.returncode == 0:
            return head.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", BENCH_DIR.name):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "sources-sha256:" + digest.hexdigest()[:16]


def run_workload(workload, args, commit):
    """Runs one workload; echoes its output and returns (exit code, result)."""
    command = [str(BINARY), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", str(RESULTS_DIR), "--commit", commit]
    timeout = args.seconds + RUN_OVERHEAD_S
    try:
        proc = subprocess.run(command, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"{workload}: no result within {timeout:g} s")
        return 1, None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    result = None
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        log(f"{workload}: no result line (exit code {proc.returncode})")
    print("\n".join(lines[:-1] if result is not None else lines), flush=True)
    return proc.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not build():
        return 2
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    commit = source_id()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in workloads:
        code, result = run_workload(workload, args, commit)
        if code != 0 or result is None:
            status = code or 1
            if result is None:
                return status
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            key = name if len(workloads) == 1 else f"{workload}/{name}"
            combined["metrics"][key] = metric
    print(json.dumps(combined), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Repo benchmark: builds atum_perfbench from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

`--workload all` runs the three workloads in turn, each ending in its own
result line.

Run from the repository root. The first run configures and builds
(perfbench/CMakeLists.txt compiles ../src plus the benchmark) into
$CARGO_TARGET_DIR, default .bench_build. The benchmark binary's report goes
to stdout line by line; the last line printed here is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: every end-to-end metric of
BENCHMARK.json with --trace 0, every per-layer metric with --trace 1 (a
layer the workload does not exercise reads 0). A run whose output checks
fail exits non-zero and prints no result.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("bcast_steady", "membership_churn", "pbft_failover")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build():
    """Configures once, then lets the build tool bring the binary up to date."""
    if not (ROOT / "src" / "core" / "atum.h").is_file():
        raise RuntimeError(f"no atum sources under {ROOT / 'src'}; run from a full checkout")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    with open(out / ".perfbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (out / "CMakeCache.txt").is_file():
            subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                            "-DCMAKE_BUILD_TYPE=Release"],
                           check=True, stdout=sys.stderr, stderr=sys.stderr)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out / "atum_perfbench"


def run_binary(binary, workload, seed, seconds, trace, trace_out=None, echo=True):
    """Runs one workload; returns the binary's full report (last stdout line).

    With `echo`, the binary's human-readable lines are passed to stdout.
    """
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    sys.stderr.write(proc.stderr)
    if not lines:
        raise RuntimeError(f"{workload}: no output (exit {proc.returncode})")
    if echo:
        for line in lines[:-1]:
            print(line, flush=True)
    report = json.loads(lines[-1])
    if proc.returncode != 0 or not report.get("correct"):
        raise RuntimeError(f"{workload}: output check failed: {report.get('violation')}")
    return report


def catalog():
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["per_layer"]


def result_line(report, trace):
    end_to_end, per_layer = catalog()
    wanted = per_layer if trace else end_to_end
    metrics = {}
    for m in wanted:
        got = report["metrics"].get(m["name"])
        if got is None:
            if not trace:
                raise RuntimeError(f"end-to-end metric {m['name']} missing")
            got = {"value": 0, "unit": m["unit"]}  # layer not exercised here
        if got["unit"] != m["unit"]:
            raise RuntimeError(f"{m['name']}: unit {got['unit']} != {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return {"correct": True, "attempted": report["attempted"], "failed": report["failed"],
            "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        binary = build()
        for workload in workloads:
            trace_out = None
            if args.trace:
                traces = build_dir() / "traces"
                traces.mkdir(exist_ok=True)
                trace_out = traces / f"{workload}-seed{args.seed}.json"
            report = run_binary(binary, workload, args.seed, args.seconds, args.trace, trace_out)
            line = result_line(report, args.trace)
            if trace_out:
                log(f"perfbench: spans written to {trace_out}")
            print(json.dumps(line), flush=True)
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: {e}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

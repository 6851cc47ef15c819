#!/usr/bin/env python3
"""Self-test of the benchmark: determinism and output checks.

    python3 perfbench/test_determinism.py [--seconds S]

For every workload it makes two traced runs with the same seed and requires
every metric marked deterministic in perfbench/metrics.json (end-to-end and
per-layer), plus the op accounting, to be identical. A third, untraced run
with a held-out seed must pass every output check. It also checks that
metrics.json annotates exactly the metrics BENCHMARK.json names. Exits
non-zero on any failure.
"""

import argparse
import json
import sys

import run

SEED = 101
HELD_OUT_SEED = 202


def load_catalog():
    with open(run.BENCH_DIR / "metrics.json") as f:
        cat = json.load(f)
    with open(run.ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    problems = []
    for kind in ("end_to_end", "per_layer"):
        named = [m["name"] for m in bench[kind]]
        annotated = [m["name"] for m in cat[kind]]
        if named != annotated:
            problems.append(f"{kind}: BENCHMARK.json {named} != metrics.json {annotated}")
    deterministic = {m["name"] for kind in ("end_to_end", "per_layer")
                     for m in cat[kind] if m["deterministic"]}
    return deterministic, problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=3)
    args = ap.parse_args()
    deterministic, problems = load_catalog()
    binary = run.build()
    for workload in run.WORKLOADS:
        try:
            first, second = (run.run_binary(binary, workload, SEED, args.seconds, 1, echo=False)
                             for _ in range(2))
            run.run_binary(binary, workload, HELD_OUT_SEED, args.seconds, 0, echo=False)
        except RuntimeError as e:
            problems.append(str(e))
            continue
        compared, before = 0, len(problems)
        for key in ("attempted", "failed"):
            if first[key] != second[key]:
                problems.append(f"{workload}: {key} {first[key]} != {second[key]}")
        for name, m in first["metrics"].items():
            if name not in deterministic:
                continue
            compared += 1
            other = second["metrics"].get(name, {}).get("value")
            if m["value"] != other:
                problems.append(f"{workload}: {name} {m['value']} != {other}")
        print(f"{workload}: {compared} deterministic metrics compared, "
              f"{len(problems) - before} differ; held-out seed {HELD_OUT_SEED} passed "
              f"its output checks", file=sys.stderr)
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    print("determinism self-test " + ("FAILED" if problems else "passed"), file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Smoke test of the wrebench benchmark: a short mode of every workload.

Run from the repository root:

    python3 wrebench/smoke.py

For each workload in BENCHMARK.json it runs the benchmark untraced once and
traced twice with the same seed, and fails unless
  - every run passes the correctness gate, has no failed or refused
    operation and exits 0,
  - the untraced run prints every end_to_end metric with its unit, and the
    failed-operation share,
  - the traced runs print every per_layer metric with its unit,
  - both traced runs print identical exact counters.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SECONDS = 2
SEED = 7


def run(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "wrebench", "run.py"),
         "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise AssertionError(
            f"{workload} trace={trace}: exit {out.returncode}\n{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    counts = None
    for line in lines:
        if line.startswith('{"counts"'):
            counts = json.loads(line)["counts"]
    return result, counts, lines


def check_metrics(workload, result, expected):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{workload}: result keys {sorted(result)}")
    if result["correct"] is not True:
        raise AssertionError(f"{workload}: correctness gate failed")
    if result["attempted"] < 1:
        raise AssertionError(f"{workload}: nothing attempted")
    if result["failed"] != 0:
        raise AssertionError(
            f"{workload}: {result['failed']} of {result['attempted']} "
            "operations failed")
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in expected}
    if set(got) != set(want):
        raise AssertionError(
            f"{workload}: metrics {sorted(set(got) ^ set(want))} differ")
    for name, unit in want.items():
        if got[name]["unit"] != unit:
            raise AssertionError(f"{workload}: {name} unit {got[name]['unit']}")
        if not isinstance(got[name]["value"], (int, float)):
            raise AssertionError(f"{workload}: {name} is not a number")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)

    for w in (w["name"] for w in bench["workloads"]):
        result, _, lines = run(w, 0)
        check_metrics(w, result, bench["end_to_end"])
        if not any(l.startswith("# failed_op_share ") for l in lines):
            raise AssertionError(f"{w}: failed_op_share not printed")
        first, counts_a, _ = run(w, 1)
        second, counts_b, _ = run(w, 1)
        for r in (first, second):
            check_metrics(w, r, bench["per_layer"])
        if not counts_a or counts_a != counts_b:
            diff = {k: (counts_a.get(k), counts_b.get(k))
                    for k in set(counts_a or {}) | set(counts_b or {})
                    if (counts_a or {}).get(k) != (counts_b or {}).get(k)}
            raise AssertionError(f"{w}: counts differ for one seed: {diff}")
        print(f"ok {w}: {len(result['metrics'])} end-to-end and "
              f"{len(first['metrics'])} per-layer metrics, "
              f"{len(counts_a)} counters repeat", flush=True)
    print("smoke: all workloads passed")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as e:
        print(f"smoke: FAILED: {e}", file=sys.stderr)
        sys.exit(1)

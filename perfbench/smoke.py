#!/usr/bin/env python3
"""Smoke test for the benchmark.

    python3 perfbench/smoke.py

Runs every workload on a tiny world, untraced and traced, through
`perfbench/run.py`, and checks that each run is correct and prints every
metric `BENCHMARK.json` names, finite and with its unit. Exits non-zero on
the first problem.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fail(msg):
    print(f"smoke: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(ROOT, "perfbench", "metrics.json")) as f:
        seed = json.load(f)["seeds"]["default"]

    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in ("0", "1"):
            cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", "2", "--trace", trace, "--smoke"]
            run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            label = f"{workload} --trace {trace}"
            if run.returncode != 0:
                fail(f"{label} exited {run.returncode}")
            lines = run.stdout.strip().splitlines()
            if not lines:
                fail(f"{label} printed nothing")
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{label} result keys {sorted(result)}")
            if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
                fail(f"{label}: correct={result['correct']} failed={result['failed']} "
                     f"attempted={result['attempted']}")
            wanted = bench["end_to_end"] if trace == "0" else bench["per_layer"]
            if set(result["metrics"]) != {m["name"] for m in wanted}:
                fail(f"{label} metric names differ from BENCHMARK.json")
            for m in wanted:
                got = result["metrics"][m["name"]]
                value = got["value"]
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    fail(f"{label} {m['name']} = {value!r}")
                if got["unit"] != m["unit"]:
                    fail(f"{label} {m['name']} unit {got['unit']!r}, expected {m['unit']!r}")
                if trace == "0" and value <= 0:
                    fail(f"{label} end-to-end {m['name']} = {value}, expected > 0")
            print(f"smoke: ok: {label} ({len(wanted)} metrics)")
    print("smoke: all workloads ok")


if __name__ == "__main__":
    main()

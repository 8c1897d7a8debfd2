#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]

Run it from the root of a checkout. It builds `perfbench/` (its own Cargo
package over the workspace crates) into `$CARGO_TARGET_DIR`, or
`.bench_build/` when that is unset, then runs one workload in its own
process. Scratch stores go under `.bench_work/` and are removed afterwards;
a traced run keeps its spans in `.bench_work/traces/`. The last line of
standard output is the run's JSON result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--smoke", action="store_true", help="tiny world, for the smoke test")
    args = parser.parse_args()

    for need in ("Cargo.toml", "crates", "vendor-stubs"):
        if not os.path.exists(os.path.join(ROOT, need)):
            print(f"perfbench: {need} not found; run from a checkout of the repository",
                  file=sys.stderr)
            return 2

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 124
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode

    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    cmd = [os.path.join(target, "release", "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace, "--work-dir", work]
    if args.smoke:
        cmd.append("--smoke")
    try:
        # On timeout, subprocess.run kills the child and waits for it.
        run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} ran past {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 124
    finally:
        traces = os.path.join(ROOT, ".bench_work", "traces")
        if os.path.isdir(work):
            for name in os.listdir(work):
                if name.startswith("trace-"):
                    os.makedirs(traces, exist_ok=True)
                    os.replace(os.path.join(work, name), os.path.join(traces, name))
        shutil.rmtree(work, ignore_errors=True)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run one SOCET benchmark workload; print its result as JSON.

    python3 socet_workload/run.py --workload core_atpg --seed 7 \\
        --seconds 10 --trace 0

Run from the root of a source checkout.  The script configures and builds
socet_workload (CMake, Release) into $CARGO_TARGET_DIR, or .bench_build
when that is unset, runs the workload, passes its report through, and
prints as the last line of stdout one JSON object:

    {"correct": true, "attempted": 6, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics BENCHMARK.json
lists; with --trace 1 they are its per-layer metrics, taken from a traced
pass, and a per-layer metric the workload never exercises reads 0.  The
Chrome trace of that pass is written next to the build.

Exit status: 0 when every correctness check passed, 1 when a check failed
(the result is still printed), 2 without a result when the build, the
run, or the metric list fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_dir):
    subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "socet_workload", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "socet_workload")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"build failed: {error}", file=sys.stderr)
        return 2

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds)]
    if args.trace:
        command += ["--trace", os.path.join(
            build_dir, f"trace_{args.workload}_{args.seed}.json")]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{args.workload} ran past {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 2
    lines = run.stdout.splitlines()
    try:
        if run.returncode not in (0, 1) or not lines:
            raise ValueError(f"socet_workload exited {run.returncode}")
        report = json.loads(lines[-1])
    except ValueError as error:
        print(run.stdout, end="", file=sys.stderr)
        print(error, file=sys.stderr)
        return 2
    print("\n".join(lines[:-1]))

    metrics = {}
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        measured = report["metrics"].get(name)
        if measured is None and not args.trace:
            print(f"{args.workload} did not report {name}", file=sys.stderr)
            return 2
        if measured is not None and measured["unit"] != unit:
            print(f"{name}: unit {measured['unit']}, BENCHMARK.json says "
                  f"{unit}", file=sys.stderr)
            return 2
        metrics[name] = measured or {"value": 0, "unit": unit}

    correct = report["correct"] and run.returncode == 0
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds and runs the repository benchmark (perfbench/README.md).

    python3 perfbench/run.py --workload spja_full --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --selftest

The benchmark is a CMake package of its own (perfbench/CMakeLists.txt) that
compiles the iolap library from ../src in Release mode into
.bench_build/perfbench at the repository root, then runs the `perfbench`
program. The program's standard output is passed through, except its last
line: the JSON result with every metric of the run. Of those, the result
line printed here keeps the ones BENCHMARK.json lists, the end_to_end
metrics with --trace 0 and the per_layer metrics with --trace 1. Exits
non-zero, without a result line, when the sources are missing, the build
fails, the run fails its checks, or a listed metric is missing.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no iolap sources next to perfbench/; run from a full checkout")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = [["cmake", "--build", BUILD, "-j", jobs, "--target", target]]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build step failed: " + " ".join(step))
    return os.path.join(BUILD, target)


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the tests of the benchmark's "
                             "own arithmetic")
    args = parser.parse_args()

    if args.selftest:
        sys.exit(subprocess.run([build("perfbench_test")]).returncode)
    if not args.workload:
        parser.error("--workload is required")

    binary = build("perfbench")
    # Nothing in the environment may change a workload: drop the engine's
    # fault-injection spec and the figure benches' knobs.
    env = {k: v for k, v in os.environ.items()
           if k != "IOLAP_FAILPOINTS" and not k.startswith("IOLAP_BENCH_")}
    trace_file = os.path.join(
        BUILD, "trace-%s-seed%d.jsonl" % (args.workload, args.seed))
    command = [binary, "--workload", args.workload,
               "--seed", str(args.seed % (1 << 64)),
               "--seconds", repr(args.seconds),
               "--trace", str(args.trace), "--trace-file", trace_file]
    # perfbench bounds its own run time from --seconds.
    proc = subprocess.run(command, stdout=subprocess.PIPE, env=env, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if proc.returncode != 0:
        fail("run failed with exit code %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("the run printed no result line")
    declared = declared_metrics(args.trace)
    missing = [name for name in declared if name not in result["metrics"]]
    if missing:
        fail("the run did not report %s" % ", ".join(missing))
    result["metrics"] = {name: result["metrics"][name] for name in declared}
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()

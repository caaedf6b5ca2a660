#!/usr/bin/env python3
"""Builds and runs the CAFC end-to-end benchmark.

Run from the repository root:

  python3 perfbench/run.py --workload serve --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --workload all        # every workload in turn
  python3 perfbench/run.py --test                # the helpers' own tests

The first call configures and builds perfbench/ (a CMake project over the
library sources in src/) in Release under .bench_build/. Each workload runs
in one process of the `perfbench` binary, which prints a human-readable
table and a PERFBENCH_REPORT line. This script passes the table through and
prints, as the last line of standard output, one JSON object with the keys
correct, attempted, failed and metrics: the end_to_end metrics of
BENCHMARK.json with --trace 0, its per_layer metrics with --trace 1. A
per-layer metric a workload does not measure reads 0 and is listed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "run")
REPORT_PREFIX = "PERFBENCH_REPORT "


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(target):
    """Configures (once) and builds `target`; returns the binary path."""
    source = os.path.join(ROOT, "perfbench")
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", source, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            fail("configure failed")
    command = ["cmake", "--build", BUILD_DIR, "--target", target, "-j", jobs]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        fail("build of %s failed" % target)
    return os.path.join(BUILD_DIR, target)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_workload(binary, workload, seed, seconds, trace):
    """Runs one workload; returns its parsed report."""
    work_dir = os.path.join(WORK_DIR, workload)
    os.makedirs(work_dir, exist_ok=True)
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--work-dir", work_dir]
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    report = None
    for line in proc.stdout.splitlines():
        if line.startswith(REPORT_PREFIX):
            report = json.loads(line[len(REPORT_PREFIX):])
        else:
            print(line)
    sys.stdout.flush()
    if proc.returncode != 0 or report is None:
        fail("workload %s exited with code %d" % (workload, proc.returncode))
    return report


def select_metrics(report, declared, per_layer):
    """The declared metrics of one report, in declaration order."""
    metrics = {}
    idle = []
    for spec in declared:
        name = spec["name"]
        got = report["metrics"].get(name)
        if got is None:
            if not per_layer:
                fail("%s did not report %s" % (report["workload"], name))
            idle.append(name)
            metrics[name] = {"value": 0, "unit": spec["unit"]}
            continue
        if got["unit"] != spec["unit"]:
            fail("%s: unit %s, declared %s" % (name, got["unit"],
                                                spec["unit"]))
        metrics[name] = {"value": got["value"], "unit": spec["unit"]}
    if idle:
        print("  not measured on this workload, reported as 0 (idle layer, "
              "or a percentile withheld for too few samples): " +
              ", ".join(idle))
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--test", action="store_true",
                        help="build and run the helpers' tests instead")
    args = parser.parse_args()

    if args.test:
        sys.exit(subprocess.run([build("perfbench_test")]).returncode)

    benchmark = load_benchmark()
    names = [w["name"] for w in benchmark["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    if any(w not in names for w in workloads):
        fail("unknown workload %s (have: %s)" % (args.workload,
                                                 ", ".join(names)))
    seconds = args.seconds or benchmark["run_seconds"]
    declared = benchmark["per_layer" if args.trace else "end_to_end"]
    binary = build("perfbench")

    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        report = run_workload(binary, workload, args.seed, seconds,
                              args.trace)
        metrics = select_metrics(report, declared, args.trace == 1)
        result["correct"] = result["correct"] and report["correct"]
        result["attempted"] += report["attempted"]
        result["failed"] += report["failed"]
        for name, metric in metrics.items():
            key = name if len(workloads) == 1 else workload + "." + name
            result["metrics"][key] = metric
    print(json.dumps(result))


if __name__ == "__main__":
    main()

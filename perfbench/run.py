#!/usr/bin/env python3
"""Builds the kstable benchmark harness from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload serve --seed 1 --seconds 10 --trace 0

The harness (perfbench/kbench.cpp) and the repository's libraries are
compiled in Release mode by perfbench/CMakeLists.txt, in the directory named
by CARGO_TARGET_DIR (default .bench_build, relative to the repository root).
Build output goes to standard error; the last line of standard output is the
harness's JSON result, whose metric names and units must be the ones
BENCHMARK.json lists for the run's --trace. Exits non-zero without printing a
result when the repository sources are missing, the build fails, or the
harness fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("serve", "bulk", "churn")
BUILD_JOBS = max(1, min(4, os.cpu_count() or 1))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or not 0.1 <= args.seconds <= 3600:
        parser.error("--seed must be >= 0 and --seconds in [0.1, 3600]")
    return args


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return path if path.is_absolute() else ROOT / path


def build(out_dir):
    """Configures (once) and builds the kbench target; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"kstable sources not found under {ROOT}")
        return None
    # A configure that failed half-way leaves a cache but no build files.
    if not any((out_dir / name).is_file() for name in ("build.ninja",
                                                       "Makefile")):
        configure = ["cmake", "-S", str(HERE), "-B", str(out_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            log("cmake configure failed")
            return None
    compile_cmd = ["cmake", "--build", str(out_dir), "--target", "kbench",
                   "-j", str(BUILD_JOBS)]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        log("build failed")
        return None
    binary = out_dir / "kbench"
    return binary if binary.is_file() else None


def expected_metrics(trace):
    """(name, unit) pairs BENCHMARK.json lists for this --trace, in order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv):
    args = parse_args(argv)
    try:
        expected = expected_metrics(args.trace)
    except (OSError, ValueError, KeyError, TypeError) as err:
        log(f"cannot read the metric list from BENCHMARK.json: {err}")
        return 3
    binary = build(build_dir())
    if binary is None:
        return 3
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    # The window, its spread-out set-ups, and the input generation before it.
    timeout_s = 2 * args.seconds + 90
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=timeout_s)
    except subprocess.TimeoutExpired:
        log(f"kbench exceeded {timeout_s:g} s")
        return 1
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        log(f"kbench exited with {run.returncode}")
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("kbench printed no JSON result")
        return 1
    if set(result) != RESULT_KEYS:
        log(f"unexpected result keys {sorted(result)}")
        return 1
    printed = [(name, metric.get("unit"))
               for name, metric in result["metrics"].items()]
    if printed != expected:
        missing = [m for m in expected if m not in printed]
        extra = [m for m in printed if m not in expected]
        log("kbench metrics differ from BENCHMARK.json's: missing "
            f"{missing}, not listed {extra}" + ("" if missing or extra
                                                 else ", order differs"))
        return 1
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Build and run the delivery benchmark.

    python3 delivery_bench/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1>
    python3 delivery_bench/run.py --selftest

Run from the root of a checkout. The benchmark and the repository's
libraries are built from source into .bench_build/delivery_bench (an
incremental no-op after the first run); the benchmark then runs one
workload and prints its metrics, ending with one JSON line. Result records
and, for --trace 1, a Chrome trace land in .bench_build/results.
--selftest builds and runs the benchmark's statistics self-tests.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "delivery_bench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "delivery_bench")
RESULTS_DIR = os.path.join(ROOT, ".bench_build", "results")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"delivery_bench: {message}", file=sys.stderr)
    sys.exit(2)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no repository sources under {ROOT}/src; run from a checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_quiet(configure)
    run_quiet(["cmake", "--build", BUILD_DIR, "--target", target, "-j", jobs])
    return os.path.join(BUILD_DIR, target)


def run_quiet(cmd):
    """Runs a build step; its output goes to stderr so stdout stays clean."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"build step failed: {' '.join(cmd)}")


def source_digest():
    """SHA-256 over the repository's src/ tree: identifies the code built
    even where the checkout is not a git repository."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        binary = build("delivery_bench_tests")
        sys.exit(subprocess.run([binary]).returncode)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        fail("--workload, --seed, --seconds and --trace are required")

    binary = build("delivery_bench")
    os.makedirs(RESULTS_DIR, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", RESULTS_DIR, "--git-commit", git_commit(),
           "--source-digest", source_digest()]
    # The service runs with sim_threads = 0, which defers to
    # JHDL_SIM_THREADS before the box's thread count; drop it so a
    # caller's shell cannot change the default under test.
    env = {k: v for k, v in os.environ.items() if k != "JHDL_SIM_THREADS"}
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env)
    try:
        sys.exit(proc.wait(timeout=RUN_TIMEOUT_S))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")


if __name__ == "__main__":
    main()

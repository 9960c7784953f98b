#!/usr/bin/env python3
"""One-command benchmark for the mem2 aligner (see perfbench/README.md).

    python3 perfbench/run.py --workload se151_l3 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a repository checkout.  Before measuring, it builds
the benchmark tool from the checkout's sources (CMake, into
.bench_build/perfbench) and, once per checkout, the workload's index.
Neither step is part of a measured run.  The tool's last stdout line is the
result: {"correct", "attempted", "failed", "metrics"}.  Any failure exits
non-zero; a failed set-up prints no result line.
"""
import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
INDEX_DIR = os.path.join(BUILD, "index")
TRACE_DIR = os.path.join(BUILD, "traces")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[run.py] {msg}", file=sys.stderr, flush=True)


def check(cmd, timeout=None):
    """Run a build step with its output on stderr; raise on failure."""
    subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                   check=True, timeout=timeout)


def prepare(targets, workload=None):
    """Build the tool (and the workload's index) under a checkout-wide lock."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise RuntimeError(f"{ROOT} holds no mem2 sources (CMakeLists.txt, src/); "
                           "run from a full repository checkout")
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(os.cpu_count() or 1)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            check(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
        check(["cmake", "--build", BUILD, "-j", jobs, "--target", *targets])
        if workload:
            check([os.path.join(BUILD, "perfbench"), "index", "--dir", INDEX_DIR,
                   "--workload", workload])


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's own unit tests")
    args = ap.parse_args()

    try:
        if args.self_test:
            prepare(["perfbench_selftest"])
            return subprocess.run([os.path.join(BUILD, "perfbench_selftest")],
                                  cwd=ROOT).returncode
        if not args.workload:
            ap.error("--workload is required")
        prepare(["perfbench"], args.workload)
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        log(f"set-up failed: {e}")
        return 2

    os.makedirs(TRACE_DIR, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench"), "run",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--index-dir", INDEX_DIR]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(TRACE_DIR, f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 3
    # A failed output gate still prints its result line, with correct=false.
    lines = proc.stdout.strip().splitlines()
    if lines:
        print(lines[-1], flush=True)
    return proc.returncode or (0 if lines else 1)


if __name__ == "__main__":
    sys.exit(main())

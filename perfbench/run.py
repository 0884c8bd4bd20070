#!/usr/bin/env python3
"""Builds the benchmark from the checkout's sources and runs one workload.

Usage (from the root of a checkout):

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --selftest

The first form configures and builds perfbench/ (which pulls in the
repository's own CMake tree) into $CARGO_TARGET_DIR, default .bench_build,
then runs the perfbench binary. Its last stdout line is the JSON result;
records and span files go to .bench_out/. Build output goes to stderr, so
stdout carries only the benchmark's own lines.

--selftest builds and runs the unit tests of the benchmark's own logic.

Workloads: fig12_search, query_rows, wire_zipf, profile_churn.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ("fig12_search", "query_rows", "wire_zipf", "profile_churn")
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 880


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr; exits on failure."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace")[-8000:])
        fail("failed: " + " ".join(cmd))


def build(targets):
    for required in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, required)):
            fail("no %s in %s: run from a full checkout" % (required, ROOT))
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        run_logged(["cmake", "-S", BENCH_DIR, "-B", out,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_logged(["cmake", "--build", out, "-j", jobs, "--target"] + targets,
               BUILD_TIMEOUT_S)
    return out


def source_digest():
    """The commit when this is a git checkout, else a hash of the sources."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, timeout=10)
        if head.returncode == 0:
            return head.stdout.decode().strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def run_child(cmd):
    """Runs cmd with stdout passed through; kills it on timeout or when
    this script is terminated, and always waits for it."""
    proc = subprocess.Popen(cmd, cwd=ROOT)

    def terminate(signum, _frame):
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, terminate)
    signal.signal(signal.SIGINT, terminate)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        out = build(["perfbench_test"])
        sys.exit(run_child([os.path.join(out, "perfbench_test")]))
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    out = build(["perfbench"])
    sys.stdout.flush()
    sys.exit(run_child([
        os.path.join(out, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", args.trace,
        "--source-digest", source_digest(),
        "--out-dir", os.path.join(ROOT, ".bench_out"),
    ]))


if __name__ == "__main__":
    main()

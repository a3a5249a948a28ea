#!/usr/bin/env python3
"""End-to-end benchmark of the IMLI reproduction.

Builds the benchmark (e2e_bench/CMakeLists.txt adds the repository's own
build of the library and compiles the benchmark program beside this
file) under .bench_build/ in the source tree, then runs one workload:

  python3 e2e_bench/run.py --workload suite-imm --seed 1 --seconds 20 --trace 0

Workloads: suite-imm, pipeline-d63, sweep-dse, corpus-class (see
BENCHMARK.json).  --trace 1 runs the traced per-layer measurement instead
of the end-to-end one.  The last line of standard output is the result
JSON.

  python3 e2e_bench/run.py --selftest     # build and run the benchmark's tests
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2e_bench")
WORK = os.path.join(BUILD, "work")


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isfile(os.path.join(ROOT, "src", "sim", "suite_runner.hh")):
        fail("no library sources under " + ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", target])
    for step in steps:
        # Build output goes to stderr: stdout's last line is the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(step))
    return os.path.join(BUILD, target)


def revision():
    """git revision when the checkout is a repository, else a hash of the
    sources the benchmark builds from."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True)
            if out.returncode == 0:
                return out.stdout.strip()
        except OSError:
            pass
    digest = hashlib.sha1()
    for top in ("src", "e2e_bench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        tests = build("e2e_bench_tests")
        os.makedirs(WORK, exist_ok=True)
        sys.exit(subprocess.run([tests], cwd=WORK).returncode)
    if args.workload is None:
        fail("--workload is required")
    if args.seed < 0:
        fail("--seed must be non-negative")

    binary = build("e2e_bench")
    os.makedirs(WORK, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--root", ROOT, "--work-dir", WORK,
           "--rev", revision()]
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()

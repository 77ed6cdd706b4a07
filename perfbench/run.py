#!/usr/bin/env python3
"""Build and run the memfp benchmark from the root of a memfp checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <n> --trace <0|1>
    python3 perfbench/run.py --self-test

The first form configures and builds perfbench/ (an optimised build of the
memfp libraries plus the benchmark binary) under $CARGO_TARGET_DIR, default
.bench_build, then runs one workload and passes its exit code through. The
last line it prints is the JSON result. Build output goes to stderr.
--self-test builds and runs the harness unit tests instead.
"""
import os
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def commit_id():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             check=True, timeout=30)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def build(target):
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", target,
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail(f"build step failed: {' '.join(step)}")
    return os.path.join(build_dir, target)


def main(argv):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no memfp sources under {ROOT}/src; run from a memfp checkout root")
    if argv == ["--self-test"]:
        return subprocess.run([build("perfbench_tests")]).returncode
    binary = build("memfp_perfbench")
    sys.stdout.flush()
    return subprocess.run([binary, *argv, "--commit", commit_id()]).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

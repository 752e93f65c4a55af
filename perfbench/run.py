#!/usr/bin/env python3
"""Build and run the orionscan benchmark from a source checkout.

    python3 perfbench/run.py --workload ingest|query|refresh --seed N \
        --seconds S --trace 0|1

Run from the checkout's root. The libraries under src/ and the benchmark
program in perfbench/ are compiled (Release) into $CARGO_TARGET_DIR, or
.bench_build when it is unset; the first run builds, later runs reuse the
build. The program's last stdout line is the JSON result. Build output
goes to stderr. Exits non-zero, without a result, when the sources are
missing, the build fails or the run fails.
"""

import argparse
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["ingest", "query", "refresh"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("orionscan sources not found next to perfbench/ (expected "
             "src/CMakeLists.txt in the checkout)")

    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_root = os.path.join(root, target_dir)
    build_dir = os.path.join(build_root, "perfbench-release")
    work_dir = os.path.join(build_root, "perfbench-work", args.workload)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))

    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", bench_dir, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    build = ["cmake", "--build", build_dir, "--target", "orion_perfbench",
             "-j", jobs]
    if subprocess.run(build, stdout=sys.stderr).returncode != 0:
        fail("build failed")

    sys.stdout.flush()
    command = [os.path.join(build_dir, "orion_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--workdir", work_dir]
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s and was stopped" % RUN_TIMEOUT_S)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()

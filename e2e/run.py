#!/usr/bin/env python3
"""Builds the dimqr end-to-end driver from this checkout and runs one workload.

    python3 e2e/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The library is built from ../src together with the driver, in Release, into
$CARGO_TARGET_DIR (default .bench_build) under the checkout root. Build logs
go to stderr; the driver's report goes to stdout, and its last line is the
JSON result. Extra arguments (e.g. --tiny) are passed to the driver. A
traced run also writes its spans as Chrome trace-event JSON to
<build dir>/traces/<workload>-seed<n>.json.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def build(build_dir):
    configure = ["cmake", "-S", os.path.join(ROOT, "e2e"), "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(build_dir, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    os.makedirs(build_dir, exist_ok=True)
    # Runs started together in one checkout build one after the other.
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        subprocess.run(configure, stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", build_dir, "--target",
                        "dimqr_e2e", "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "dimqr_e2e")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    args, extra = parser.parse_known_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 1
    traces = os.path.join(build_dir, "traces")
    os.makedirs(traces, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", args.seed,
               "--seconds", args.seconds, "--trace", args.trace,
               "--trace-out",
               os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    try:
        return subprocess.run(command + extra, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: driver exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

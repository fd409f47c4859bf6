#!/usr/bin/env python3
"""Build the iawj benchmark from source and run one workload.

Usage, from the root of the repository:

    python3 repobench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: rest-unique, rest-dupe, serve-saturate, serve-paced (see
repobench/README.md). The build goes to $CARGO_TARGET_DIR (default
.bench_build); the traced run writes its spans under
$CARGO_TARGET_DIR/repobench-trace. The last line of standard output is the
JSON result; the exit code is non-zero when the build fails or a result
disagrees with the oracle.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "repobench", "Cargo.toml")],
        stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S,
    )
    if build.returncode != 0:
        print("repobench: build failed", file=sys.stderr)
        return build.returncode or 1
    env["REPOBENCH_GIT_SHA"] = git_sha()
    # glibc raises its mmap threshold after the first large free, so later
    # large allocations come from mmap or from the heap depending on what
    # earlier engine calls freed. Holding it at its initial 128 KiB gives
    # every call the allocator state of a fresh `iawj run` process and
    # removes that history from the run-to-run spread.
    env["MALLOC_MMAP_THRESHOLD_"] = "131072"
    binary = os.path.join(target, "release", "iawj-repobench")
    trace_dir = os.path.join(target, "repobench-trace")
    run = subprocess.run(
        [binary, *sys.argv[1:], "--trace-dir", trace_dir],
        env=env, timeout=RUN_TIMEOUT_S,
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())

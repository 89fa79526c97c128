#!/usr/bin/env python3
"""Build the campaign benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload survey-mem --seed 42 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
and is incremental, so only the first run of a checkout compiles.  Build
output goes to stderr; the benchmark's last stdout line is its JSON result.
Exits non-zero, printing no result, when the build or any correctness check
fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir: str) -> str:
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main() -> int:
    target_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(target_root, "perfbench"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 2
    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    sys.stdout.flush()
    return subprocess.run([binary, *sys.argv[1:], "--workdir", work_dir]).returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds the wrebench harness from source and runs one workload.

Run from the repository root:

    python3 wrebench/run.py --workload point_lookup --seed 1 --seconds 20 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the current
directory; scratch databases and span logs go next to it. Build output goes
to stderr, so the harness's last stdout line (the JSON result) stays last.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_root):
    build_dir = os.path.join(build_root, "wrebench-cmake")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "wrebench", "-j4"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "wrebench")


def commit():
    """HEAD of the repository, or "unknown" outside a git checkout (git is
    not allowed to search the directories above the repository)."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, cwd=ROOT, env=env, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", choices=["0", "1"], required=True)
    args = p.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        exe = build(build_root)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"wrebench: build failed: {e}", file=sys.stderr)
        return 1
    env = dict(os.environ, WREBENCH_COMMIT=commit())
    return subprocess.run(
        [exe, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", args.trace,
         "--work-dir", os.path.join(build_root, "wrebench-data")],
        env=env).returncode


if __name__ == "__main__":
    sys.exit(main())

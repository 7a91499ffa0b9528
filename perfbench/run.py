#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload paper-5k --seed 42 --seconds 20 --trace 0

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
builds against the repository's crates by path. It is built in release
mode into $CARGO_TARGET_DIR (default: .bench_build at the repository
root); build output goes to standard error, so the last line of standard
output is the benchmark's JSON result. `--trace 1` runs the traced binary,
which prints the per-layer metrics instead of the end-to-end ones.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def describe(cmd):
    """First line of a command's output, or 'unknown' if it fails."""
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    lines = out.stdout.strip().splitlines()
    return lines[0] if lines else "unknown"


def commit():
    """HEAD of the repository, when the root is a git checkout of its own."""
    top = describe(["git", "rev-parse", "--show-toplevel"])
    if top == "unknown" or os.path.realpath(top) != os.path.realpath(ROOT):
        return "unknown"
    return describe(["git", "rev-parse", "HEAD"])


def main(argv):
    trace = "0"
    if "--trace" in argv[:-1]:
        trace = argv[argv.index("--trace") + 1]
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    name = "perfbench-traced" if trace == "1" else "perfbench"
    binary = os.path.join(ROOT, target, "release", name)
    env["PERFBENCH_RUSTC"] = describe(["rustc", "--version"])
    env["PERFBENCH_COMMIT"] = commit()
    sys.stdout.flush()
    return subprocess.run([binary] + argv, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

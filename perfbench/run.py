#!/usr/bin/env python3
"""Builds the usnae binaries and the benchmark from source, then runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Cargo builds into $CARGO_TARGET_DIR (default `.bench_build`). The benchmark's
last stdout line is one JSON object; its exit code is this script's exit code.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def cargo_build(env, *args):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", *args]
    # Cargo's own output goes to stderr: stdout is reserved for the result.
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
        sys.exit(1)


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cargo_build(env, "--manifest-path", "Cargo.toml",
                "-p", "usnae-cli", "-p", "usnae-workers", "--bins")
    cargo_build(env, "--manifest-path", "perfbench/Cargo.toml")
    exe = os.path.join(target, "release", "usnae-perfbench")
    sys.exit(subprocess.run([exe, *sys.argv[1:]], cwd=ROOT, env=env).returncode)


if __name__ == "__main__":
    main()

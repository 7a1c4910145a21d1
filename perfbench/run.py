#!/usr/bin/env python3
"""Builds the program and the benchmark harness from source, then runs one
benchmark workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Both builds are release, offline, and go to
$CARGO_TARGET_DIR (default perfbench/target). Scratch files of a run (tile
directories, run records) live under <target dir>/perfbench-work. The last
line of standard output is the result object.
"""
import os
import subprocess
import sys


def build(manifest, *extra):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", manifest, *extra]
    done = subprocess.run(cmd, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed: {' '.join(cmd)}")


def main():
    root = os.getcwd()
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    for needed in ("Cargo.toml", "crates", "scenarios"):
        if not os.path.exists(os.path.join(root, needed)):
            sys.exit(f"perfbench: run from the repository root ({needed} missing)")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                             or os.path.join(bench_dir, "target"))
    os.environ["CARGO_TARGET_DIR"] = target
    build(os.path.join(root, "Cargo.toml"), "-p", "fair-bench", "--bin", "fair-serve")
    build(os.path.join(bench_dir, "Cargo.toml"))
    work = os.path.join(target, "perfbench-work")
    os.makedirs(work, exist_ok=True)
    harness = os.path.join(target, "release", "perfbench")
    args = [harness, *sys.argv[1:],
            "--repo", root,
            "--serve-bin", os.path.join(target, "release", "fair-serve"),
            "--pins", os.path.join(bench_dir, "pins.txt"),
            "--work", work]
    sys.stdout.flush()
    os.chdir(work)
    os.execv(harness, args)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Builds the coordinator and the benchmark from source, then runs one
workload of the serve benchmark (see README.md in this directory).

Run from the root of the repository:

    python3 servebench/run.py --workload mix-hot --seed 1 --seconds 16 --trace 0

Build output goes to stderr; the last line of stdout is the result JSON.
Artefacts go to $CARGO_TARGET_DIR (default: .bench_build).
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("mix-hot", "feedback-replay", "cold-unique")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds within 1..600")

    root = os.getcwd()
    if not (
        os.path.isfile(os.path.join(root, "Cargo.toml"))
        and os.path.isfile(os.path.join(root, "crates", "runtime", "Cargo.toml"))
    ):
        print(
            "servebench: run from the root of the eqasm repository "
            "(no Cargo.toml and crates/runtime here)",
            file=sys.stderr,
        )
        return 2

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = (
        ["cargo", "build", "--release", "--offline", "-p", "eqasm", "--bin", "eqasm-cli"],
        [
            "cargo", "build", "--release", "--offline",
            "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        ],
    )
    for cmd in builds:
        built = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr)
        if built.returncode != 0:
            print("servebench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2

    bench = [
        os.path.join(target, "release", "servebench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--cli", os.path.join(target, "release", "eqasm-cli"),
        "--workdir", os.path.join(target, "servebench-work"),
    ]
    sys.stdout.flush()
    return subprocess.run(bench, cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload <kernel|figures|serve> --seed <n> \
        --seconds <s> --trace <0|1>

Run from the repository root. It builds the `dashlat` binary and the
`perfbench` harness from source (release profile, into
$CARGO_TARGET_DIR or .bench_build), then runs the harness. The last line
of standard output is the JSON result; the exit status is non-zero when
the build fails or any output check fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def cargo(args, target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    # Build chatter goes to stderr: stdout carries only the harness report.
    done = subprocess.run(["cargo", *args], cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"perfbench: cargo {' '.join(args)} failed ({done.returncode})")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["kernel", "figures", "serve"])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    a = p.parse_args()
    if a.seconds < 1 or a.seed < 0:
        sys.exit("perfbench: --seconds must be positive and --seed non-negative")

    for needed in ("Cargo.toml", "Cargo.lock", "crates"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            sys.exit(f"perfbench: {needed} is missing; run from a full checkout of the repository")

    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    cargo(["build", "--release", "--offline", "-p", "dashlat-cli"], target)
    cargo(["build", "--release", "--offline",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")], target)

    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "perfbench"),
        "--workload", a.workload,
        "--seed", str(a.seed),
        "--seconds", str(a.seconds),
        "--trace", a.trace,
        "--work-dir", os.path.join(ROOT, ".bench_work"),
        "--dashlat", os.path.join(release, "dashlat"),
    ]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()

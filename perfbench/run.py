#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the release `vrdag-cli` binary and
the `perfbench` package (into $CARGO_TARGET_DIR, default .bench_build),
then runs one workload; the last line printed is the JSON result.
Workloads and metrics are described in perfbench/README.md.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build(args):
    """Run one offline release build; build output goes to stderr."""
    proc = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet"] + args,
        cwd=ROOT,
        stdout=sys.stderr,
    )
    return proc.returncode == 0


def main():
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or not os.path.isdir(
        os.path.join(ROOT, "crates")
    ):
        print("perfbench: run from a checkout of the repository (no Cargo.toml or crates/ beside perfbench/)", file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target) if not os.path.isabs(target) else target
    os.environ["CARGO_TARGET_DIR"] = target
    if not build(["--manifest-path", "Cargo.toml", "--bin", "vrdag-cli"]):
        print("perfbench: building vrdag-cli failed", file=sys.stderr)
        return 1
    if not build(["--manifest-path", os.path.join("perfbench", "Cargo.toml")]):
        print("perfbench: building perfbench failed", file=sys.stderr)
        return 1
    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "perfbench"),
        *sys.argv[1:],
        "--cli",
        os.path.join(release, "vrdag-cli"),
        "--out",
        os.path.join(ROOT, "perfbench", "out"),
    ]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())

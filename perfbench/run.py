#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <steady|shared|lifecycle|live> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package and the `fuse-node` binary from source in
release mode (into `$CARGO_TARGET_DIR`, default `.bench_build` at the
repository root), then replaces itself with the benchmark binary. Build
output goes to stderr; the last line of stdout is the JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(target: str) -> None:
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for manifest, extra in (
        (os.path.join(HERE, "Cargo.toml"), []),
        (os.path.join(ROOT, "Cargo.toml"), ["-p", "fuse-node"]),
    ):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", manifest] + extra
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"perfbench: build failed: {' '.join(cmd)}")


def main() -> None:
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build(target)
    release = os.path.join(target, "release")
    binary = os.path.join(release, "perfbench")
    args = sys.argv[1:] + ["--node-bin", os.path.join(release, "fuse-node")]
    sys.stdout.flush()
    os.chdir(ROOT)
    os.execv(binary, [binary] + args)


if __name__ == "__main__":
    main()

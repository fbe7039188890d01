#!/usr/bin/env python3
"""Build the benchmark and the `sorrento-node` daemon from source, then run it.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The build goes to $CARGO_TARGET_DIR when
set, else to perfbench/target. Build output goes to stderr; the
benchmark's last stdout line is its JSON result. `--workload all` runs
every workload in turn, each printing its table and result line. The
exit code is the benchmark's (the first non-zero one for `all`), or 1
when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["smallfile-write", "smallfile-read", "largefile"]


def main() -> int:
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    binary = os.path.join(target, "release", "perfbench")
    node = os.path.join(target, "release", "sorrento-node")
    args = sys.argv[1:]
    runs = [args]
    at = args.index("--workload") + 1 if "--workload" in args else len(args)
    if args[at : at + 1] == ["all"]:
        runs = [args[:at] + [w] + args[at + 1 :] for w in WORKLOADS]
    code = 0
    for run in runs:
        bench = subprocess.run([binary, "--node-bin", node] + run)
        code = code or bench.returncode
    return code


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <paper-n14|gossip-n14|batcher-n14> \
        --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR (default perfbench/target) and its
output to stderr. The benchmark runs with two worker threads
(RAYON_NUM_THREADS=2) and two glibc malloc arenas (MALLOC_ARENA_MAX=2): the
vendored rayon spawns fresh workers for every parallel call, and with the
default arena count peak RSS then varies by a quarter from run to run. Its
standard output passes through unchanged; the last line is the JSON result.
A traced run also writes its spans to perfbench/out/spans-<workload>-<seed>.json.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def flag(args, name):
    """The value after `name` in `args`, or None."""
    if name in args:
        i = args.index(name)
        if i + 1 < len(args):
            return args[i + 1]
    return None


def main():
    args = sys.argv[1:]
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    exe = os.path.join(os.path.abspath(target), "release", "perfbench")
    if flag(args, "--trace") == "1" and "--spans" not in args:
        name = "spans-{}-{}.json".format(flag(args, "--workload"), flag(args, "--seed"))
        args += ["--spans", os.path.join(HERE, "out", name)]
    env = dict(os.environ, RAYON_NUM_THREADS="2", MALLOC_ARENA_MAX="2")
    try:
        return subprocess.run([exe] + args, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded {} s".format(RUN_TIMEOUT_S), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

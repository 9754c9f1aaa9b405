#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The Go toolchain's cache, the binary, the input cache, graph files and
span files all go under .bench_build/ at the root. The input for the seed
is generated (or found in the cache) by a separate process first, so the
measured process never pays for generation. The measured process's last
line of output is the result.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
# Generation and the measured run each finish well inside this.
RUN_TIMEOUT_S = 170


def go_env():
    env = dict(os.environ)
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=readonly",
        GOWORK="off",
    )
    return env


def run(cmd, env, timeout, **kw):
    try:
        return subprocess.run(cmd, env=env, timeout=timeout, **kw).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: {cmd[0]} did not finish in {timeout} s", file=sys.stderr)
        return 1


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    env = go_env()
    code = run(["go", "build", "-o", BINARY, "."], env, 900,
               cwd=os.path.join(ROOT, "perfbench"), stdout=sys.stderr)
    if code != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    common = ["-workload", args.workload, "-seed", str(args.seed), "-dir", BUILD]
    code = run([BINARY, "-prepare"] + common, env, RUN_TIMEOUT_S, cwd=ROOT)
    if code != 0:
        return code
    return run([BINARY, "-seconds", str(args.seconds), "-trace", str(args.trace)] + common,
               env, RUN_TIMEOUT_S, cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main())

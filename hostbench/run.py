#!/usr/bin/env python3
"""Build and run hostbench, the host-cost benchmark of the Hive simulator.

Run from the repository root:

    python3 hostbench/run.py --workload pmake --seed 1 --seconds 30 --trace 0
    python3 hostbench/run.py --selftest

hostbench/ is a Go module of its own that replaces `repro` with the
enclosing checkout. It is built from source into .bench_build/ at the
checkout root, with the Go build cache kept there as well, so the run reads
and writes nothing outside the checkout. The last line of standard output
is the benchmark's JSON result; the exit status is the benchmark's (0 ok,
1 a correctness check failed, 2 build or usage error).
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "hostbench", "hostbench")

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def go_env():
    """Environment that keeps every Go cache and config under .bench_build."""
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        GOMODCACHE=os.path.join(BUILD, "gomod"),
        GOPATH=os.path.join(BUILD, "gopath"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOENV="off",
        GOWORK="off",
        GOFLAGS="-mod=readonly",
        GOPROXY="off",
        GOSUMDB="off",
        GOTOOLCHAIN="local",
    )
    return env


def build(env):
    os.makedirs(os.path.dirname(BINARY), exist_ok=True)
    try:
        proc = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=env,
                              stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"hostbench: build failed: {err}", file=sys.stderr)
        return False
    if proc.returncode != 0:
        print("hostbench: build failed", file=sys.stderr)
        return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="pmake", choices=["pmake", "frontend", "campaign"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--selftest", action="store_true",
                    help="run the benchmark's own tests (tiny run of every workload)")
    args = ap.parse_args()

    env = go_env()
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    if args.selftest:
        try:
            return subprocess.run(["go", "test", "-count=1", "-timeout", "600s", "."],
                                  cwd=HERE, env=env, timeout=BUILD_TIMEOUT_S).returncode
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"hostbench: self-test failed: {err}", file=sys.stderr)
            return 2
    if not build(env):
        return 2
    cmd = [BINARY, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace),
           "-out", os.path.join(BUILD, "hostbench", "out")]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"hostbench: run failed: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the eos repository benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload edit_durable --seed 1 --seconds 10 --trace 0

Builds the Go program in this directory against the engine sources one
directory up, with every Go cache kept under .bench_build/, runs it, and
passes its output through.  The last line of standard output is the JSON
summary.  Exits non-zero when the engine sources are missing, the build
fails, or the run fails or disagrees with its oracle.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("edit_durable", "read_fragmented", "ingest_churn")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def engine_present():
    gomod = os.path.join(ROOT, "go.mod")
    if not os.path.isfile(gomod) or not os.path.isfile(os.path.join(ROOT, "eos.go")):
        return False
    with open(gomod) as f:
        return "module github.com/eosdb/eos\n" in f.read()


def go_env(build_dir):
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build_dir, "gocache"),
        GOPATH=os.path.join(build_dir, "gopath"),
        GOMODCACHE=os.path.join(build_dir, "gopath", "pkg", "mod"),
        GOTMPDIR=os.path.join(build_dir, "tmp"),
        GOENV="off",
        GOWORK="off",
        GOFLAGS="",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        CGO_ENABLED="0",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    return env


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not engine_present():
        fail("the eos engine sources (go.mod, eos.go) are not next to %s" % HERE)

    build_dir = os.path.join(ROOT, ".bench_build")
    os.makedirs(build_dir, exist_ok=True)
    env = go_env(build_dir)
    binary = os.path.join(build_dir, "perfbench")
    try:
        build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build: %s" % e)
    if build.returncode != 0:
        fail("build failed")

    cmd = [binary,
           "-workload", args.workload,
           "-seed", str(args.seed),
           "-seconds", str(args.seconds),
           "-trace", str(args.trace),
           "-dir", os.path.join(build_dir, "run")]
    shutil.rmtree(os.path.join(build_dir, "run"), ignore_errors=True)  # left by a killed run
    if args.trace == 1:
        cmd += ["-spans", os.path.join(build_dir, "spans-%s.tsv" % args.workload)]
    sys.stdout.flush()
    try:
        run = subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 1)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Build and run the buscode layered benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paper-sweep|fault-campaign|serve-tcp \
        --seed N --seconds S --trace 0|1

Builds the benchmark crate and `busserved` from source with cargo
(offline, release) into `$CARGO_TARGET_DIR`, default `.bench_build`, then
runs one workload. The last line of standard output is the JSON result;
build output goes to standard error. Exits non-zero without a result when
the build or the run fails.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper-sweep", "fault-campaign", "serve-tcp")
# A run must end within 180 s, the up-to-date build check included.
RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    for cmd in (build, build + ["-p", "buscode-serve", "--bin", "busserved"]):
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2

    cmd = [os.path.join(target, "release", "buscode-perfbench"),
           "--workload", args.workload, "--seed", str(args.seed % 2**64),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--busserved", os.path.join(target, "release", "busserved"),
           "--out", os.path.join(HERE, "out")]
    # A session of its own, so a timeout also stops the busserved child.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

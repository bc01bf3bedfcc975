#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root.  The first call configures and builds the
library and the benchmark (perfbench/CMakeLists.txt) into
.bench_build/perfbench; later calls only rebuild what changed.  Build
output goes to standard error, so the last line of standard output is
the benchmark's JSON result.
A traced run (--trace 1) also writes its spans to
.bench_build/perfbench/trace-<workload>-<seed>.json.  See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")


def run(cmd, **kwargs):
    """Runs cmd to completion.  A SIGTERM or SIGINT to this script is
    passed on to the child; the script waits for the child to end, then
    exits."""
    child = subprocess.Popen(cmd, cwd=ROOT, **kwargs)
    stopped = []

    def stop(signum, _frame):
        # Popen.wait is not reentrant: only signal here, and let the
        # wait below return once the child has ended.
        stopped.append(signum)
        child.terminate()

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    code = child.wait()
    if stopped:
        sys.exit(128 + stopped[0])
    return code


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no library sources under %s/src; run from a "
                 "full checkout of the repository" % ROOT)
    # Keep git (run by the library's CMake for its version string) from
    # searching above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr) != 0:
            sys.exit("perfbench: build step failed: %s" % " ".join(cmd))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    if not args.selftest and not args.workload:
        p.error("--workload is required")
    build()
    if args.selftest:
        cmd = [BINARY, "--selftest"]
    else:
        cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            cmd += ["--trace-out", os.path.join(
                BUILD, "trace-%s-%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    return run(cmd)


if __name__ == "__main__":
    sys.exit(main())

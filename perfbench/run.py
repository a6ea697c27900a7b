#!/usr/bin/env python3
"""One run of the repository benchmark.

    python3 perfbench/run.py --workload cold_match|evolve|corpus_search \
        --seed N --seconds S --trace 0|1 [--tiny]

Run from the root of a source checkout. It builds the library, the shipped
cupid_server and the benchmark driver into .bench_build (Release), then
runs the driver, which starts the server, measures one workload and prints
one JSON result as the last line of stdout. Build output goes to stderr.

Exit codes: 0 on a correct run; 1 when a reply failed the correctness gate
or a request failed or timed out (the JSON line is still printed); 2 when
the build or the arguments fail; 3 when the driver overran its deadline
and was killed (no JSON line).
"""

import argparse
import os
import signal
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
DRIVER = os.path.join(BUILD_DIR, "cupid_perfbench")

# A run must end within 180 s of starting; building counts against a
# separate, longer allowance on the first run in a checkout.
RUN_DEADLINE_S = 170
BUILD_DEADLINE_S = 850


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    for needed in ("CMakeLists.txt", "src", "examples/cupid_server.cpp"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("not a cupid source checkout (missing %s)" % needed)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "cupid_perfbench",
                  "cupid_server", "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=BUILD_DEADLINE_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step %s failed: %s" % (cmd[:2], e))
        if done.returncode != 0:
            fail("build step %s failed" % cmd[:2])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["cold_match", "evolve", "corpus_search"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--tiny", action="store_true",
                        help="smoke sizes (perfbench/test/smoke.py)")
    parser.add_argument("--server-threads", type=int, default=2)
    parser.add_argument("--request-timeout", type=float, default=30.0)
    args = parser.parse_args()

    build()
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--server-threads", str(args.server_threads),
           "--request-timeout", repr(args.request_timeout)]
    if args.tiny:
        cmd.append("--tiny")
    # Own process group, so a timeout takes the spawned server down too.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    started = time.monotonic()
    try:
        code = proc.wait(timeout=RUN_DEADLINE_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("run overran %d s after %.0f s; killed" %
             (RUN_DEADLINE_S, time.monotonic() - started), code=3)
    sys.exit(code)


if __name__ == "__main__":
    main()

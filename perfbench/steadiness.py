#!/usr/bin/env python3
"""Steadiness report: repeat workloads over several seeds and summarise.

    python3 perfbench/steadiness.py [--runs 10] [--seconds S] [--seed-base 1]

Each run is one untraced `perfbench/run.py` invocation of one workload with
its own seed (and, by default, the run length BENCHMARK.json sets); the
three workloads are interleaved (run i of every workload before run i + 1 of
any), so slow drift of the host spreads over all of them. For every metric
it prints the median, the first and third quartiles (Python's
statistics.quantiles, n=4), the quartile spread as a share of the median
(the figure the bounds in BENCHMARK.json are checked against) and the
coefficient of variation, together with the host: CPU count and model,
build type and commit.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ["cold_match", "evolve", "corpus_search"]


def host_info():
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    build_type = "unknown"
    try:
        with open(os.path.join(ROOT, ".bench_build", "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    build_type = line.split("=", 1)[1].strip()
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                                cwd=ROOT, capture_output=True, text=True,
                                timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {"nproc": os.cpu_count(), "cpu": model, "build_type": build_type,
            "commit": commit}


def default_seconds():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return int(json.load(f)["run_seconds"])
    except (OSError, ValueError, KeyError):
        return 12


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit("%s seed %d failed (exit %d)" %
                         (workload, seed, done.returncode))
    return json.loads(lines[-1])


def summarise(values):
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        cv = statistics.stdev(values) / statistics.mean(values) \
            if statistics.mean(values) else 0.0
    else:
        q1 = q3 = median
        cv = 0.0
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "cv": cv}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=default_seconds())
    parser.add_argument("--seed-base", type=int, default=1)
    args = parser.parse_args()

    samples = {w: {} for w in WORKLOADS}
    units = {}
    for i in range(args.runs):
        for w in WORKLOADS:
            result = run_once(w, args.seed_base + i, args.seconds)
            if not result["correct"]:
                raise SystemExit("%s seed %d: incorrect" %
                                 (w, args.seed_base + i))
            for name, m in result["metrics"].items():
                samples[w].setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print("run %d %s done" % (i + 1, w), file=sys.stderr)

    host = host_info()
    print("host: nproc=%s cpu=%s build=%s commit=%s" %
          (host["nproc"], host["cpu"], host["build_type"], host["commit"]))
    print("%d runs per workload, --seconds %d, --trace 0" %
          (args.runs, args.seconds))
    for w in WORKLOADS:
        print("\n%s" % w)
        print("  %-32s %12s %12s %12s %8s %8s" %
              ("metric", "median", "q1", "q3", "iqr/med", "cv"))
        for name, values in samples[w].items():
            s = summarise(values)
            print("  %-32s %12.4f %12.4f %12.4f %7.1f%% %7.1f%%  %s" %
                  (name, s["median"], s["q1"], s["q3"], 100 * s["spread"],
                   100 * s["cv"], units[name]))


if __name__ == "__main__":
    main()

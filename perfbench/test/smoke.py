#!/usr/bin/env python3
"""Smoke test of the benchmark itself, in well under a minute once built.

    python3 perfbench/test/smoke.py

Checks, at tiny sizes (run.py --tiny --seconds 1):
  * every workload, untraced and traced, builds, runs, passes its
    correctness gate and prints exactly the metrics BENCHMARK.json names
    (end_to_end with --trace 0, per_layer with --trace 1); traced, every
    evolve push was incremental and the self-tracing server was measured;
  * the hang guard: corpus_search against `cupid_server --threads 1`, where
    a search waits on sub-tasks queued behind itself, ends with a counted
    timed-out request and a non-zero exit instead of hanging;
  * a directory holding only BENCHMARK.json and perfbench/ (no sources)
    makes run.py fail without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")


def run(args, cwd=ROOT, script=RUN):
    done = subprocess.run([sys.executable, script] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    return done, lines


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        "0": {m["name"] for m in spec["end_to_end"]},
        "1": {m["name"] for m in spec["per_layer"]},
    }
    failures = []

    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in ("0", "1"):
            done, lines = run(["--workload", workload, "--seed", "7",
                               "--seconds", "1", "--trace", trace, "--tiny"])
            label = "%s --trace %s" % (workload, trace)
            if done.returncode != 0 or not lines:
                failures.append("%s exited %d: %s" %
                                (label, done.returncode, done.stderr[-2000:]))
                continue
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append("%s: result keys %s" % (label, sorted(result)))
            if not result["correct"] or result["failed"] != 0:
                failures.append("%s: not correct" % label)
            if set(result["metrics"]) != expected[trace]:
                failures.append("%s: metrics differ from BENCHMARK.json: %s" %
                                (label, sorted(set(result["metrics"]) ^
                                               expected[trace])))
            elif trace == "1":
                values = {k: m["value"] for k, m in result["metrics"].items()}
                if workload == "evolve" and values["incremental.rate"] != 1:
                    failures.append("%s: incremental.rate %r" %
                                    (label, values["incremental.rate"]))
                if values["obs.trace_overhead"] <= 0:
                    failures.append("%s: no self-tracing server latency" %
                                    label)
            print("ok   %s" % label)

    done, lines = run(["--workload", "corpus_search", "--seed", "7",
                       "--seconds", "1", "--trace", "0", "--tiny",
                       "--server-threads", "1", "--request-timeout", "2"])
    result = json.loads(lines[-1]) if lines else {}
    if (done.returncode == 0 or result.get("correct", True) or
            result.get("failed", 0) < 1 or
            not any("timed_out=1" in line for line in lines)):
        failures.append("hang guard: exit %d, output %s" %
                        (done.returncode, lines[-3:]))
    else:
        print("ok   hang guard (--threads 1 search stall counted as timed out)")

    bare = tempfile.mkdtemp(dir=os.path.join(ROOT, ".bench_build"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"))
        done, lines = run(["--workload", "cold_match", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=bare,
                          script=os.path.join(bare, "perfbench", "run.py"))
        if done.returncode == 0 or lines:
            failures.append("bare directory: exit %d, stdout %s" %
                            (done.returncode, lines[-2:]))
        else:
            print("ok   bare directory refused")
    finally:
        shutil.rmtree(bare)

    for f in failures:
        print("FAIL " + f)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()

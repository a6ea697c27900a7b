#!/usr/bin/env python3
"""Runs a google-benchmark binary and checks its equality-guard counters.

Usage: check_bench_counters.py BINARY FILTER COUNTER [COUNTER ...]
                               [-- FILTER COUNTER [COUNTER ...] ...]

Runs BINARY with --benchmark_filter=FILTER and JSON output on stdout, then
exits non-zero unless at least one benchmark ran, none reported an error,
and every named COUNTER is present and exactly 0 on each benchmark that
ran. Further FILTER COUNTER... groups after `--` run BINARY once more each,
for benchmarks of one binary that report different counters.
CMakeLists.txt registers the equality guards through this script as ctest
tests.
"""

import json
import subprocess
import sys


def check(binary, pattern, counters):
    """Runs one filter of BINARY; returns the exit code for its group."""
    run = subprocess.run(
        [binary, f'--benchmark_filter={pattern}', '--benchmark_format=json'],
        stdout=subprocess.PIPE, universal_newlines=True, check=False)
    if run.returncode != 0:
        print(f'{binary} exited with {run.returncode}', file=sys.stderr)
        return 1
    # A filter that matches nothing prints no JSON at all.
    benchmarks = json.loads(run.stdout)['benchmarks'] if run.stdout else []
    if not benchmarks:
        print(f'no benchmark matched {pattern!r}: the guard did not run',
              file=sys.stderr)
        return 1
    failed = False
    for b in benchmarks:
        if b.get('error_occurred'):
            print(f'{b["name"]}: {b.get("error_message")}', file=sys.stderr)
            failed = True
        for counter in counters:
            value = b.get(counter)
            if value != 0:
                print(f'{b["name"]}: {counter} = {value}, want 0',
                      file=sys.stderr)
                failed = True
    if failed:
        return 1
    names = ', '.join(b['name'] for b in benchmarks)
    print(f'{names}: {", ".join(counters)} all 0')
    return 0


def main(argv):
    groups = []
    for arg in argv[2:]:
        if arg == '--' or not groups:
            groups.append([])
        if arg != '--':
            groups[-1].append(arg)
    if len(argv) < 2 or not groups or any(len(g) < 2 for g in groups):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    failed = False
    for pattern, *counters in groups:
        failed = check(argv[1], pattern, counters) != 0 or failed
    return 1 if failed else 0


if __name__ == '__main__':
    sys.exit(main(sys.argv))

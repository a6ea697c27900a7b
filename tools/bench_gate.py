#!/usr/bin/env python3
"""Applies the speed gates of GATES to google-benchmark JSON results.

Usage: bench_gate.py RESULTS_JSON [RESULTS_JSON ...]

For every RESULTS_JSON, runs each gate in GATES whose `results` names that
file (by basename). A gate reads the median real_time over the repetitions
of its `baseline` and `candidate` benchmarks and passes when
baseline / candidate >= `min_ratio`. Exits non-zero if a gate fails, if one
of its benchmarks is missing or reported an error, or if a RESULTS_JSON
has no gate at all.

Timing gates stay out of ctest: on a shared host a loaded moment can fail
them. CI runs them after the benchmark smokes that write the files.
"""

import json
import os
import statistics
import sys

# One row per gate. Bounds live here and nowhere else.
GATES = [
    {
        'name': 'single-edit rematch speedup',
        'results': 'BENCH_incremental.json',
        'baseline': 'BM_ScratchSingleEdit',
        'candidate': 'BM_IncrementalSingleEdit',
        # The warm rematch measures ~3.4x; 2.5x leaves slack for noisy
        # runners while still failing if a gather fast path silently
        # stops engaging.
        'min_ratio': 2.5,
    },
    {
        'name': 'match-service warm over cold',
        'results': 'BENCH_service.json',
        # Both serve 24 requests per iteration: cold runs a one-shot
        # matcher per request, warm repeats them through the result cache.
        'baseline': 'BM_ServiceColdDirect/1/real_time',
        'candidate': 'BM_ServiceWarmRepeated/1/real_time',
        # Locally ~50x; a ratio near 1 means cross-request caching stopped
        # working.
        'min_ratio': 2.0,
    },
    {
        'name': 'corpus search pruned over naive loop',
        'results': 'BENCH_corpus.json',
        'baseline': 'BM_CorpusNaiveLoop/real_time',
        'candidate': 'BM_CorpusSearchPruned/1/real_time',
        # Locally ~7.6x (200 candidates -> 20 full matches); fails if the
        # pre-screen or the shared cache silently stops engaging.
        'min_ratio': 3.0,
    },
    {
        'name': 'tracing overhead on the warm path',
        'results': 'BENCH_trace_overhead.json',
        # The same 24 warm requests per iteration, untraced and traced into
        # a null sink. Traced throughput >= 0.85x untraced; the isolated
        # cost is ~75 ns per request, under 1% of a warm request, so the
        # bound only catches a disabled fast path regressing to always-on
        # formatting or worse.
        'baseline': 'BM_ServiceWarmRepeated/1/real_time',
        'candidate': 'BM_ServiceWarmTraced/1/real_time',
        'min_ratio': 0.85,
    },
]


def median_real_time(benchmarks, name):
    """Median real_time of `name`'s repetitions; None when it did not run."""
    times = []
    for b in benchmarks:
        if b.get('run_type', 'iteration') != 'iteration':
            continue
        if b.get('run_name', b['name']) != name:
            continue
        if b.get('error_occurred'):
            print(f'{name}: {b.get("error_message")}', file=sys.stderr)
            return None
        times.append(b['real_time'])
    return statistics.median(times) if times else None


def check(path):
    """Runs the gates of one results file; returns its exit code."""
    gates = [g for g in GATES if g['results'] == os.path.basename(path)]
    if not gates:
        print(f'{path}: no gate reads this file', file=sys.stderr)
        return 1
    with open(path) as f:
        benchmarks = json.load(f)['benchmarks']
    failed = False
    for gate in gates:
        base = median_real_time(benchmarks, gate['baseline'])
        cand = median_real_time(benchmarks, gate['candidate'])
        if base is None or cand is None:
            print(f'{gate["name"]}: {gate["baseline"]} or '
                  f'{gate["candidate"]} missing from {path}', file=sys.stderr)
            failed = True
            continue
        ratio = base / cand
        ok = ratio >= gate['min_ratio']
        print(f'{gate["name"]}: {ratio:.2f}x '
              f'({"pass" if ok else "FAIL"}, bound {gate["min_ratio"]}x)')
        failed = failed or not ok
    return 1 if failed else 0


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    failed = False
    for path in argv[1:]:
        failed = check(path) != 0 or failed
    return 1 if failed else 0


if __name__ == '__main__':
    sys.exit(main(sys.argv))

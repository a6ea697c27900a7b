#!/usr/bin/env python3
"""Smoke test of cupid_server's JSONL protocol on stdin.

Usage: check_server_smoke.py CUPID_SERVER REPO_ROOT

Drives CUPID_SERVER (--threads 4 --selfcheck --quiet-mappings) through one
script: registers the shipped data/ schemas (paths relative to REPO_ROOT,
where the server runs), a concurrent batch, a repeated match, an edit, a
match, a corpus search, stats and both metrics renderings. The repeated
match follows the batch, not inside it: batch items run concurrently, so
a duplicate item can miss the result cache while its twin is still
matching, and the metrics check needs a certain hit. Exits non-zero
unless every response carries protocol v1 and is ok, every match passed
the server's own direct-match selfcheck, the search ranks the purchase
order first, and the metrics catalog saw the traffic. Then checks that an unknown command comes
back as a structured protocol error. CMakeLists.txt registers it as a ctest
test.
"""

import json
import subprocess
import sys

SCRIPT = '''\
{"cmd":"register","name":"cidx","file":"data/cidx.xml"}
{"cmd":"register","name":"excel","file":"data/excel.xml"}
{"cmd":"register","name":"po","file":"data/po.cupid"}
{"cmd":"register","name":"order","file":"data/purchase_order.cupid"}
{"cmd":"register","name":"rdb","file":"data/rdb.sql"}
{"cmd":"register","name":"star","file":"data/star.sql"}
{"cmd":"batch","requests":[{"source":"cidx","target":"excel"},{"source":"rdb","target":"star"},{"source":"po","target":"order"},{"source":"po","target":"order","use_result_cache":false}]}
{"cmd":"match","source":"cidx","target":"excel"}
{"cmd":"edit","name":"po","op":"rename","path":"PO.POLines.Item.Qty","to":"Quantity"}
{"cmd":"match","source":"po","target":"order"}
{"cmd":"search","source":"po","top_k":3}
{"cmd":"stats"}
{"cmd":"metrics"}
{"cmd":"metrics","format":"prometheus"}
'''


def run_server(argv, stdin, root):
    done = subprocess.run(argv, input=stdin, stdout=subprocess.PIPE,
                          cwd=root, universal_newlines=True, timeout=300)
    print(done.stdout, end='')
    return done.stdout


def check_protocol(out):
    # Every response must carry protocol v1 and be ok, every match
    # response must have passed the server's own direct-match
    # selfcheck, and the corpus search must rank the purchase order
    # (the po schema's true counterpart) first.
    matches = 0
    searches = []
    metrics = []
    for line in out.splitlines():
        r = json.loads(line)
        assert r.get('v') == 1, r
        assert r.get('status') == 'ok', r
        if 'selfcheck' in r:
            assert r['selfcheck'] == 'ok', r
            matches += 1
        if r.get('cmd') == 'search':
            searches.append(r)
        if r.get('cmd') == 'metrics':
            metrics.append(r)
    assert matches == 6, matches
    assert len(searches) == 1, searches
    hits = searches[0]['hits']
    assert len(hits) == 3, hits
    assert hits[0]['target'] == 'order', hits
    # The metrics endpoint: a well-formed v1 JSON catalog whose core
    # counters saw the traffic above, and a Prometheus rendering.
    assert len(metrics) == 2, metrics
    by_name = {m['name']: m for m in metrics[0]['metrics']}
    assert by_name['cupid.service.result_cache.hits']['value'] > 0, by_name
    assert by_name['cupid.service.result_cache.misses']['value'] > 0
    assert by_name['cupid.service.sessions.created']['value'] > 0
    assert by_name['cupid.service.request_ms']['count'] >= 6, by_name
    assert by_name['cupid.corpus.searches']['value'] == 1, by_name
    assert by_name['cupid.scheduler.jobs_submitted']['value'] >= 5
    for m in metrics[0]['metrics']:
        assert m['type'] in ('counter', 'gauge', 'histogram'), m
        if m['type'] == 'histogram':
            assert len(m['buckets']) == len(m['le']) + 1, m
            assert sum(m['buckets']) == m['count'], m
    prom = metrics[1]['text']
    assert '# TYPE cupid_service_request_ms histogram' in prom
    assert 'cupid_service_result_cache_hits' in prom
    print(f'server smoke: {matches} matches selfchecked ok, '
          f"search top-1 = {hits[0]['target']}, "
          f"{len(by_name)} metrics exported")


def check_error_envelope(out):
    # Failures must come back as protocol-versioned structured errors:
    # {"error":{"code":...,"message":...}} with a StatusCode name clients
    # can dispatch on.
    r = json.loads(out.splitlines()[0])
    assert r.get('v') == 1, r
    assert r.get('status') == 'error', r
    assert r['error']['code'] == 'InvalidArgument', r
    assert 'unknown cmd' in r['error']['message'], r
    print('structured error envelope: OK')


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    server, root = argv[1], argv[2]
    check_protocol(run_server(
        [server, '--threads', '4', '--selfcheck', '--quiet-mappings'],
        SCRIPT, root))
    check_error_envelope(run_server([server], '{"cmd":"bogus"}\n', root))
    return 0


if __name__ == '__main__':
    sys.exit(main(sys.argv))

#!/usr/bin/env python3
"""Crash-recovery smoke test of cupid_server's write-ahead log.

Usage: check_recovery_smoke.py CUPID_SERVER REPO_ROOT

Runs CUPID_SERVER (--threads 2 --selfcheck --wal-dir <temp dir>) twice
from REPO_ROOT, where the shipped data/ schemas live. The first run
registers two schemas, edits one and matches them, then is killed with
SIGKILL once the match reply is out: no clean shutdown, no final snapshot,
the WAL is all that is left. The second run, over the same WAL directory,
matches again, edits again and matches once more. Exits non-zero unless
every reply carries protocol v1 and is ok with an ok selfcheck, the
mappings are byte-identical across the SIGKILL, the post-restart edit
re-matches incrementally, the WAL recovered at least 3 records and
durability is not degraded. CMakeLists.txt registers it as a ctest test.
"""

import json
import os
import signal
import subprocess
import sys
import tempfile
import time

BEFORE_KILL = '''\
{"cmd":"register","name":"po","file":"data/po.cupid"}
{"cmd":"register","name":"order","file":"data/purchase_order.cupid"}
{"cmd":"edit","name":"po","op":"rename","path":"PO.POLines.Item.Qty","to":"Quantity"}
{"cmd":"match","source":"po","target":"order"}
'''

AFTER_RESTART = '''\
{"cmd":"match","source":"po","target":"order"}
{"cmd":"edit","name":"po","op":"rename","path":"PO.POLines.Item.Quantity","to":"Count"}
{"cmd":"match","source":"po","target":"order"}
{"cmd":"stats"}
'''


def parse(text):
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def run_until_killed(argv, root, out_path):
    """Feeds BEFORE_KILL, waits for the match reply, then SIGKILLs."""
    with open(out_path, 'w') as out:
        srv = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=out,
                               cwd=root, universal_newlines=True)
    try:
        # stdin stays open: the server must not see EOF and shut down.
        srv.stdin.write(BEFORE_KILL)
        srv.stdin.flush()
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline and srv.poll() is None:
            with open(out_path) as f:
                if 'leaf_mapping' in f.read():
                    break
            time.sleep(0.1)
    finally:
        srv.send_signal(signal.SIGKILL)
        srv.wait()
        srv.stdin.close()
    with open(out_path) as f:
        text = f.read()
    print(text, end='')
    return parse(text)


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    server, root = argv[1], argv[2]
    with tempfile.TemporaryDirectory(prefix='cupid_recovery_') as tmp:
        cmd = [server, '--threads', '2', '--selfcheck', '--wal-dir',
               os.path.join(tmp, 'wal')]
        run1 = run_until_killed(cmd, root, os.path.join(tmp, 'run1.out'))
        done = subprocess.run(cmd, input=AFTER_RESTART, cwd=root,
                              stdout=subprocess.PIPE,
                              universal_newlines=True, timeout=120)
        print(done.stdout, end='')
        run2 = parse(done.stdout)

    for r in run1 + run2:
        assert r.get('v') == 1, r
        assert r.get('status') == 'ok', r
        if 'selfcheck' in r:
            assert r['selfcheck'] == 'ok', r
    pre = [r for r in run1 if 'leaf_mapping' in r]
    post = [r for r in run2 if 'leaf_mapping' in r]
    assert len(pre) == 1 and len(post) == 2, (len(pre), len(post))
    # The SIGKILLed edit survived: the restarted server serves the same
    # schema versions with byte-identical mappings.
    for key in ('source_version', 'target_version', 'leaf_mapping',
                'nonleaf_mapping'):
        assert pre[0][key] == post[0][key], key
    assert pre[0]['source_version'] == 2, pre[0]
    # A post-restart edit re-matches incrementally: the recovered lineage
    # warm-started the session, not a cold rebuild.
    assert post[1]['incremental'] is True, post[1]
    stats = [r for r in run2 if r.get('cmd') == 'stats'][-1]
    assert stats['incremental_rematches'] >= 1, stats
    dur = stats['durability']
    assert dur['degraded'] is False, dur
    assert dur['recovered_records'] >= 3, dur  # 2 registers + 1 edit
    print('recovery smoke: SIGKILLed edits survived; '
          'warm incremental resume OK')
    return 0


if __name__ == '__main__':
    sys.exit(main(sys.argv))

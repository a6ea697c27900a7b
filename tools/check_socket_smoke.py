#!/usr/bin/env python3
"""Smoke test of cupid_server's loopback socket: subscribe, push, drain.

Usage: check_socket_smoke.py CUPID_SERVER

Starts CUPID_SERVER (--listen 0 --threads 2) and drives it with several
clients: register and match on one connection, four subscribers on
others. A schema edit must push a mapping delta to every subscriber,
served by the warm incremental path and bit-identical to a fresh uncached
match. An unsubscribed client must get no further push, and SIGTERM must
drain the server gracefully: a shutdown stats line and exit 0. Exits
non-zero on any failed check. CMakeLists.txt registers it as a ctest test.
"""

import json
import signal
import socket
import subprocess
import sys

# No single reply may take longer than this.
READ_TIMEOUT_S = 30


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    srv = subprocess.Popen([argv[1], '--listen', '0', '--threads', '2'],
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           universal_newlines=True)
    try:
        check(srv)
    finally:
        if srv.poll() is None:
            srv.kill()
            srv.wait()
    return 0


def check(srv):
    listen = json.loads(srv.stdout.readline())
    assert listen['v'] == 1 and listen['cmd'] == 'listen', listen
    port = listen['port']

    def client():
        s = socket.create_connection(('127.0.0.1', port))
        s.settimeout(READ_TIMEOUT_S)
        return s, s.makefile('r')

    def send(s, obj):
        s.sendall((json.dumps(obj) + '\n').encode())

    def reply(r):
        return json.loads(r.readline())

    ctrl, ctrl_r = client()
    send(ctrl, {"cmd": "register", "name": "a", "format": "native",
                "text": "schema A\nnode R\n  leaf Qty decimal\n"
                        "  leaf City string\n"})
    assert reply(ctrl_r)['status'] == 'ok'
    send(ctrl, {"cmd": "register", "name": "b", "format": "native",
                "text": "schema B\nnode R\n  leaf Quantity decimal\n"
                        "  leaf City string\n"})
    assert reply(ctrl_r)['status'] == 'ok'
    send(ctrl, {"cmd": "match", "source": "a", "target": "b",
                "mappings": True})
    assert reply(ctrl_r)['status'] == 'ok'

    subs = [client() for _ in range(4)]
    for s, r in subs:
        send(s, {"cmd": "subscribe", "source": "a", "target": "b"})
        ok = reply(r)
        assert ok['status'] == 'ok' and ok['cmd'] == 'subscribe', ok

    send(ctrl, {"cmd": "edit", "name": "a", "op": "rename",
                "path": "A.R.Qty", "to": "Quantity"})
    assert reply(ctrl_r)['status'] == 'ok'

    send(ctrl, {"cmd": "match", "source": "a", "target": "b",
                "mappings": True, "use_result_cache": False})
    fresh = reply(ctrl_r)
    assert fresh['status'] == 'ok', fresh

    pushes = 0
    for s, r in subs:
        push = reply(r)
        assert push['event'] == 'push', push
        assert push['edited'] == {"name": "a", "version": 2}, push
        # The warm incremental path served this push...
        assert push['response']['incremental'] is True, push
        # ...and its mapping is bit-identical to a fresh match.
        assert push['response']['leaf_mapping'] == fresh['leaf_mapping'], push
        assert push['delta']['added'], push
        pushes += 1
    assert pushes == 4
    print(f'{pushes} pushes delivered, incremental_rate=1, '
          'bit-identical to fresh match')

    # Unsubscribed clients stop receiving.
    s0, r0 = subs[0]
    send(s0, {"cmd": "unsubscribe", "source": "a", "target": "b"})
    assert reply(r0)['status'] == 'ok'
    send(ctrl, {"cmd": "edit", "name": "a", "op": "rename",
                "path": "A.R.Quantity", "to": "Qty"})
    assert reply(ctrl_r)['status'] == 'ok'
    for s, r in subs[1:]:
        assert reply(r)['event'] == 'push'
    s0.settimeout(1.0)
    try:
        data = s0.recv(4096)
        assert not data, f'push after unsubscribe: {data!r}'
    except socket.timeout:
        pass
    print('no push after unsubscribe: OK')

    srv.send_signal(signal.SIGTERM)
    shutdown = json.loads(srv.stdout.readline())
    assert shutdown['cmd'] == 'shutdown', shutdown
    assert srv.wait(timeout=10) == 0
    print('graceful drain on SIGTERM: OK')


if __name__ == '__main__':
    sys.exit(main(sys.argv))

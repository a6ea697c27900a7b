#!/usr/bin/env python3
"""Checks that cupid_server in stdin mode shuts down promptly on SIGTERM.

Usage: check_stdin_shutdown.py CUPID_SERVER

Starts CUPID_SERVER reading requests from stdin, lets it settle into its
idle read, sends SIGTERM and exits non-zero unless the server prints its
shutdown stats line ("cmd":"shutdown"), exits 0, and does both within 1 s
of the signal. A regression guard for a SIGTERM that arrives while the
stdin driver is blocked waiting for input: it must not hang until the next
line arrives. CMakeLists.txt registers it as a ctest test.
"""

import signal
import subprocess
import sys
import time


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    srv = subprocess.Popen([argv[1]], stdin=subprocess.PIPE,
                           stdout=subprocess.PIPE, universal_newlines=True)
    time.sleep(0.3)  # let it settle into the blocked idle read
    t0 = time.monotonic()
    srv.send_signal(signal.SIGTERM)
    try:
        out, _ = srv.communicate(timeout=5)
    except subprocess.TimeoutExpired:
        srv.kill()
        srv.communicate()
        print('no shutdown within 5 s of SIGTERM', file=sys.stderr)
        return 1
    dt = time.monotonic() - t0
    failures = []
    if '"cmd":"shutdown"' not in out:
        failures.append(f'no shutdown stats line in output: {out!r}')
    if srv.returncode != 0:
        failures.append(f'exit code {srv.returncode}, expected 0')
    if dt >= 1.0:
        failures.append(f'shutdown took {dt:.2f} s, expected under 1.0 s')
    for failure in failures:
        print(failure, file=sys.stderr)
    if not failures:
        print(f'idle SIGTERM -> shutdown stats in {dt * 1000:.0f} ms')
    return 1 if failures else 0


if __name__ == '__main__':
    sys.exit(main(sys.argv))

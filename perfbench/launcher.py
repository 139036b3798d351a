"""Starts the ``cli`` workload's command processes, one at a time.

    python3 perfbench/launcher.py ROOT

Reads pickled argument lists from stdin until it closes; for each, runs
``python -m dtw.cli ARGS`` in ROOT with ``PYTHONPATH=src``, waits for it and
writes back the pickled (exit code, stdout, stderr, peak resident KiB).

Linux counts the pages a process had when it was forked into the peak
resident memory of what it then executes.  The benchmark process holds the
package and the inputs, so commands it forked itself would report its size
whenever that exceeds their own.  This launcher is a fresh interpreter that
imports nothing of the package, so a command's peak is its own.
"""

import os
import pickle
import subprocess
import sys
import tempfile


def run(argv, root, err):
    env = dict(os.environ, PYTHONPATH="src")
    err.seek(0)
    err.truncate()
    child = subprocess.Popen([sys.executable, "-m", "dtw.cli", *argv], cwd=root,
                             env=env, stdout=subprocess.PIPE, stderr=err,
                             stdin=subprocess.DEVNULL)
    try:
        out = child.stdout.read()
    finally:
        child.stdout.close()
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
    err.seek(0)
    return child.returncode, out, err.read(), usage.ru_maxrss


def main() -> int:
    root = sys.argv[1]
    requests, replies = sys.stdin.buffer, sys.stdout.buffer
    with tempfile.TemporaryFile(dir=os.path.join(root, ".perfbench_out")) as err:
        while True:
            try:
                argv = pickle.load(requests)
            except EOFError:
                return 0
            pickle.dump(run(argv, root, err), replies)
            replies.flush()


if __name__ == "__main__":
    sys.exit(main())

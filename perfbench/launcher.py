"""Starts the CLI children of a benchmark run, one at a time.

    python3 perfbench/launcher.py

The worker (worker.py) starts this process once, with the children's
environment and working directory.  It sends one line per child on standard
input: the child's output file, its error file, its time limit in seconds and
its argv, separated by NUL bytes.  The launcher runs the child to its end,
with standard output and standard error going to those two files, and answers
with one line: ``<wall ms> <peak RSS KiB> <exit code>``.  End of input ends it.

It is a process of its own, and a small one, because of how Linux counts a
child's peak RSS: at exec, the child's ``ru_maxrss`` starts at the peak RSS of
the memory it replaces.  Python starts children with vfork, so that memory is
the parent's.  Started from the worker, which holds numpy and the inputs,
every child would report at least the worker's peak.  So this process imports
nothing beyond what the interpreter loads at start, and its own peak is about
that of a bare ``python -c pass``.
"""

import os
import signal
import sys
from time import perf_counter

_OUT_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


def run_child(argv, out_path, err_path, timeout_s):
    """Run one child; return (wall ms, peak RSS KiB, exit code)."""
    files = [(os.POSIX_SPAWN_OPEN, 1, out_path, _OUT_FLAGS, 0o644),
             (os.POSIX_SPAWN_OPEN, 2, err_path, _OUT_FLAGS, 0o644)]
    t0 = perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=files)
    signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.alarm(timeout_s)
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.alarm(0)
    wall_ms = (perf_counter() - t0) * 1e3
    return wall_ms, usage.ru_maxrss, os.waitstatus_to_exitcode(status)


def main() -> int:
    for line in sys.stdin:
        out_path, err_path, timeout_s, *argv = line.rstrip("\n").split("\0")
        wall_ms, rss_kib, code = run_child(argv, out_path, err_path, int(timeout_s))
        print(f"{wall_ms!r} {rss_kib} {code}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

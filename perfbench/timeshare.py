"""Run two worker processes in turns, so both see the same host.

An untraced run times the program against a frozen reference copy of it.
Each runs the workload in its own worker process; the parent lets
exactly one of them run at a time and switches every ``SLICE_S``
seconds with SIGSTOP/SIGCONT.  Whatever else the host does then slows
both alike down to that time scale, and the ratio of their times keeps
only the program's own speed.

A worker reports one JSON object per line on its stdout.  It times its
items with ``time.perf_counter``; the parent records the slices in which
the worker ran on the same clock, so ``Worker.running_time`` turns an
item's start and end into the time the worker actually ran in between.
"""

from __future__ import annotations

import bisect
import ctypes
import json
import os
import select
import signal
import subprocess
import time

SLICE_S = 0.02
PR_SET_PDEATHSIG = 1


class WorkerError(Exception):
    """A worker exited, or said nothing in time."""


def die_with_parent():
    """Have Linux kill this process when its parent dies, so a stopped
    worker never outlives an interrupted run."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)
    except (OSError, AttributeError):
        pass


def channel():
    """The worker's report stream: the original stdout.  Anything else
    the worker prints goes to stderr instead."""
    out = os.fdopen(os.dup(1), "w", buffering=1)
    os.dup2(2, 1)
    return out


class Worker:
    def __init__(self, name, argv, cwd):
        self.name = name
        self.proc = subprocess.Popen(argv, cwd=cwd, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE)
        self.fd = self.proc.stdout.fileno()
        os.set_blocking(self.fd, False)
        self.buf = b""
        self.messages = []
        self.slices = []
        self._starts = self._before = None

    def read(self):
        try:
            chunk = os.read(self.fd, 1 << 16)
        except BlockingIOError:
            return
        if not chunk:
            raise WorkerError(f"{self.name} worker exited with code {self.proc.wait()}")
        *lines, self.buf = (self.buf + chunk).split(b"\n")
        self.messages.extend(json.loads(line) for line in lines if line)

    def stop(self):
        """Stop the worker and wait until it has stopped."""
        self.proc.send_signal(signal.SIGSTOP)
        _, status = os.waitpid(self.proc.pid, os.WUNTRACED)
        if not os.WIFSTOPPED(status):
            self.proc.returncode = os.waitstatus_to_exitcode(status)
            raise WorkerError(f"{self.name} worker exited with code {self.proc.returncode}")

    def close(self):
        if self.proc.returncode is None:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()

    def running_time(self, t0, t1):
        """Seconds the worker ran between perf_counter times t0 and t1."""
        if self._starts is None:
            self._starts = [s for s, _ in self.slices]
            self._before = [0.0]
            for s, e in self.slices:
                self._before.append(self._before[-1] + e - s)
        return self._clock(t1) - self._clock(t0)

    def _clock(self, t):
        i = bisect.bisect_right(self._starts, t) - 1
        if i < 0:
            return 0.0
        s, e = self.slices[i]
        return self._before[i] + min(t, e) - s


def _poll(workers, until):
    fds = {w.fd: w for w in workers}
    while (now := time.perf_counter()) < until:
        ready, _, _ = select.select(list(fds), [], [], until - now)
        for fd in ready:
            fds[fd].read()


def wait_ready(workers, timeout):
    """Wait until every worker has sent its first message (set-up done)."""
    deadline = time.perf_counter() + timeout
    while not all(w.messages for w in workers):
        if time.perf_counter() >= deadline:
            raise WorkerError("workers did not finish set-up in time")
        _poll(workers, min(deadline, time.perf_counter() + 0.1))


def share(workers, seconds, budget, done):
    """Let `workers` run in turns until `seconds` have passed and `done()`
    holds, or until `budget` seconds have passed.  Each worker is told
    to start when its first turn comes; all are stopped on return."""
    for w in workers:
        w.stop()
        w.proc.stdin.write(b"go\n")
        w.proc.stdin.flush()
    start = time.perf_counter()
    turn = 0
    while True:
        w = workers[turn]
        t0 = time.perf_counter()
        w.proc.send_signal(signal.SIGCONT)
        _poll(workers, t0 + SLICE_S)
        w.stop()
        w.slices.append((t0, time.perf_counter()))
        for other in workers:
            other.read()
        turn = (turn + 1) % len(workers)
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and done()) or elapsed >= budget:
            return elapsed

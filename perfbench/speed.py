"""Host speed during a run, for steadier figures on a shared machine.

On a host whose CPUs are shared with other tenants, the speed of one
CPU changes by up to two-fold within seconds, and a fixed pure-Python
loop timed for ten seconds varies by a quarter from run to run.  A
:class:`Speedometer` starts one sampler process per CPU; every
:data:`PERIOD` seconds each runs :data:`LOOP` iterations of a fixed loop
and records its speed from CPU time (so waiting to be scheduled does not
count, but a slowed CPU does).  The samplers use about 1% of each CPU.

The samplers are plain child interpreters (no ``multiprocessing``, so
no resource-tracker process that could outlive the run): each stops
when its standard input closes and answers with its samples as JSON.

A rate measured over some intervals is scaled by
``REFERENCE / mean speed in those intervals``: it then reads as the rate
at the reference speed, and the host's slowdowns cancel.  The raw value
is kept in the run record.
"""

from __future__ import annotations

import heapq
import json
import os
import select
import subprocess
import sys
import time
from contextlib import contextmanager

#: Sampling period (s) and loop size (about 0.3 ms of one CPU).
PERIOD = 0.05
LOOP = 400
#: Loop speed (iterations per CPU second) that normalized figures refer
#: to: the median speed sampled on a shared 2-CPU, 2.1 GHz cloud host.
REFERENCE = 1.2e6

_CPUS = sorted(os.sched_getaffinity(0))
#: The CPU that in-process work and the server are pinned to, and the
#: CPU the load generator is pinned to (the same one on a 1-CPU host).
MAIN_CPU, CLIENT_CPU = _CPUS[0], _CPUS[-1]
ALL_CPUS = frozenset(_CPUS)


@contextmanager
def pinned(cpus):
    """Run the enclosed block (and children it forks) on ``cpus`` only."""
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, set(cpus))
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


def _loop() -> float:
    """Speed of one run of the fixed loop, iterations per CPU second.

    The loop mixes what an interpreted event simulation does (a heap,
    a dict, float arithmetic, a growing list) but calls nothing of the
    program under test, so no change to the program can move it.
    """
    t0 = time.thread_time()
    heap, seen, out = [], {}, []
    x = 0.5
    for i in range(LOOP):
        x = (x * 1103515245.0 + 12345.0) % 2147483648.0
        heapq.heappush(heap, (x, i))
        if len(heap) > 64:
            t, j = heapq.heappop(heap)
            seen[j % 97] = seen.get(j % 97, 0.0) + t
            out.append(t)
    return LOOP / max(time.thread_time() - t0, 1e-9)


def _sampler(cpu: int) -> None:
    """Sample until standard input closes, then print the samples."""
    os.sched_setaffinity(0, {cpu})
    samples = []
    while not select.select([sys.stdin], [], [], PERIOD)[0]:
        samples.append((cpu, time.monotonic(), _loop()))
    json.dump(samples, sys.stdout)


class Speedometer:
    """Sampler processes, one pinned to each CPU, until :meth:`stop`."""

    def __init__(self) -> None:
        self.samples: list[tuple[int, float, float]] = []
        self._procs: list[subprocess.Popen] = []
        try:
            for cpu in _CPUS:
                self._procs.append(
                    subprocess.Popen(
                        [sys.executable, os.path.abspath(__file__), str(cpu)],
                        stdin=subprocess.PIPE,
                        stdout=subprocess.PIPE,
                        text=True,
                    )
                )
        except BaseException:
            self.stop()
            raise

    def stop(self) -> None:
        """Stop every sampler, wait for it, and collect its samples."""
        procs, self._procs = self._procs, []
        for proc in procs:
            proc.stdin.close()  # a sampler stops when its input closes
            proc.stdin = None
        try:
            for proc in procs:
                out, _ = proc.communicate(timeout=30)
                self.samples.extend(tuple(s) for s in json.loads(out))
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                proc.communicate()

    def speed(self, intervals, cpus=None) -> float:
        """Mean sampled speed over ``intervals`` (monotonic ``(t0, t1)``
        pairs) on ``cpus`` (default: all); the whole run's mean if no
        sample falls inside."""
        mine = [(t, v) for c, t, v in self.samples if cpus is None or c in cpus]
        inside = [v for t, v in mine if any(a <= t <= b for a, b in intervals)]
        chosen = inside or [v for _, v in mine]
        if not chosen:
            raise RuntimeError("no speed samples")
        return sum(chosen) / len(chosen)

    def scale(self, intervals, cpus=None) -> float:
        """Factor taking a rate measured over ``intervals`` on ``cpus``
        to the reference speed (divide a time by it)."""
        return REFERENCE / self.speed(intervals, cpus)


if __name__ == "__main__":
    _sampler(int(sys.argv[1]))

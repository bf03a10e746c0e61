"""Make sure a benchmark run leaves no process behind.

A run starts processes of its own (speed samplers, set-up probes, the
server) and the program starts more (a campaign's worker pool, and the
``multiprocessing`` resource tracker, which by default outlives the
interpreter that started it).  :func:`adopt_orphans` makes this process
the parent of any descendant whose own parent exits first (Linux only);
:func:`stop_all` then stops the resource tracker and every remaining
child, and waits until each has ended.
"""

from __future__ import annotations

import ctypes
import os
import signal
import sys
import time

_PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> bool:
    """Become the subreaper of this process's descendants; False where
    the platform has no such call."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def children() -> list[int]:
    """Pids of this process's live or unreaped children (Linux ``/proc``)."""
    me = os.getpid()
    found = []
    try:
        entries = os.listdir("/proc")
    except OSError:
        return found
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == me:
            found.append(int(entry))
    return found


def _stop_resource_tracker() -> None:
    """Stop the ``multiprocessing`` resource tracker, if it was started,
    and wait for it.  (Where ``_stop`` is missing, :func:`stop_all` kills
    the tracker after its grace period instead.)"""
    tracker_mod = sys.modules.get("multiprocessing.resource_tracker")
    if tracker_mod is not None and hasattr(tracker_mod._resource_tracker, "_stop"):
        tracker_mod._resource_tracker._stop()


def _reap(pid: int) -> bool:
    """Collect ``pid`` if it has ended; True once it is gone."""
    try:
        done, _ = os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return done == pid


def stop_all(grace: float = 10.0) -> None:
    """Stop the resource tracker, then wait up to ``grace`` seconds for
    every remaining child (adopted orphans too) to end by itself, then
    kill what is left, until no child remains."""
    _stop_resource_tracker()
    deadline = time.monotonic() + grace
    while True:
        left = [pid for pid in children() if not _reap(pid)]
        if not left:
            return
        if time.monotonic() >= deadline:
            for pid in left:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.05)

"""A run leaves no process behind, orphaned grandchildren included."""

import subprocess
import sys
import textwrap

import pytest

from perfbench.common import ROOT

SCRIPT = textwrap.dedent(
    """
    import subprocess, sys, time
    sys.path.insert(0, sys.argv[1])
    from perfbench.procs import adopt_orphans, children, stop_all

    if not adopt_orphans():
        print("unsupported")
        raise SystemExit
    # A shell that exits at once, leaving a sleeping grandchild orphaned.
    subprocess.run(["sh", "-c", "sleep 60 &"], check=True)
    time.sleep(0.2)
    orphans = len(children())
    t0 = time.monotonic()
    stop_all(grace=0.2)
    print(orphans, len(children()), time.monotonic() - t0 < 10)
    """
)


def test_stop_all_kills_and_reaps_adopted_orphans():
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT)],
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout.split()
    if out == ["unsupported"]:
        pytest.skip("no child-subreaper support on this platform")
    assert out == ["1", "0", "True"]

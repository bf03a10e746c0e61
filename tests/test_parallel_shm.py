"""Shared-memory result transport: identity, torn writes, cleanup.

Satellite coverage for the shm result path: the parent must never
surface a torn slab row as a result (commit-flag protocol), shm and
pickle transports must be byte-identical, and the segment must be
unlinked on every exit path — normal completion, an
``on_error="raise"`` drain, and a worker crash mid-write.
"""

from __future__ import annotations

import math

import pytest

from repro.parallel import (
    FaultPlan,
    JobResult,
    ParallelRunner,
    ResultSlab,
    SimulationJob,
    run_jobs_shm,
    shm_available,
)

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="shared memory or numpy unavailable"
)


def _specs(engine="batch", n=4, seeds=range(6), horizon=400.0):
    return [
        SimulationJob(
            n_nodes=n,
            tp=20.0,
            tc=0.2,
            tr=2.0,
            seed=seed,
            horizon=horizon,
            engine=engine,
        )
        for seed in seeds
    ]


def _segment_gone(name: str) -> bool:
    from multiprocessing import shared_memory

    try:
        seg = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return True
    seg.close()
    return False


# -- ResultSlab unit behaviour -----------------------------------------------


def test_slab_row_roundtrip_and_censoring():
    slab = ResultSlab.create(rows=3, n_max=5)
    try:
        record = {1: 0.0, 2: 31.25, 5: 123.456}
        slab.write_row(1, record)
        assert slab.read_row(1) == record  # NaN columns read as absence
        slab.write_row(2, {})
        assert slab.read_row(2) == {}  # committed-but-empty = censored
        assert slab.read_row(0) is None  # never written
    finally:
        slab.destroy()


def test_slab_uncommitted_row_reads_as_none():
    slab = ResultSlab.create(rows=1, n_max=3)
    try:
        slab.write_row(0, {1: 1.0, 2: 2.0}, commit=False)
        assert slab.read_row(0) is None
        slab.write_row(0, {1: 1.0, 2: 2.0})
        assert slab.read_row(0) == {1: 1.0, 2: 2.0}
    finally:
        slab.destroy()


def test_slab_attach_sees_parent_writes_and_destroy_unlinks():
    slab = ResultSlab.create(rows=2, n_max=2)
    name = slab.name
    try:
        slab.write_row(0, {1: 7.5})
        other = ResultSlab.attach(name, rows=2, n_max=2)
        assert other.read_row(0) == {1: 7.5}
        other.write_row(1, {2: 9.0})
        other.close()
        assert slab.read_row(1) == {2: 9.0}  # both mapped the same bytes
    finally:
        slab.destroy()
    assert _segment_gone(name)


def test_slab_float_values_roundtrip_exactly():
    # Byte-identity of the transport reduces to float64 columns
    # round-tripping bit for bit.
    values = {1: 1.0 / 3.0, 2: 1e-300, 3: math.pi * 1e7}
    slab = ResultSlab.create(rows=1, n_max=3)
    try:
        slab.write_row(0, values)
        got = slab.read_row(0)
    finally:
        slab.destroy()
    for size, value in values.items():
        assert got[size] == value
        assert got[size].hex() == value.hex()


def test_run_jobs_shm_writes_rows_in_place():
    # The worker entry point, exercised in-process: batch jobs go
    # through run_batch(out=...) and land in the slab, not in pickles.
    specs = _specs(seeds=range(4))
    slab = ResultSlab.create(rows=4, n_max=4)
    try:
        committed = run_jobs_shm(
            specs, slab.name, slab.rows, slab.n_max, [0, 1, 2, 3]
        )
        assert committed == 4
        from repro.parallel import run_jobs

        expected = run_jobs(specs)
        for row, want in enumerate(expected):
            assert slab.read_row(row) == want.first_passages
    finally:
        slab.destroy()


# -- transport identity ------------------------------------------------------


def test_shm_transport_byte_identical_to_pickle():
    specs = _specs(seeds=range(8)) + _specs(engine="cascade", seeds=range(8, 11))
    pickled = ParallelRunner(jobs=2, chunk_size=3).run(specs)
    runner = ParallelRunner(jobs=2, chunk_size=3, transport="shm")
    shipped = runner.run(specs)
    assert shipped == pickled
    # The pool actually ran (no silent serial fallback) before we
    # credit the identity to the shm path.
    assert runner.stats.pooled + runner.stats.fallback == len(specs)


def test_shm_transport_serial_runner_is_unaffected():
    # jobs=1 never ships anything; transport="shm" must be a no-op.
    specs = _specs(seeds=range(3))
    assert ParallelRunner(transport="shm").run(specs) == ParallelRunner().run(specs)


def test_invalid_transport_rejected():
    with pytest.raises(ValueError, match="transport"):
        ParallelRunner(transport="carrier-pigeon")


# -- torn writes and crashes -------------------------------------------------


def test_torn_row_never_surfaced_and_rerun_in_process():
    # shm_torn: the worker survives, the row stays uncommitted, and
    # the parent must recompute that job rather than read the slab.
    specs = _specs(seeds=range(6))
    clean = ParallelRunner(jobs=2, chunk_size=3).run(specs)
    runner = ParallelRunner(
        jobs=2,
        chunk_size=3,
        transport="shm",
        backoff_base=0.0,
        faults=FaultPlan.of(FaultPlan.shm_torn(seeds=(2, 4))),
    )
    results = runner.run(specs)
    assert results == clean
    assert runner.stats.fallback >= 2  # both torn jobs re-ran in-process
    assert not any(r.first_passages == {} for r in results)


def test_torn_row_with_no_retry_budget_fails_loudly():
    specs = _specs(seeds=range(4))
    runner = ParallelRunner(
        jobs=2,
        chunk_size=2,
        transport="shm",
        retries=0,
        on_error="censor",
        faults=FaultPlan.of(FaultPlan.shm_torn(seeds=(1,))),
    )
    results = runner.run(specs)
    # The torn job is censored, not silently read from the slab...
    assert results[1] == JobResult(first_passages={})
    assert runner.stats.censored == 1
    # ...and the clean jobs are untouched.
    clean = ParallelRunner(jobs=1).run([specs[0], specs[2], specs[3]])
    assert [results[0], results[2], results[3]] == clean


def test_worker_crash_mid_write_recovers_byte_identically():
    # shm_crash: the row is written but uncommitted and the worker is
    # hard-killed mid-chunk.  The parent sees the broken pool, retries
    # in-process (where the plan is inert), and no torn row leaks.
    specs = _specs(seeds=range(6))
    clean = ParallelRunner(jobs=2, chunk_size=3).run(specs)
    runner = ParallelRunner(
        jobs=2,
        chunk_size=3,
        transport="shm",
        backoff_base=0.0,
        faults=FaultPlan.of(FaultPlan.shm_crash(seeds=(3,))),
    )
    results = runner.run(specs)
    assert results == clean
    assert runner.stats.retried_chunks >= 1
    assert not any(r.first_passages == {} for r in results)


# -- segment cleanup ---------------------------------------------------------


def _watch_slab_names(monkeypatch):
    names: list[str] = []
    original = ResultSlab.create.__func__

    def recording(cls, rows, n_max):
        slab = original(cls, rows, n_max)
        names.append(slab.name)
        return slab

    monkeypatch.setattr(ResultSlab, "create", classmethod(recording))
    return names


def test_segment_unlinked_on_normal_exit(monkeypatch):
    names = _watch_slab_names(monkeypatch)
    ParallelRunner(jobs=2, chunk_size=3, transport="shm").run(_specs())
    assert len(names) == 1
    assert _segment_gone(names[0])


def test_segment_unlinked_on_raise_drain(monkeypatch):
    # on_error="raise" escapes _run_pooled through the finally; the
    # slab must not outlive the run.
    names = _watch_slab_names(monkeypatch)
    runner = ParallelRunner(
        jobs=2,
        chunk_size=2,
        transport="shm",
        retries=0,
        backoff_base=0.0,
        faults=FaultPlan.of(FaultPlan.deterministic(seeds=(1,))),
    )
    with pytest.raises(ValueError):
        runner.run(_specs(seeds=range(4)))
    assert len(names) == 1
    assert _segment_gone(names[0])


def test_segment_unlinked_after_worker_crash(monkeypatch):
    names = _watch_slab_names(monkeypatch)
    runner = ParallelRunner(
        jobs=2,
        chunk_size=3,
        transport="shm",
        backoff_base=0.0,
        faults=FaultPlan.of(FaultPlan.shm_crash(seeds=(0,))),
    )
    runner.run(_specs(seeds=range(6)))
    assert len(names) == 1
    assert _segment_gone(names[0])


def test_degrades_to_pickle_when_shm_unavailable(monkeypatch):
    # Platform without shared memory: same results, pickle transport.
    import repro.parallel.runner as runner_mod

    monkeypatch.setattr(runner_mod, "shm_available", lambda: False)
    specs = _specs(seeds=range(4))
    runner = ParallelRunner(jobs=2, chunk_size=2, transport="shm")
    assert runner.run(specs) == ParallelRunner(jobs=1).run(specs)


def test_no_resource_tracker_traceback_on_stderr():
    # Pool workers share the parent's resource tracker.  A worker that
    # touches the segment's registration (unregistering it on attach)
    # removes the parent's own entry, and the parent's unlink then
    # makes the tracker print a KeyError traceback.  Run the job set
    # in a fresh interpreter so the tracker's stderr is captured.
    import os
    import subprocess
    import sys
    from pathlib import Path

    script = (
        "from repro.parallel import ParallelRunner, SimulationJob\n"
        "jobs = [SimulationJob(n_nodes=4, tp=20.0, tc=0.2, tr=2.0, seed=s,\n"
        "                      horizon=400.0, engine='batch') for s in range(8)]\n"
        "out = ParallelRunner(jobs=2, chunk_size=2, transport='shm',\n"
        "                     cache=None).run(jobs)\n"
        "assert len(out) == 8\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH", "")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "resource_tracker" not in proc.stderr, proc.stderr
    assert "KeyError" not in proc.stderr, proc.stderr

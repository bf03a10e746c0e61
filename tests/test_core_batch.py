"""The batch engine: its two paths, its jobs in the runner, resume.

Bit-identity with the serial engines lives in
``test_engine_differential.py``; this module covers the batch layer's
own machinery — which path resolves, import hygiene, the no-compiler
fallback, constructor validation, ``run_batch``, and batch jobs in the
runner (serial, pooled, traced and fault-armed), each of which runs
alone exactly like a cascade job.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.core.batch as batch_mod
from repro import obs as obs_runtime
from repro.core import BatchCascade, CascadeModel, RouterTimingParameters
from repro.core.batch import BACKEND
from repro.core.sweeps import time_to_break_up, time_to_synchronize
from repro.parallel import (
    FaultPlan,
    ParallelRunner,
    SimulationJob,
    run_batch,
    run_job,
)

PARAMS = RouterTimingParameters(n_nodes=6, tp=20.0, tc=0.11, tr=0.3)


def jobs_for(seeds, engine="batch", direction="up", horizon=2000.0, tr=0.3):
    params = RouterTimingParameters(n_nodes=6, tp=20.0, tc=0.11, tr=tr)
    return [
        SimulationJob.from_params(
            params, seed=s, horizon=horizon, direction=direction, engine=engine
        )
        for s in seeds
    ]


class TestConstruction:
    def test_backend_constant_is_coherent(self):
        # Compiled iff the C kernel resolves, else python.
        expected = (
            "compiled" if batch_mod.compiled_backend_available() else "python"
        )
        assert BACKEND == expected

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError, match="seeds must be non-empty"):
            BatchCascade(PARAMS, [])

    def test_phase_validation_matches_cascade(self):
        with pytest.raises(ValueError, match="expected 6 phases, got 1"):
            BatchCascade(PARAMS, [1], initial_phases=[0.0])
        with pytest.raises(ValueError, match="must be non-negative"):
            BatchCascade(PARAMS, [1], initial_phases=[0.0, 1.0, -2.0, 3.0, 4.0, 5.0])


class TestImportHygiene:
    def test_package_import_loads_neither_numpy_nor_the_kernel(self):
        # A fresh interpreter: this process has long since imported both.
        src = str(Path(repro.__file__).resolve().parent.parent)
        code = (
            "import sys\n"
            "import repro.core, repro.parallel, repro.campaign\n"
            "print(sorted(m for m in ('numpy', 'repro.core._batch_kernel')"
            " if m in sys.modules))\n"
        )
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        assert out.stdout.strip() == "[]"


class TestNoCompiler:
    """A box without ``cc`` runs CascadeModel per member, and says so."""

    @pytest.fixture
    def no_compiler(self, monkeypatch, tmp_path):
        from repro.core import _batch_kernel

        monkeypatch.setattr(_batch_kernel, "_RESOLVED", "unset")
        empty_bin = tmp_path / "bin"
        empty_bin.mkdir()
        monkeypatch.setenv("PATH", str(empty_bin))
        monkeypatch.setenv("REPRO_CKERNEL_CACHE", str(tmp_path / "ckernel"))

    def test_default_falls_back_to_python(self, no_compiler):
        assert batch_mod.BACKEND == "python"
        assert not batch_mod.compiled_backend_available()

    def test_default_run_matches_cascade(self, no_compiler):
        batch = BatchCascade(PARAMS, [3], keep_cluster_history=True)
        ends = batch.run(until=5000.0)
        model = CascadeModel(PARAMS, seed=3, keep_cluster_history=True)
        end = model.run(until=5000.0)
        member, tracker = batch.members[0], model.tracker
        assert ends == [end]
        assert member.first_time_at_least == tracker.first_time_at_least
        assert member.first_time_at_most == tracker.first_time_at_most
        assert member.round_times == tracker.round_times
        assert member.round_largest == tracker.round_largest
        assert [(g.time, g.size) for g in member.groups] == [
            (g.time, g.size) for g in tracker.groups
        ]
        assert batch.rng_states(0) == model.rng_states()


class TestRunBatch:
    def test_matches_run_job_per_seed(self):
        jobs = jobs_for([1, 2, 3, 11])
        grouped = run_batch(jobs)
        singles = [run_job(job) for job in jobs]
        assert [r.first_passages for r in grouped] == [
            r.first_passages for r in singles
        ]

    def test_down_direction_matches_cascade(self):
        jobs = jobs_for([5, 6, 7], direction="down", tr=1.2)
        cascade = [
            run_job(job)
            for job in jobs_for([5, 6, 7], engine="cascade", direction="down", tr=1.2)
        ]
        assert [r.first_passages for r in run_batch(jobs)] == [
            r.first_passages for r in cascade
        ]

    def test_rejects_non_batch_engines(self):
        with pytest.raises(ValueError, match="requires engine='batch'"):
            run_batch(jobs_for([1], engine="cascade"))

    def test_mixed_parameter_points_run_alone(self):
        mixed = jobs_for([1]) + jobs_for([2], horizon=5000.0)
        assert run_batch(mixed) == [run_job(job) for job in mixed]

    def test_empty_group_is_empty(self):
        assert run_batch([]) == []


class TestRunnerIntegration:
    def test_serial_runner_groups_batch_jobs(self):
        jobs = jobs_for([1, 2, 3, 4])
        cascade = ParallelRunner(jobs=1, cache=None).run(
            jobs_for([1, 2, 3, 4], engine="cascade")
        )
        batched = ParallelRunner(jobs=1, cache=None).run(jobs)
        assert [r.first_passages for r in batched] == [
            r.first_passages for r in cascade
        ]

    def test_pooled_runner_groups_batch_jobs(self):
        jobs = jobs_for([1, 2, 3, 4, 5, 6])
        serial = ParallelRunner(jobs=1, cache=None).run(jobs)
        pooled = ParallelRunner(jobs=2, cache=None).run(jobs)
        assert [r.first_passages for r in pooled] == [
            r.first_passages for r in serial
        ]

    @pytest.mark.parametrize("obs_on", [False, True], ids=["obs-off", "obs-on"])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_mixed_jobs_match_serial_run_job(self, jobs, obs_on):
        # Interleaved batch and cascade jobs at several parameter
        # points, so each pool chunk of 4 mixes engines and points;
        # every one of them is one job.run span.
        down = dict(direction="down", tr=1.2)
        jobs_list = (
            jobs_for([1])
            + jobs_for([9], engine="cascade")
            + jobs_for([1], horizon=5000.0)
            + jobs_for([2])
            + jobs_for([3], **down)
            + jobs_for([2], horizon=5000.0)
            + jobs_for([4], **down)
            + jobs_for([10], engine="cascade")
        )
        expected = [run_job(job) for job in jobs_list]
        obs_runtime.reset()
        try:
            if obs_on:
                obs_runtime.configure(enabled=True)
            got = ParallelRunner(jobs=jobs, cache=None, chunk_size=4).run(
                jobs_list
            )
            names = [r.name for r in obs_runtime.obs().tracer.records]
        finally:
            obs_runtime.reset()
        assert [r.to_dict() for r in got] == [r.to_dict() for r in expected]
        if obs_on:
            # One job.run per job, under the runner's (and, pooled, the
            # workers' chunk) spans: nothing runs a group of jobs.
            assert names.count("job.run") == len(jobs_list)
            assert set(names) == {"runner.run", "job.run"} | (
                {"worker.chunk"} if jobs > 1 else set()
            )
        else:
            assert names == []

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_fault_plan_reports_alike_on_batch_and_cascade(self, jobs):
        plan = FaultPlan.of(
            FaultPlan.transient(seeds=(2,)), FaultPlan.deterministic(seeds=(3,))
        )
        reports = {}
        for engine in ("batch", "cascade"):
            runner = ParallelRunner(
                jobs=jobs, cache=None, faults=plan, on_error="censor",
                backoff_base=0.0, chunk_size=2,
            )
            results = runner.run(jobs_for([1, 2, 3, 4], engine=engine))
            reports[engine] = (runner.report.counts(), results)
        assert reports["batch"] == reports["cascade"]
        counts, results = reports["batch"]
        # A pooled chunk that fails retries all of its jobs, so only the
        # totals are independent of ``jobs``.
        assert counts["failed"] == 1 and counts["ok"] + counts["retried"] == 3
        assert counts["retried"] >= 1
        assert results[2].first_passages == {}

    def test_cache_round_trip(self, tmp_path):
        from repro.parallel import ResultCache

        cache = ResultCache(tmp_path / "cache")
        jobs = jobs_for([1, 2, 3])
        runner = ParallelRunner(jobs=1, cache=cache)
        first = runner.run(jobs)
        assert runner.stats.executed == 3
        warm = ParallelRunner(jobs=1, cache=cache)
        second = warm.run(jobs)
        assert warm.stats.executed == 0
        assert warm.stats.cache_hits == 3
        assert [r.first_passages for r in second] == [
            r.first_passages for r in first
        ]


class TestResume:
    def test_resumed_horizons_match_one_shot(self):
        one_shot = BatchCascade(PARAMS, [1, 2], keep_cluster_history=True)
        one_shot.run(until=4000.0)
        stepped = BatchCascade(PARAMS, [1, 2], keep_cluster_history=True)
        for horizon in (1000.0, 2500.0, 4000.0):
            stepped.run(until=horizon)
        for k in range(2):
            assert (
                one_shot.members[k].round_times == stepped.members[k].round_times
            )
            assert one_shot.members[k].total_resets == (
                stepped.members[k].total_resets
            )
            assert one_shot.rng_states(k) == stepped.rng_states(k)


class TestSweepFastPath:
    def test_single_seed_sweep_helpers_accept_batch(self):
        sync_batch = time_to_synchronize(
            PARAMS, horizon=50_000.0, seed=3, engine="batch"
        )
        sync_cascade = time_to_synchronize(
            PARAMS, horizon=50_000.0, seed=3, engine="cascade"
        )
        assert sync_batch == sync_cascade
        loose = PARAMS.with_tr(1.5)
        break_batch = time_to_break_up(
            loose, horizon=50_000.0, seed=3, engine="batch"
        )
        break_cascade = time_to_break_up(
            loose, horizon=50_000.0, seed=3, engine="cascade"
        )
        assert break_batch == break_cascade

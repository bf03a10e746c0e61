"""Tests for repro.bench: the shared envelope and every declared workload.

Every workload must frame its snapshot identically — one schema
version, the model version, and the host context, with the workload's
payload alongside — carry its own ``ok`` verdict, render a table, and
leave nothing behind but its snapshot.
"""

import json
import os

import pytest

from repro.bench import (
    BENCH_SCHEMA,
    WORKLOADS,
    bench_envelope,
    format_table,
    host_info,
    interleaved,
    run_benchmark,
    write_bench_json,
)
from repro.parallel.job import MODEL_VERSION

FRAME_FIELDS = ("bench_schema", "benchmark", "model_version", "host")

#: Every workload at a size that runs in about a second.
TINY = {
    "parallel": {"horizon": 2000.0, "seeds": (1, 2)},
    "batch": {"horizon": 2000.0, "seeds": (1, 2)},
    "serve": {"clients": 2, "duration": 0.5, "workers_sweep": ()},
    "campaign": {"seed_count": 2, "horizon": 1000.0},
    "predict": {"simulate_requests": 3},
}

#: Checks that gate on a timing rather than an identity.  A tiny
#: workload cannot resolve them, so these tests leave them (and with
#: them ``ok``) to the full-size run.
TIMING_CHECKS = {"within_budget"}


class TestEnvelope:
    def test_frame_fields_and_payload_merge(self):
        snapshot = bench_envelope("demo", {"speedup": 2.0})
        assert snapshot["bench_schema"] == BENCH_SCHEMA
        assert snapshot["benchmark"] == "demo"
        assert snapshot["model_version"] == MODEL_VERSION
        assert set(snapshot["host"]) == {"cpu_count", "platform", "python"}
        assert snapshot["speedup"] == 2.0

    def test_payload_may_not_shadow_frame_fields(self):
        for f in FRAME_FIELDS:
            with pytest.raises(ValueError, match=f):
                bench_envelope("demo", {f: "clash"})

    def test_host_info_shape(self):
        info = host_info()
        assert isinstance(info["cpu_count"], int) and info["cpu_count"] >= 1
        assert isinstance(info["platform"], str)
        assert isinstance(info["python"], str)

    def test_write_bench_json_round_trips(self, tmp_path):
        snapshot = bench_envelope("demo", {"n": 3})
        path = write_bench_json(tmp_path / "BENCH_demo.json", snapshot)
        assert json.loads(path.read_text()) == snapshot
        assert path.read_text().endswith("\n")


class TestInterleaved:
    def test_min_spread_and_a_fresh_directory_per_round(self, tmp_path):
        seen = []
        rows, outcomes = interleaved(
            {"a": lambda d: seen.append(d) or len(seen), "b": lambda d: d},
            reps=3,
            scratch=tmp_path,
        )
        assert len(set(seen)) == 3 and all(d.is_dir() for d in seen)
        assert outcomes == {"a": [1, 2, 3], "b": seen}
        for row in rows.values():
            assert set(row) == {"seconds", "spread_seconds"}
            assert row["seconds"] >= 0 and row["spread_seconds"] >= 0


class TestAllBenchmarksUseTheEnvelope:
    """Each workload's snapshot carries the shared frame (tiny sizes)."""

    @pytest.mark.parametrize("name", list(WORKLOADS))
    def test_workload(self, name, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        workload = WORKLOADS[name]
        snapshot = run_benchmark(name, jobs=1, output=workload.output, **TINY[name])
        for f in FRAME_FIELDS:
            assert f in snapshot, f"missing frame field {f}"
        assert snapshot["benchmark"] == workload.benchmark
        assert snapshot["bench_schema"] == BENCH_SCHEMA
        assert snapshot["model_version"] == MODEL_VERSION
        checks = snapshot["checks"]
        identity = {k: held for k, held in checks.items() if k not in TIMING_CHECKS}
        assert identity and all(identity.values()), identity
        assert snapshot["ok"] is all(checks.values())
        assert json.loads((tmp_path / workload.output).read_text()) == snapshot
        table = format_table(snapshot)
        assert table.endswith("ok: yes" if snapshot["ok"] else "ok: NO")
        # Caches, checkpoints and server roots lived in a removed
        # temporary directory: the snapshot is all that is left.
        assert os.listdir(tmp_path) == [workload.output]

    def test_parallel_bench(self, tmp_path):
        snapshot = run_benchmark(
            "parallel",
            jobs=1,
            output=tmp_path / "BENCH_parallel.json",
            **TINY["parallel"],
        )
        assert snapshot["benchmark"] == "fig10_first_passage_ensemble"
        assert snapshot["checks"]["results_identical_across_configs"]
        assert set(snapshot["rows"]) >= {
            "des_jobs1",
            "cascade_jobs1",
            "cascade_jobsN",
            "cascade_warm",
        }
        assert (tmp_path / "BENCH_parallel.json").exists()

    def test_obs_bench(self, tmp_path):
        # The obs overhead is measured inside the parallel workload: the
        # cascade_jobs1_obs row against the plain cascade_jobs1 row.
        snapshot = run_benchmark("parallel", jobs=1, **TINY["parallel"])
        assert "cascade_jobs1_obs" in snapshot["rows"]
        assert snapshot["checks"]["results_identical_with_obs"]
        assert snapshot["spans_per_run"] > 0
        for f in ("overhead_percent", "overhead_noise_percent"):
            assert isinstance(snapshot[f], float)
        assert "obs overhead" in format_table(snapshot)

    def test_serve_benchmark_fleet_sweep_and_restart_row(self, tmp_path):
        snapshot = run_benchmark(
            "serve",
            jobs=1,
            output=tmp_path / "BENCH_serve.json",
            clients=2,
            duration=0.5,
            workers_sweep=(1, 2),
        )
        rows = snapshot["rows"]
        for workers in (1, 2):
            for name in ("cold", "warm"):
                row = rows[f"fleet_w{workers}_{name}"]
                assert row["throughput_rps"] > 0
                assert row["width"] == workers
                assert row.get("oversubscribed", False) == (
                    workers > os.cpu_count()
                )
        restart = snapshot["restart"]
        assert restart["workers"] == 2
        assert restart["drain_exit_code"] == 0
        assert rows["restart_chaos"]["width"] == 2
        assert snapshot["checks"]["restart_exactly_once_per_key"]
        assert snapshot["checks"]["payloads_identical_cold_vs_warm"]
        assert snapshot["ok"] is True
        table = format_table(snapshot)
        assert "fleet_w2_warm" in table
        assert "restart overhead" in table

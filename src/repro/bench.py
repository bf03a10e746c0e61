"""Every ``BENCH_*.json`` snapshot: ``python -m repro bench [NAME]``.

:data:`WORKLOADS` declares what the repository publishes timings for —
``parallel``, ``batch``, ``serve``, ``campaign`` and ``predict`` — each
with its run function, its table and its ``BENCH_*.json`` name.  The
CLI selects one by name (default ``parallel``) and exits on the
snapshot's ``ok``: every one of its ``checks`` held.

One timing rule: every row that times a repeatable run goes through
:func:`interleaved`, which runs each row once per round over ``reps``
rounds and records the per-row minimum and spread (max - min).  On a
shared box background load inflates the rows of one round together,
so the minimum of interleaved rounds is the honest estimate of each
configuration's cost, and the spread says how far to trust it.  The
serve and predict workloads report latency distributions instead.

Every workload runs inside one temporary directory (caches,
checkpoints, server roots) that is removed on exit, so a bench run
writes nothing but its snapshot.  A row that runs a pool or a fleet
records its width; wider than the host's CPU count it carries
``oversubscribed: true`` and must not be read as scaling.

Every snapshot shares one frame (:func:`bench_envelope`): a schema
version, the model version the numbers were produced under, and the
host context that makes a wall-clock figure interpretable.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import os
import platform
import tempfile
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from statistics import fmean, median
from typing import Callable

from .campaign.dispatch import LocalDispatcher, ServeDispatcher
from .campaign.report import build_report, report_json
from .campaign.run import run_campaign
from .campaign.spec import CampaignSpec
from .core import BatchCascade
from .core.batch import compiled_backend_available
from .obs import configure, obs, reset
from .obs.clock import perf_counter
from .parallel.cache import ResultCache
from .parallel.job import MODEL_VERSION, JobResult, SimulationJob
from .parallel.runner import ParallelRunner
from .predict.bounds import verify_table
from .predict.surrogate import SurrogateEvaluator
from .predict.tables import build_table, save_table
from .serve.client import ServeClient
from .serve.config import ServeConfig
from .serve.lifecycle import BackgroundServer
from .serve.loadgen import (
    LoadPlan,
    _await_ready,
    default_specs,
    run_chaos_load,
    run_load,
)
from .serve.supervisor import SupervisedServer

__all__ = [
    "BENCH_SCHEMA",
    "WORKLOADS",
    "bench_envelope",
    "format_table",
    "host_info",
    "interleaved",
    "run_benchmark",
    "write_bench_json",
]

#: Bump when envelope *framing* changes shape (not when a workload
#: adds payload fields — payloads are free to grow).
BENCH_SCHEMA = 1

#: The Figure 10 parameter point (see experiments/fig10.py).
FIG10_PARAMS = {"n_nodes": 20, "tp": 121.0, "tc": 0.11, "tr": 0.1}

#: Long enough that most of 20 seeds reach full synchronization (mean
#: sync time is ~2e5 s at Tr = 0.1), short enough that the DES row
#: finishes in seconds.
FIG10_HORIZON = 2e5

#: Ceiling for the obs-enabled row's overhead over the plain row.
OBS_BUDGET_PERCENT = 5.0

#: Speedup floor of the compiled batch kernel over the serial cascade,
#: recorded but not a check.
COMPILED_SPEEDUP_TARGET = 10.0

#: Speedup floor of the prediction tier (surrogate p50 vs warm
#: /v1/simulate p50), recorded but not a check.
PREDICT_SPEEDUP_TARGET = 1000.0


# -- the envelope -----------------------------------------------------


def host_info() -> dict:
    """The machine context a wall-clock number was measured in."""
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


def bench_envelope(benchmark: str, payload: dict) -> dict:
    """Wrap one workload's payload in the shared frame.

    The payload's keys land at the top level next to the frame fields
    (snapshots stay greppable); a payload may not shadow a frame field.
    """
    frame = {
        "bench_schema": BENCH_SCHEMA,
        "benchmark": benchmark,
        "model_version": MODEL_VERSION,
        "host": host_info(),
    }
    clash = sorted(set(frame) & set(payload))
    if clash:
        raise ValueError(f"payload shadows envelope field(s): {', '.join(clash)}")
    return {**frame, **payload}


def write_bench_json(path: str | os.PathLike, snapshot: dict) -> Path:
    """Write a snapshot (already enveloped) as stable, diffable JSON."""
    target = Path(path)
    target.write_text(json.dumps(snapshot, indent=2) + "\n")
    return target


# -- the timing rule --------------------------------------------------


def interleaved(
    rows: dict[str, Callable],
    reps: int,
    scratch: Path,
    setup: Callable | None = None,
) -> tuple[dict[str, dict], dict[str, list]]:
    """Time every row once per round over ``reps`` interleaved rounds.

    Each round gets a fresh directory under ``scratch``, so a cold row
    finds its cache empty in every round and a warm row after it reads
    what that round wrote.  ``setup(round_dir)``, if given, is a
    context manager held (untimed) around the round; every row is
    called with its value, else with the round directory.

    Returns ``({row: {"seconds": min, "spread_seconds": max - min}},
    {row: [its outcome in each round]})``, so an identity check can
    cover every timed run, not just the last.
    """
    samples: dict[str, list[float]] = {name: [] for name in rows}
    outcomes: dict[str, list] = {name: [] for name in rows}
    for rep in range(max(1, reps)):
        round_dir = scratch / f"round{rep}"
        round_dir.mkdir()
        with (setup or nullcontext)(round_dir) as env:
            for name, run in rows.items():
                gc.collect()  # the previous row's garbage, outside the timing
                start = perf_counter()
                outcomes[name].append(run(env))
                samples[name].append(perf_counter() - start)
    timed = {
        name: {
            "seconds": round(min(times), 4),
            "spread_seconds": round(max(times) - min(times), 4),
        }
        for name, times in samples.items()
    }
    return timed, outcomes


def _width(row: dict, width: int) -> dict:
    """Record the pool or fleet width a row ran at; flag oversubscription."""
    row["width"] = width
    if width > (os.cpu_count() or 1):
        row["oversubscribed"] = True
    return row


def _speedups(rows: dict[str, dict], baseline: str) -> None:
    base = rows[baseline]["seconds"]
    for row in rows.values():
        row["speedup"] = round(base / row["seconds"], 2) if row["seconds"] else None


# -- the renderer -----------------------------------------------------


def _table(header: list[str], body: list[list[str]]) -> list[str]:
    """Left-aligned columns under a dashed rule."""
    rows = (header, *body)
    widths = [max(len(row[col]) for row in rows) for col in range(len(header))]
    lines = [
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in rows
    ]
    lines.insert(1, "  ".join("-" * width for width in widths))
    return lines


def _yes(flag) -> str:
    return "yes" if flag else "NO"


def _width_cell(row: dict) -> str:
    if "width" not in row:
        return "-"
    return f"{row['width']}" + (" oversubscribed" if row.get("oversubscribed") else "")


#: Row-table columns: (row key, heading, cell format).
_ROW_COLUMNS = (
    ("seconds", "min (s)", "{:.3f}"),
    ("spread_seconds", "spread (s)", "{:.3f}"),
    ("speedup", "speedup", "{:.2f}x"),
    ("jobs_per_s", "jobs/s", "{:.1f}"),
    ("throughput_rps", "req/s", "{:.1f}"),
    ("mean_latency_ms", "mean latency (ms)", "{:.2f}"),
    ("executed", "executed", "{:g}"),
    ("cached", "cached", "{:g}"),
    ("shed", "shed", "{:g}"),
)


def _rows_table(rows: dict[str, dict]) -> list[str]:
    """Rows as one table, with only the columns they carry."""
    columns = [c for c in _ROW_COLUMNS if any(c[0] in row for row in rows.values())]
    body = [
        [name]
        + ["-" if row.get(k) is None else fmt.format(row[k]) for k, _, fmt in columns]
        + [_width_cell(row)]
        for name, row in rows.items()
    ]
    return _table(["row", *(heading for _, heading, _ in columns), "width"], body)


def format_table(snapshot: dict) -> str:
    """Render any workload's snapshot: its table, its checks, its verdict."""
    workload = next(
        w for w in WORKLOADS.values() if w.benchmark == snapshot["benchmark"]
    )
    checks = [f"{name}: {_yes(held)}" for name, held in snapshot["checks"].items()]
    verdict = f"ok: {_yes(snapshot['ok'])}"
    return "\n".join([*workload.table(snapshot), *checks, verdict])


# -- parallel: the Fig-10 ensemble through every execution path -------


def _fig10_specs(horizon: float, seeds, engine: str) -> list[SimulationJob]:
    return [
        SimulationJob(
            seed=seed, horizon=horizon, direction="up", engine=engine, **FIG10_PARAMS
        )
        for seed in seeds
    ]


def _pooled(runner: ParallelRunner, specs: list[SimulationJob]):
    return runner.run(specs), runner


def _run_parallel(
    jobs, scratch, horizon=FIG10_HORIZON, seeds=range(1, 21), reps=3
) -> dict:
    """The 20-seed Fig-10 ensemble: DES and cascade serial, cascade with
    obs on, pooled, and pooled again against the round's warm cache."""
    seeds = list(seeds)
    des = _fig10_specs(horizon, seeds, "des")
    cascade = _fig10_specs(horizon, seeds, "cascade")

    def observed(_round_dir):
        configure(enabled=True)
        try:
            return ParallelRunner(jobs=1).run(cascade), len(obs().tracer)
        finally:
            reset()

    def pooled(round_dir):
        cache = ResultCache(round_dir / "cache")
        return _pooled(ParallelRunner(jobs=jobs, cache=cache), cascade)

    rows, out = interleaved(
        {
            "des_jobs1": lambda _: ParallelRunner(jobs=1).run(des),
            "cascade_jobs1": lambda _: ParallelRunner(jobs=1).run(cascade),
            "cascade_jobs1_obs": observed,
            "cascade_jobsN": pooled,
            "cascade_warm": pooled,
        },
        reps,
        scratch,
    )
    _speedups(rows, "des_jobs1")
    _width(rows["cascade_jobsN"], jobs)
    _width(rows["cascade_warm"], jobs)
    serial = out["cascade_jobs1"][0]
    pooled = [*out["cascade_jobsN"], *out["cascade_warm"]]
    _, spans = out["cascade_jobs1_obs"][-1]
    pooled_runner = out["cascade_jobsN"][-1][1]
    warm_runner = out["cascade_warm"][-1][1]
    plain, with_obs = rows["cascade_jobs1"], rows["cascade_jobs1_obs"]

    def percent(seconds: float) -> float:
        return round(100.0 * seconds / plain["seconds"], 2) if plain["seconds"] else 0.0

    overhead = percent(with_obs["seconds"] - plain["seconds"])
    # Recorded, not gated: an overhead inside this is not resolved by
    # the run, and the budget verdict should be read with it.
    noise = percent(max(plain["spread_seconds"], with_obs["spread_seconds"]))
    return {
        "params": dict(FIG10_PARAMS),
        "horizon_seconds": horizon,
        "n_seeds": len(seeds),
        "jobs": jobs,
        "reps": reps,
        "rows": rows,
        "runs_synchronized": sum(
            1 for r in serial if FIG10_PARAMS["n_nodes"] in r.first_passages
        ),
        # The pooled row should be all ok (or retried, on a flaky box),
        # the warm row all cache hits.
        "run_report_pooled": pooled_runner.report.counts(),
        "run_report_warm": warm_runner.report.counts(),
        "cache_write_errors": sum(runner.cache.write_errors for _, runner in pooled),
        "overhead_percent": overhead,
        "overhead_noise_percent": noise,
        "overhead_budget_percent": OBS_BUDGET_PERCENT,
        "spans_per_run": spans,
        "checks": {
            "results_identical_across_configs": all(
                results == serial
                for results in [
                    *out["des_jobs1"],
                    *out["cascade_jobs1"],
                    *(results for results, _ in pooled),
                ]
            ),
            "results_identical_with_obs": all(
                results == serial for results, _ in out["cascade_jobs1_obs"]
            ),
            "within_budget": overhead < OBS_BUDGET_PERCENT,
        },
    }


def _parallel_table(snapshot: dict) -> list[str]:
    return [
        f"fig10 ensemble: {snapshot['n_seeds']} seeds, horizon "
        f"{snapshot['horizon_seconds']:g} s, {snapshot['host']['cpu_count']} "
        f"CPU(s), min of {snapshot['reps']} interleaved round(s)",
        *_rows_table(snapshot["rows"]),
        "speedup is against des_jobs1, the seed implementation (DES, serial)",
        f"obs overhead (cascade_jobs1_obs vs cascade_jobs1): "
        f"{snapshot['overhead_percent']:+.2f}% "
        f"(noise {snapshot['overhead_noise_percent']:.2f}%, budget "
        f"{snapshot['overhead_budget_percent']:g}%), "
        f"{snapshot['spans_per_run']} spans/run",
    ]


# -- batch: the batched kernel against the serial cascade -------------


def _kernel(specs: list[SimulationJob]) -> list[JobResult]:
    """One batch-kernel pass over the whole ensemble."""
    first = specs[0]
    batch = BatchCascade(first.params, seeds=[spec.seed for spec in specs])
    batch.run(until=first.horizon, stop_on_full_sync=True)
    return [
        JobResult(first_passages=dict(member.first_time_at_least))
        for member in batch.members
    ]


def _run_batch(
    jobs, scratch, horizon=FIG10_HORIZON, seeds=range(1, 101), reps=3
) -> dict:
    """The Fig-10 point as a 100-member ensemble: serial cascade, one
    compiled-kernel pass where the kernel resolves, and batch jobs over
    the pool."""
    seeds = list(seeds)
    batch = _fig10_specs(horizon, seeds, "batch")
    cascade = _fig10_specs(horizon, seeds, "cascade")
    have_compiled = compiled_backend_available()
    row_runs = {"cascade_jobs1": lambda _: ParallelRunner(jobs=1).run(cascade)}
    if have_compiled:
        row_runs["batch_compiled"] = lambda _: _kernel(batch)
    row_runs["batch_jobsN"] = lambda _: _pooled(ParallelRunner(jobs=jobs), batch)
    rows, out = interleaved(row_runs, reps, scratch)
    _speedups(rows, "cascade_jobs1")
    _width(rows["batch_jobsN"], jobs)
    pooled = out.pop("batch_jobsN")
    reference, pooled_runner = pooled[-1]
    compiled = rows.get("batch_compiled")
    return {
        "params": dict(FIG10_PARAMS),
        "horizon_seconds": horizon,
        "n_seeds": len(seeds),
        "jobs": jobs,
        "reps": reps,
        "compiled_available": have_compiled,
        "rows": rows,
        # Recorded, not a check: the compiled kernel's speedup floor.
        "compiled_speedup_met": (
            compiled["speedup"] >= COMPILED_SPEEDUP_TARGET if compiled else None
        ),
        "run_report_pooled": pooled_runner.report.counts(),
        "checks": {
            "results_identical_across_configs": all(
                results == reference
                for results in [
                    *(results for results, _ in pooled),
                    *(results for runs in out.values() for results in runs),
                ]
            ),
        },
    }


def _batch_table(snapshot: dict) -> list[str]:
    lines = [
        f"fig10 ensemble: {snapshot['n_seeds']} members, horizon "
        f"{snapshot['horizon_seconds']:g} s, {snapshot['host']['cpu_count']} "
        f"CPU(s), min of {snapshot['reps']} interleaved round(s)",
        *_rows_table(snapshot["rows"]),
        "speedup is against cascade_jobs1, the serial cascade engine",
    ]
    if snapshot["compiled_available"]:
        lines.append(
            f"compiled speedup >= {COMPILED_SPEEDUP_TARGET:g}x: "
            f"{_yes(snapshot['compiled_speedup_met'])}"
        )
    else:
        lines.append("compiled kernel: not resolvable (row skipped)")
    return lines


# -- serve: loopback load, the prefork fleet, one crash ----------------


def _serve_config(root: Path, jobs: int, clients: int, **fleet) -> ServeConfig:
    return ServeConfig(
        host="127.0.0.1",
        port=0,
        jobs=jobs,
        queue_depth=max(64, clients * 4),
        cache_root=str(root),
        **fleet,
    )


def _load_row(report: dict, width: int) -> dict:
    """One load pass as a row: throughput, the latency histogram, and
    the payload hashes that prove byte-identity."""
    latency = report["latency_seconds"]
    row = {
        "requests": report["requests"],
        "by_status": report["by_status"],
        "throughput_rps": report["throughput_rps"],
        "mean_latency_ms": round(latency.get("mean", 0.0) * 1000, 3),
        "latency_seconds": latency,
        "identical_payloads_per_key": report["identical_payloads_per_key"],
        "payload_sha256": report["payload_sha256"],
    }
    return _width(row, width)


def _run_serve(
    jobs, scratch, clients=8, duration=30.0, seed=1, workers_sweep=(1, 2, 4)
) -> dict:
    """One seeded load plan, cold then warm, against a loopback server;
    then cold and warm through a prefork fleet at each width, each on a
    fresh cache; then one 2-worker fleet (or the widest) with a worker
    SIGKILLed mid-load, against a clean run of the same fleet.

    The plan runs in virtual time (replayed as fast as the server
    answers), the crash pair in real time so a worker can die mid-load.
    Per-worker ``/metrics`` deltas are meaningless across a fleet, so
    only the single server's rows carry executed/cached counts; every
    row proves byte-identity by payload hashes.
    """
    plan = LoadPlan(
        clients=clients,
        period=1.0,
        jitter=0.5,
        duration=duration,
        seed=seed,
        specs=default_specs(),
    )
    rows = {}
    with BackgroundServer(_serve_config(scratch / "single", jobs, clients)) as bg:
        for name in ("cold", "warm"):
            report = run_load(plan, bg.host, bg.port)
            rows[name] = _load_row(report, jobs)
            rows[name].update(
                executed=report["server"]["jobs_executed"],
                cached=report["server"]["cache_hits"],
                shed=report["server"]["shed"],
            )

    def fleet_config(workers: int, tag: str) -> ServeConfig:
        return _serve_config(
            scratch / f"fleet-{tag}",
            jobs,
            clients,
            workers=workers,
            claim_ttl=2.0,
            restart_backoff=0.05,
        )

    for workers in workers_sweep:
        with SupervisedServer(fleet_config(workers, f"w{workers}")) as fleet:
            _await_ready(fleet.host, fleet.port)
            for name in ("cold", "warm"):
                report = run_load(plan, fleet.host, fleet.port)
                rows[f"fleet_w{workers}_{name}"] = _load_row(report, workers)
    cold_hashes = rows["cold"]["payload_sha256"]
    payload = {
        "workload": {
            "clients": clients,
            "duration_virtual_seconds": duration,
            "seed": seed,
            "distinct_jobs": len(plan.specs),
            "jobs": jobs,
        },
        "rows": rows,
        "checks": {
            "warm_served_entirely_from_cache": rows["warm"]["executed"] == 0,
            "payloads_identical_cold_vs_warm": all(
                row["identical_payloads_per_key"]
                and row["payload_sha256"] == cold_hashes
                for row in rows.values()
            ),
        },
    }
    if not workers_sweep:
        return payload

    restart_workers = 2 if 2 in workers_sweep else max(workers_sweep)
    real_time = dataclasses.replace(plan, real_time=True, retries=3)
    with SupervisedServer(fleet_config(restart_workers, "clean")) as fleet:
        _await_ready(fleet.host, fleet.port)
        clean = run_load(real_time, fleet.host, fleet.port)
    chaos = run_chaos_load(
        real_time, fleet_config(restart_workers, "chaos"), kills=1, kill_after=0.3
    )
    rows["restart_clean"] = _load_row(clean, restart_workers)
    rows["restart_chaos"] = _load_row(chaos, restart_workers)
    clean_rps, chaos_rps = clean["throughput_rps"], chaos["throughput_rps"]
    payload["restart"] = {
        "workers": restart_workers,
        "kills": chaos["chaos"]["kills"],
        "restarts": chaos["chaos"]["restarts"],
        "drain_exit_code": chaos["chaos"]["drain_exit_code"],
        "throughput_overhead_pct": (
            round(100.0 * (1.0 - chaos_rps / clean_rps), 1) if clean_rps > 0 else 0.0
        ),
    }
    payload["checks"].update(
        restart_exactly_once_per_key=chaos["chaos"]["exactly_once_per_key"],
        restart_drain_exit_clean=chaos["chaos"]["drain_exit_code"] == 0,
    )
    return payload


def _serve_table(snapshot: dict) -> list[str]:
    workload = snapshot["workload"]
    lines = [
        f"serve loopback load: {workload['clients']} client(s), "
        f"{workload['duration_virtual_seconds']:g} virtual s, "
        f"{workload['distinct_jobs']} distinct job(s); fleet_wN rows are "
        "prefork fleets of N real worker processes",
        *_rows_table(snapshot["rows"]),
    ]
    restart = snapshot.get("restart")
    if restart:
        lines.append(
            f"restart overhead ({restart['workers']} workers, {restart['kills']} "
            f"kill): {restart['throughput_overhead_pct']:+.1f}% throughput, "
            f"{restart['restarts']} respawn(s), drain exit "
            f"{restart['drain_exit_code']}"
        )
    return lines


# -- campaign: orchestration overhead per dispatcher -------------------


def _run_campaign(jobs, scratch, seed_count=8, horizon=4000.0, reps=3) -> dict:
    """One fixed small grid through the local pool cold, through a
    loopback serve instance cold, and locally again against the warm
    cache.  The grid is a Tr sweep at reduced N, so a row measures
    orchestration (chunking, commits, HTTP framing), not the simulator.
    """
    spec = CampaignSpec(
        name="campaign-bench",
        n_nodes=(5,),
        tp=(121.0,),
        tc=(0.11,),
        tr=(0.055, 0.099, 0.165),
        seed_count=seed_count,
        horizon=horizon,
        engine="cascade",
    )

    @contextmanager
    def serving(round_dir: Path):
        # Each round's server starts on an empty cache; rows get both.
        config = ServeConfig(
            host="127.0.0.1", port=0, jobs=jobs, cache_root=str(round_dir / "server")
        )
        with BackgroundServer(config) as bg:
            yield round_dir, bg

    def campaign(env, dispatcher, cache_name: str):
        round_dir, _server = env
        cache = ResultCache(round_dir / cache_name)
        summary = run_campaign(
            spec,
            dispatcher=dispatcher,
            cache=cache,
            checkpoint_root=round_dir / "checkpoints",
        )
        return {"executed": summary.executed, "cached": summary.cached}, cache

    def serve_dispatcher(bg) -> ServeDispatcher:
        return ServeDispatcher(
            endpoints=((bg.host, bg.port),),
            batch_size=8,
            connect_timeout=5.0,
            retries=3,
        )

    def local(env):
        return campaign(env, LocalDispatcher(jobs=jobs), "local")

    rows, out = interleaved(
        {
            "local_cold": local,
            "serve_cold": lambda env: campaign(env, serve_dispatcher(env[1]), "serve"),
            "warm": local,
        },
        reps,
        scratch,
        setup=serving,
    )
    for name, row in rows.items():
        seconds = row["seconds"]
        row["jobs_per_s"] = round(spec.total_jobs / seconds, 2) if seconds else None
        row.update(out[name][-1][0])
        _width(row, jobs)
    reports = {
        report_json(build_report(spec, cache))
        for name in ("local_cold", "serve_cold")
        for _, cache in out[name]
    }
    return {
        "workload": {
            "grid_points": spec.point_count,
            "seed_count": spec.seed_count,
            "total_jobs": spec.total_jobs,
            "horizon": spec.horizon,
            "engine": spec.engine,
            "jobs": jobs,
        },
        "reps": reps,
        "rows": rows,
        "checks": {
            "warm_served_entirely_from_cache": all(
                counts["executed"] == 0 for counts, _ in out["warm"]
            ),
            "reports_identical_local_vs_serve": len(reports) == 1,
        },
    }


def _campaign_table(snapshot: dict) -> list[str]:
    workload = snapshot["workload"]
    return [
        f"campaign dispatch: {workload['grid_points']} grid point(s) x "
        f"{workload['seed_count']} seed(s) = {workload['total_jobs']} job(s), "
        f"engine={workload['engine']}, min of {snapshot['reps']} interleaved "
        "round(s)",
        *_rows_table(snapshot["rows"]),
    ]


# -- predict: the surrogate against warm simulation ---------------------


def _quantiles(samples: list[float], scale: float, unit: str) -> dict:
    samples = sorted(samples)
    return {
        f"p50_{unit}": round(median(samples) * scale, 3),
        f"p95_{unit}": round(samples[int(0.95 * (len(samples) - 1))] * scale, 3),
        f"mean_{unit}": round(fmean(samples) * scale, 3),
    }


def _time_surrogate(
    evaluator: SurrogateEvaluator, queries, memoized: bool, repeats=200, batch=500
) -> dict:
    """Per-query latency of the in-memory evaluator.

    One call is far below what a single ``perf_counter`` delta measures
    honestly, so each sample times a ``batch``-call loop and divides.
    Queries rotate through grid-exact and interpolated points.
    ``memoized`` times ``lookup`` (the serving hot path, memo warmed by
    one rotation first), else the raw interpolation in ``evaluate``.
    """
    evaluate = evaluator.lookup if memoized else evaluator.evaluate
    if memoized:
        for q in queries:
            evaluate(*q)
    samples = []
    for rep in range(repeats):
        start = perf_counter()
        for i in range(batch):
            q = queries[(rep + i) % len(queries)]
            evaluate(q[0], q[1], q[2], q[3])
        samples.append((perf_counter() - start) / batch)
    return {"batch": batch, "repeats": repeats, **_quantiles(samples, 1e6, "us")}


def _time_requests(send, count: int) -> dict:
    """Round-trip quantiles of ``count`` sequential calls of ``send``."""
    samples = []
    for _ in range(count):
        start = perf_counter()
        response = send()
        samples.append(perf_counter() - start)
        if response.status != 200:
            raise RuntimeError(
                f"benchmark request answered {response.status}: "
                f"{response.body[:200]!r}"
            )
    return {"requests": count, **_quantiles(samples, 1e3, "ms")}


def _fallback_check(client: ServeClient, query: dict) -> dict:
    """POST one falling-back predict and prove byte-identity: its body
    must embed the ``/v1/simulate`` payload for the same job as a
    verbatim byte substring (stronger than JSON equality)."""
    predicted = client.predict(query)
    simulated = client.simulate({k: v for k, v in query.items() if k != "tolerance"})
    ok = predicted.status == 200 and simulated.status == 200
    meta = json.loads(predicted.body).get("predict", {}) if ok else {}
    return {
        "query": query,
        "status": predicted.status,
        "reason": meta.get("reason"),
        "fell_back": ok and meta.get("source") == "fallback",
        "byte_identical": ok and simulated.body.rstrip(b"\n") in predicted.body,
    }


def _run_predict(jobs, scratch, simulate_requests=40, fresh_seeds=4) -> dict:
    """Build a table, time the surrogate against warm ``/v1/simulate``,
    audit its bounds on fresh seeds, and check both fallbacks.

    The calibration grid is valid everywhere: ``n >= 10`` with
    ``Tc >= 2 Tr`` keeps every cell synchronized-side (the chain's
    break-up probability is zero), fast to simulate, and uncensored at
    a 2000-round horizon, so the bound audit exercises every cell.
    """
    spec = CampaignSpec(
        name="predict-bench",
        n_nodes=(10, 12),
        tp=(20.0,),
        tc=(0.3,),
        tr=(0.05, 0.1),
        seed_count=12,
        horizon=40000.0,
        engine="cascade",
    )
    cache = ResultCache(scratch)
    start = perf_counter()
    table = build_table(
        spec,
        cache,
        dispatcher=LocalDispatcher(jobs=jobs),
        checkpoint_root=scratch / "checkpoints",
    )
    build_seconds = perf_counter() - start
    table_path = save_table(table, scratch)
    evaluator = SurrogateEvaluator(table)

    tp, tc = spec.tp[0], spec.tc[0]
    queries = [(n, tp, tc, tr) for n in spec.n_nodes for tr in spec.tr] + [
        # Interpolated (off-grid) companions.
        (n + 1, tp, tc, (spec.tr[0] + spec.tr[1]) / 2)
        for n in spec.n_nodes[:-1]
    ]
    surrogate = _time_surrogate(evaluator, queries, memoized=True)
    surrogate_uncached = _time_surrogate(evaluator, queries, memoized=False)

    # The first grid point's job, with the spec's own horizon and seed,
    # so its hash equals a campaign job already in the cache: the
    # warmest answer /v1/simulate can give.
    hit_query = {"n_nodes": spec.n_nodes[0], "tp": tp, "tc": tc, "tr": spec.tr[0]}
    warm_spec = {
        **hit_query,
        "seed": spec.seed_start,
        "horizon": spec.horizon,
        "direction": spec.direction,
        "engine": spec.engine,
    }
    config = ServeConfig(
        host="127.0.0.1",
        port=0,
        jobs=1,
        cache_root=str(scratch),
        predict_table=str(table_path),
    )
    with BackgroundServer(config) as bg:
        with ServeClient(bg.host, bg.port, timeout=60.0) as client:
            client.simulate(warm_spec)  # prime the connection and the cache
            simulate_warm = _time_requests(
                lambda: client.simulate(warm_spec), simulate_requests
            )
            predict_http = _time_requests(
                lambda: client.predict(hit_query), simulate_requests
            )
            hit = json.loads(client.predict(hit_query).body)
            tolerance_zero = _fallback_check(client, {**warm_spec, "tolerance": 0})
            out_of_range = _fallback_check(client, {**warm_spec, "tr": 5.0})
            health = json.loads(client.healthz().body)

    verify = verify_table(table, cache, seed_count=fresh_seeds, jobs=jobs)
    surrogate_p50 = surrogate["p50_us"] / 1e6
    speedup = simulate_warm["p50_ms"] / 1e3 / surrogate_p50 if surrogate_p50 else 0.0
    workload = {
        "spec": spec.to_dict(),
        "table_id": table["table_id"],
        "table_cells": len(table["cells"]),
        "valid_cells": sum(1 for c in table["cells"] if c["valid"]),
        "build_seconds": round(build_seconds, 3),
    }
    return {
        "workload": _width(workload, jobs),
        "surrogate": surrogate,
        "surrogate_uncached": surrogate_uncached,
        "simulate_warm": simulate_warm,
        "predict_http": predict_http,
        "speedup_p50": round(speedup, 1),
        "meets_1000x": speedup >= PREDICT_SPEEDUP_TARGET,
        "surrogate_hit": hit.get("predict", {}),
        "healthz": {
            "model_version": health.get("model_version"),
            "predict_table": health.get("predict_table"),
        },
        "verify": _width(verify, jobs),
        "fallback": {"tolerance_zero": tolerance_zero, "out_of_range": out_of_range},
        "checks": {
            "all_in_bound": verify["all_in_bound"],
            "fallback_byte_identical": (
                tolerance_zero["byte_identical"] and out_of_range["byte_identical"]
            ),
            "out_of_range_falls_back": (
                out_of_range["fell_back"] and out_of_range["reason"] == "out_of_range"
            ),
        },
    }


def _predict_table(snapshot: dict) -> list[str]:
    workload, verify = snapshot["workload"], snapshot["verify"]
    paths = [
        ("surrogate (memo-warm)", snapshot["surrogate"], "us"),
        ("surrogate (uncached)", snapshot["surrogate_uncached"], "us"),
        ("/v1/predict (loopback)", snapshot["predict_http"], "ms"),
        ("/v1/simulate warm (loopback)", snapshot["simulate_warm"], "ms"),
    ]
    quantiles = ("p50", "p95", "mean")
    last_seed = verify["seed_start"] + verify["seed_count"] - 1
    return [
        f"prediction tier: table {workload['table_id']} "
        f"({workload['valid_cells']}/{workload['table_cells']} cells valid, "
        f"built in {workload['build_seconds']:g}s at width {_width_cell(workload)})",
        *_table(
            ["path", "p50", "p95", "mean"],
            [
                [label, *(f"{row[f'{q}_{unit}']:.3f} {unit}" for q in quantiles)]
                for label, row, unit in paths
            ],
        ),
        f"speedup p50 (surrogate vs warm simulate): {snapshot['speedup_p50']:g}x "
        f"(>= {PREDICT_SPEEDUP_TARGET:g}x: {_yes(snapshot['meets_1000x'])})",
        f"bound audit: {verify['cells_checked']} cell(s) on fresh seeds "
        f"{verify['seed_start']}..{last_seed}",
    ]


# -- the registry ------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """One declared benchmark: ``run(jobs, scratch, **size)`` returns the
    payload with its ``checks``; ``table`` renders the snapshot's numbers."""

    run: Callable[..., dict]
    table: Callable[[dict], list[str]]
    benchmark: str
    output: str


WORKLOADS = {
    "parallel": Workload(
        _run_parallel,
        _parallel_table,
        "fig10_first_passage_ensemble",
        "BENCH_parallel.json",
    ),
    "batch": Workload(
        _run_batch, _batch_table, "fig10_batch_kernel", "BENCH_batch.json"
    ),
    "serve": Workload(
        _run_serve, _serve_table, "serve_loopback_load", "BENCH_serve.json"
    ),
    "campaign": Workload(
        _run_campaign, _campaign_table, "campaign_dispatch", "BENCH_campaign.json"
    ),
    "predict": Workload(
        _run_predict, _predict_table, "predict_surrogate", "BENCH_predict.json"
    ),
}


def run_benchmark(
    name: str = "parallel",
    jobs: int | None = None,
    output: str | os.PathLike | None = None,
    **size,
) -> dict:
    """Run one declared workload; return (and optionally write) its snapshot.

    ``jobs`` is the width of the rows that run a pool (default: the CPU
    count); ``size`` overrides the workload's scale keywords (the
    defaults reproduce the committed snapshots).
    """
    workload = WORKLOADS[name]
    with tempfile.TemporaryDirectory(prefix=f"repro-bench-{name}-") as scratch:
        payload = workload.run(jobs or os.cpu_count() or 1, Path(scratch), **size)
    payload["ok"] = all(payload["checks"].values())
    snapshot = bench_envelope(workload.benchmark, payload)
    if output is not None:
        write_bench_json(output, snapshot)
    return snapshot

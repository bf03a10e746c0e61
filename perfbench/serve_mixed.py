"""Workload ``serve-mixed``: ``repro-sync serve`` under open-loop load.

The server runs in its own process with its defaults (``jobs=1``, a
fresh cache) and a prediction table built during set-up from a small
calibration campaign, whose jobs also fill the cache: they are the warm
``/v1/simulate`` keys.  The server is pinned to one CPU and the one
benchmark process that drives it to another:

1. the **mix**, open loop on a seeded Poisson schedule over at most
   ``nproc`` keep-alive connections: warm ``/v1/simulate`` on the
   calibration keys, in-region ``/v1/predict``, and a minority of
   ``/v1/simulate`` on never-seen seeds at the Fig-10 point (these must
   compute);
2. a fixed **ladder** of warm + predict rates, for ``sustained_rps``;
3. alternating closed-loop **bursts** of cold and of warm
   ``/v1/simulate`` over ``nproc`` connections, for ``jobs_per_s`` (per
   wall second) and ``warm_jobs_per_s`` (per second of server CPU).

Every simulate body is checked byte for byte against
``simulation_payload(job, run_job(job))`` computed in-process, and every
predict body against ``PredictService.resolve`` on the same table.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import re
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field

from .common import (
    PINS,
    Outcome,
    Rate,
    cache_rows,
    core_rows,
    process_peak_rss_mb,
    subprocess_env,
    wall_rows,
    workdir,
)
from .loadgen import Request, closed_loop, get_json_bytes, open_loop, poisson_dues
from .speed import ALL_CPUS, CLIENT_CPU, MAIN_CPU, pinned
from .stats import attribute, due_latency, lateness, lateness_grows, median, tail

#: Mix rate (requests/s) and shares of warm simulate, predict, cold simulate.
MIX_RATE = 400.0
MIX_SHARES = (("warm", 0.48), ("predict", 0.44), ("cold", 0.08))
#: Warm + predict ladder rates (requests/s), lowest first.
LADDER = (150.0, 300.0, 600.0)
#: A ladder step whose lateness grows by more than this (s) is backlogged.
LATENESS_GROWTH_S = 0.005
#: Shares of the run: mix, each ladder step, cold bursts, warm bursts.
SHARE_MIX, SHARE_STEP, SHARE_COLD, SHARE_WARM = 0.35, 0.05, 0.2, 0.3
#: The cold and warm bursts alternate in this many rounds.
BURST_ROUNDS = 6
#: Cold specs: the Fig-10 point with a horizon short enough to keep a
#: cold request in the tens of milliseconds.
COLD_POINT = dict(n_nodes=20, tp=121.0, tc=0.11, tr=0.1, horizon=1e4)


def calibration_spec():
    """The campaign the predict table is built from (and the warm keys):
    a small grid, all inside the table's validity region."""
    from repro.campaign import CampaignSpec

    return CampaignSpec(
        name="perfbench-predict",
        n_nodes=(10, 12),
        tp=(20.0,),
        tc=(0.3,),
        tr=(0.05, 0.1),
        seed_count=12,
        horizon=40000.0,
    )


@dataclass
class Server:
    """A ``repro serve`` child process plus its cache and table."""

    root: object
    proc: subprocess.Popen
    host: str
    port: int
    table: dict
    table_build_s: float
    warm_jobs: list

    def cpu_seconds(self) -> float:
        """CPU time the server process (all its threads) has used so far,
        from its process CPU-time clock (Linux clock id ``~pid << 3 | 2``)."""
        return time.clock_gettime(((~self.proc.pid) << 3) | 2)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def start_server() -> Server:
    """Set-up: build the table (filling the cache), boot the server to
    ready, and pre-warm it with one request per warm key."""
    from repro.parallel import ResultCache
    from repro.predict import build_table, save_table

    root = workdir("serve")
    cache_root = root / "cache"
    t0 = time.perf_counter()
    spec = calibration_spec()
    table = build_table(spec, ResultCache(cache_root), checkpoint_root=root / "journals")
    path = save_table(table, cache_root)
    table_build_s = time.perf_counter() - t0
    with open(root / "server.log", "w") as log, pinned({MAIN_CPU}):
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--port", "0",
                "--cache-root", str(cache_root), "--predict-table", str(path),
            ],
            cwd=root,
            env=subprocess_env(),
            stdout=subprocess.PIPE,
            stderr=log,
            text=True,
        )
    line = proc.stdout.readline()
    match = re.search(r"serving on http://([\d.]+):(\d+)", line)
    if match is None:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"server did not start: {line!r}")
    server = Server(root, proc, match.group(1), int(match.group(2)), table, table_build_s, list(spec.jobs()))
    try:
        warm = [_simulate(job, "warm", i) for i, job in enumerate(server.warm_jobs)]
        results = asyncio.run(open_loop(server.host, server.port, warm, 1))
        if any(r.status != 200 for r in results):
            raise RuntimeError("pre-warm request failed")
    except BaseException:
        server.stop()
        raise
    return server


def setup_probe():
    return start_server().stop


def _simulate(job, kind: str, ref: int, due: float = 0.0) -> Request:
    return Request(kind, "/v1/simulate", json.dumps(job.to_dict()).encode(), due, ref)


def cold_job(seed: int, index: int):
    """The ``index``-th never-seen cold spec of a run."""
    from repro.parallel import SimulationJob

    return SimulationJob(seed=10_000_000 * (seed % 1000 + 1) + index, **COLD_POINT)


def predict_queries(rng: random.Random, count: int) -> list[dict]:
    """In-region queries: N in the table's range, Tr inside its grid."""
    return [
        {"n_nodes": rng.choice((10, 11, 12)), "tp": 20.0, "tc": 0.3,
         "tr": round(rng.uniform(0.05, 0.1), 4)}
        for _ in range(count)
    ]


@dataclass
class Plan:
    """The generated inputs of one run and what each must answer."""

    seed: int
    cold: list = field(default_factory=list)  # cold jobs, by ref
    queries: list = field(default_factory=list)  # predict queries, by ref
    next_cold: int = 0

    def cold_request(self, due: float = 0.0) -> Request:
        job = cold_job(self.seed, self.next_cold)
        self.next_cold += 1
        self.cold.append(job)
        return _simulate(job, "cold", len(self.cold) - 1, due)

    def predict_request(self, query: dict, due: float = 0.0) -> Request:
        self.queries.append(query)
        return Request("predict", "/v1/predict", json.dumps(query).encode(), due, len(self.queries) - 1)


def schedule(plan: Plan, rng: random.Random, warm_jobs, rate, duration, shares) -> list[Request]:
    """A seeded Poisson schedule over the request kinds in ``shares``."""
    kinds = [k for k, _ in shares]
    weights = [w for _, w in shares]
    requests = []
    for due in poisson_dues(rng, rate, duration):
        kind = rng.choices(kinds, weights)[0]
        if kind == "warm":
            i = rng.randrange(len(warm_jobs))
            requests.append(_simulate(warm_jobs[i], "warm", i, due))
        elif kind == "predict":
            requests.append(plan.predict_request(predict_queries(rng, 1)[0], due))
        else:
            requests.append(plan.cold_request(due))
    return requests


async def _counters(server: Server) -> dict:
    status, body = await get_json_bytes(server.host, server.port, "/metrics")
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    return {k: v.get("value", 0) for k, v in json.loads(body)["serve"].items() if isinstance(v, dict)}


def _delta(before: dict, after: dict, name: str) -> float:
    return after.get(name, 0) - before.get(name, 0)


class Checker:
    """The correctness gate: expected bytes for every answer."""

    def __init__(self, server: Server) -> None:
        from repro.predict import PredictService

        self.server = server
        self.service = PredictService(server.table)
        self._warm: dict[int, bytes] = {}
        self.cold_compute_s: list[float] = []

    def warm(self, ref: int) -> bytes:
        from repro.parallel import run_job
        from repro.serve import simulation_payload

        if ref not in self._warm:
            job = self.server.warm_jobs[ref]
            self._warm[ref] = simulation_payload(job, run_job(job))
        return self._warm[ref]

    def cold(self, job) -> bytes:
        from repro.parallel import run_job
        from repro.serve import simulation_payload

        t0 = time.perf_counter()
        result = run_job(job)
        self.cold_compute_s.append(time.perf_counter() - t0)
        return simulation_payload(job, result)

    def predict(self, query: dict) -> bytes:
        from repro.predict import parse_query
        from repro.serve.http import canonical_json

        verdict = self.service.resolve(*parse_query(query))
        if verdict[0] != "surrogate":
            return b"fallback: " + repr(verdict).encode()
        return canonical_json({"predict": verdict[1]})

    def check(self, out: Outcome, plan: Plan, results) -> None:
        bad = 0
        for r in results:
            kind, ref = r.request.kind, r.request.ref
            if kind == "warm":
                expected = self.warm(ref)
            elif kind == "cold":
                expected = self.cold(plan.cold[ref])
            else:
                expected = self.predict(plan.queries[ref])
            if r.status != 200 or r.body != expected:
                bad += 1
        if bad:
            out.fail(bad, f"{bad} answer(s) failed the byte gate or were not 200")


def _latency_ms(results, kind: str) -> list[float]:
    return [due_latency(r.due, r.done) * 1e3 for r in results if r.request.kind == kind]


def _tail_metric(out: Outcome, name: str, samples: list[float], q: float) -> None:
    t = tail(samples, q)
    out.metric(name, t.value, "ms")
    if t.note:
        out.record.setdefault("tail_notes", {})[name] = t.note


def _ladder_step(server: Server, plan: Plan, rng, rate, seconds, limit_ms, conns):
    requests = schedule(plan, rng, server.warm_jobs, rate, seconds, (("warm", 0.5), ("predict", 0.5)))
    results = asyncio.run(open_loop(server.host, server.port, requests, conns))
    warm = _latency_ms(results, "warm")
    t = tail(warm, 0.99)
    late = [lateness(r.due, r.sent) for r in sorted(results, key=lambda r: r.due)]
    span = max(r.done for r in results) - min(r.due for r in results)
    row = {
        "rate": rate,
        "achieved_rps": len(results) / span,
        "warm_tail_ms": t.value,
        "warm_tail_quantile": t.quantile,
        "late_grows": lateness_grows(late, LATENESS_GROWTH_S),
        "ok": all(r.status == 200 for r in results),
    }
    row["meets"] = row["ok"] and t.value <= limit_ms and not row["late_grows"]
    return row, results


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    conns = os.cpu_count() or 1
    out.record.update(pool_width=1, connections=conns, mix_rate=MIX_RATE, ladder=list(LADDER))
    server = start_server()
    try:
        out.record["table_id"] = server.table["table_id"]
        with pinned({CLIENT_CPU}):
            if trace:
                _traced(out, server, seed, seconds, conns)
            else:
                _measure(out, server, seed, seconds, conns)
        out.metric("peak_rss_mb", process_peak_rss_mb(server.proc.pid), "MB")
    finally:
        server.stop()
    return out


def _burst(server: Server, make, conns: int, seconds: float):
    """One closed-loop burst: its results and ``(requests, wall seconds,
    span, server CPU seconds, jobs executed)``."""
    before = asyncio.run(_counters(server))
    cpu0, t0 = server.cpu_seconds(), time.monotonic()
    results, elapsed = asyncio.run(closed_loop(server.host, server.port, make, conns, seconds))
    cpu1, t1 = server.cpu_seconds(), time.monotonic()
    after = asyncio.run(_counters(server))
    executed = _delta(before, after, "serve.jobs.executed")
    return results, (len(results), elapsed, (t0, t1), cpu1 - cpu0, executed)


def _timed_mix(server: Server, plan: Plan, seed: int, seconds: float, conns: int):
    """An untraced mix on the seed's schedule: results and monotonic span."""
    t0 = time.monotonic()
    results, _, _ = _mix(server, plan, random.Random(seed), seconds, conns)
    return results, (t0, time.monotonic())


def _mix(server: Server, plan: Plan, rng, seconds: float, conns: int):
    requests = schedule(plan, rng, server.warm_jobs, MIX_RATE, seconds, MIX_SHARES)
    before = asyncio.run(_counters(server))
    results = asyncio.run(open_loop(server.host, server.port, requests, conns))
    after = asyncio.run(_counters(server))
    return results, before, after


def _measure(out: Outcome, server: Server, seed: int, seconds: float, conns: int) -> None:
    rng = random.Random(seed)
    plan = Plan(seed)
    checker = Checker(server)
    limit = PINS["serve-mixed"]["warm_p99_limit_ms"]

    results, before, after = _mix(server, plan, rng, SHARE_MIX * seconds, conns)
    all_results = list(results)
    cold_n = sum(1 for r in results if r.request.kind == "cold")
    executed = _delta(before, after, "serve.jobs.executed")
    if executed != cold_n:
        out.fail(abs(int(executed - cold_n)), f"mix executed {executed} jobs for {cold_n} cold requests")
    for name in ("serve.shed", "serve.timeouts"):
        if _delta(before, after, name):
            out.fail(int(_delta(before, after, name)), f"{name} rose during the mix")
    _tail_metric(out, "warm_p50_ms", _latency_ms(results, "warm"), 0.5)
    _tail_metric(out, "warm_p99_ms", _latency_ms(results, "warm"), 0.99)
    _tail_metric(out, "cold_p50_ms", _latency_ms(results, "cold"), 0.5)
    _tail_metric(out, "cold_p90_ms", _latency_ms(results, "cold"), 0.9)
    _tail_metric(out, "predict_p50_ms", _latency_ms(results, "predict"), 0.5)
    _tail_metric(out, "predict_p99_ms", _latency_ms(results, "predict"), 0.99)
    late = [lateness(r.due, r.sent) * 1e3 for r in results]
    out.record["mix"] = {
        "requests": len(results), "cold": cold_n, "executed": executed,
        "gen_late_p99_ms": tail(late, 0.99).value,
    }

    warm_jobs = server.warm_jobs
    steps, sustained = [], None
    before = asyncio.run(_counters(server))
    for rate in LADDER:
        row, step_results = _ladder_step(
            server, plan, rng, rate, SHARE_STEP * seconds, limit, conns
        )
        steps.append(row)
        all_results.extend(step_results)
        if row["meets"]:
            sustained = row["achieved_rps"]
    after = asyncio.run(_counters(server))
    if _delta(before, after, "serve.jobs.executed"):
        out.fail(int(_delta(before, after, "serve.jobs.executed")), "the warm ladder executed jobs")
    out.record["ladder"] = steps
    out.metric("sustained_rps", sustained or 0.0, "req/s")

    cold_chunks, warm_chunks, cold, warm = [], [], [], []
    for _ in range(BURST_ROUNDS):
        results, (n, wall, span, _cpu, executed) = _burst(
            server, lambda i: plan.cold_request(), conns, SHARE_COLD * seconds / BURST_ROUNDS
        )
        cold_chunks.append((n, wall, span))
        cold += results
        if executed != n:
            out.fail(n, f"a cold burst executed {executed} jobs for {n} requests")
        results, (n, _wall, span, cpu, executed) = _burst(
            server, lambda i: _simulate(warm_jobs[i % len(warm_jobs)], "warm", i % len(warm_jobs)),
            conns, SHARE_WARM * seconds / BURST_ROUNDS,
        )
        warm_chunks.append((n, cpu, span))
        warm += results
        if executed:
            out.fail(n, f"a warm burst executed {executed} jobs")
    # Cold bursts: compute throughput on the server's CPU, per wall
    # second.  Warm bursts: answers per second of server CPU time, as
    # between warm requests the server waits on wake-ups whose cost
    # swings with the host's load.
    out.rate("jobs_per_s", cold_chunks, {MAIN_CPU}, "jobs/s")
    out.rate("warm_jobs_per_s", warm_chunks, {MAIN_CPU}, "jobs/s")

    all_results += cold + warm
    out.attempted = len(all_results)
    checker.check(out, plan, all_results)
    out.record["cold_compute_p50_ms"] = median(checker.cold_compute_s) * 1e3


def _traced(out: Outcome, server: Server, seed: int, seconds: float, conns: int) -> None:
    """The mix untraced, traced, and untraced again on one schedule (warm
    and predict bodies must match byte for byte; cold seeds are fresh),
    with the in-process floors inside the traced window: cache read +
    payload, ``run_job`` on the cold specs, ``resolve``."""
    from repro import obs
    from repro.parallel import ResultCache
    from repro.predict import parse_query
    from repro.serve import simulation_payload

    from .trace import Recorder, install

    # Untraced, traced, untraced again on one schedule: the traced mix is
    # compared with the mean of the two around it.
    mix_s = seconds / 3
    plan = Plan(seed)
    checker = Checker(server)
    plain = [_timed_mix(server, plan, seed, mix_s, conns)]
    rec = Recorder()
    obs.configure(enabled=True)
    install(rec)
    try:
        t0 = time.perf_counter()
        requests = schedule(plan, random.Random(seed), server.warm_jobs, MIX_RATE, mix_s, MIX_SHARES)
        before = asyncio.run(_counters(server))
        m0 = time.monotonic()
        traced = asyncio.run(_traced_loop(server, requests, conns, rec))
        traced_span = (m0, time.monotonic())
        after = asyncio.run(_counters(server))
        cache = ResultCache(server.root / "cache")
        floor = []
        with rec.span("bench.floors", "bench"):
            for job in server.warm_jobs:
                f0 = time.perf_counter()
                with rec.span("serve.payload", "serve"):
                    simulation_payload(job, cache.get(job))
                floor.append(time.perf_counter() - f0)
            resolve = []
            for query in plan.queries:
                job, tolerance = parse_query(query)
                f0 = time.perf_counter()
                with rec.span("predict.resolve", "predict"):
                    checker.service.resolve(job, tolerance)
                resolve.append(time.perf_counter() - f0)
            checker.check(out, plan, traced)
        t1 = time.perf_counter()
    finally:
        obs.reset()
        rec.uninstall()
    cold_compute = median(checker.cold_compute_s) * 1e3
    plain.append(_timed_mix(server, plan, seed, mix_s, conns))
    for results, _span in plain:
        checker.check(out, plan, results)
    out.attempted = len(traced) + sum(len(results) for results, _ in plain)
    by_key = lambda results: sorted(
        (r.request.due, r.request.kind, r.body) for r in results if r.request.kind != "cold"
    )
    if not by_key(plain[0][0]) == by_key(traced) == by_key(plain[1][0]):
        out.fail(len(traced), "traced warm/predict bodies differ from the untraced runs")
    cold_n = sum(1 for r in traced if r.request.kind == "cold")
    layers = out.layers
    core_rows(layers, rec, "cold_p50_ms and jobs_per_s (in-process replay of the cold specs)")
    cache_rows(layers, rec, "warm_p50_ms (in-process floor reads)")
    warm_lat = _latency_ms(traced, "warm")
    warm_p50 = median(warm_lat)
    layers.put("serve.gen_late_ms", tail([lateness(r.due, r.sent) * 1e3 for r in traced], 0.99).value, "ms", "none (generator health)")
    layers.put("serve.warm_floor_ms", median(floor) * 1e3, "ms", "warm_p50_ms")
    layers.put("serve.warm_overhead_ms", warm_p50 - median(floor) * 1e3, "ms", "warm_p50_ms, warm_p99_ms and sustained_rps")
    layers.put("serve.cold_compute_ms", cold_compute, "ms", "cold_p50_ms and cold_p90_ms")
    layers.put("serve.cold_overhead_ms", median(_latency_ms(traced, "cold")) - cold_compute, "ms", "cold_p50_ms")
    for row, counter in (
        ("serve.jobs_executed", "serve.jobs.executed"),
        ("serve.cache_hits", "serve.jobs.cache_hits"),
        ("serve.coalesce_followers", "serve.coalesce.followers"),
        ("serve.shed", "serve.shed"),
        ("serve.timeouts", "serve.timeouts"),
    ):
        layers.put(row, _delta(before, after, counter), "count", "warm_p50_ms and cold_p50_ms")
    hits = _delta(before, after, "serve.jobs.cache_hits")
    executed = _delta(before, after, "serve.jobs.executed")
    layers.put("serve.cache_hit_ratio", hits / (hits + executed) if hits + executed else 0.0, "ratio", "warm_p50_ms")
    if executed != cold_n:
        out.fail(abs(int(executed - cold_n)), f"traced mix executed {executed} jobs for {cold_n} cold requests")
    resolve_us = median(resolve) * 1e6
    predict_p50 = median(_latency_ms(traced, "predict"))
    layers.put("predict.resolve_us", resolve_us, "us", "predict_p50_ms")
    layers.put("predict.overhead_ms", predict_p50 - resolve_us / 1e3, "ms", "predict_p50_ms and predict_p99_ms")
    p_hits = _delta(before, after, "serve.predict.hits")
    p_fall = _delta(before, after, "serve.predict.fallbacks")
    layers.put("predict.hits", p_hits, "count", "predict_p50_ms")
    layers.put("predict.fallbacks", p_fall, "count", "predict_p99_ms (a fallback takes the simulate path)")
    layers.put("predict.hit_ratio", p_hits / (p_hits + p_fall) if p_hits + p_fall else 0.0, "ratio", "predict_p50_ms")
    layers.put("predict.table_build_s", server.table_build_s, "s", "setup_s")
    for name, unit in (("topo.coupling_s", "s"), ("topo.mean_degree", "count"), ("topo.diameter", "count")):
        layers.absent(name, unit, "serve-mixed specs are clique")
    layers.absent("parallel.pool_wall_s", "s", "the server runs jobs=1 in-process")
    layers.absent("parallel.pool_efficiency", "ratio", "the server runs jobs=1 in-process")
    spans = [s for s in rec.finished() if s.layer != "bench"]
    self_s, unattributed = attribute(spans, t0, t1)
    wall_rows(layers, self_s, unattributed, t1 - t0)
    # One "operation" per median warm latency: the rates compare as the
    # inverse latencies do.
    p50_rate = lambda results, span: Rate([(1, median(_latency_ms(results, "warm")) / 1e3, span)], ALL_CPUS, "1/s")
    out.overhead = ([p50_rate(*mix) for mix in plain], p50_rate(traced, traced_span), "warm_p50_ms")
    out.recorder = rec


async def _traced_loop(server: Server, requests, conns: int, rec) -> list:
    """The open loop, then one client-side span per request, from its
    send to its answer (layer ``predict`` for predict, else ``serve``)."""
    results = await open_loop(server.host, server.port, requests, conns)
    to_perf = time.perf_counter() - asyncio.get_running_loop().time()
    for i, r in enumerate(results):
        layer = "predict" if r.request.kind == "predict" else "serve"
        rec.record(f"{layer}.{r.request.kind}", layer, r.sent + to_perf, r.done + to_perf, i)
    return results

"""Workload ``sparse-campaign``: campaigns on sparse coupling graphs.

``run_campaign`` over one :class:`~repro.campaign.CampaignSpec` per
graph (ring, binary tree, an Erdős–Rényi graph at the connectivity
threshold), all at the fig16/fig17 base point N=10, Tp=20 s, Tc=2 s,
Tr=1 s, sharing one fresh ``ResultCache`` and a ``LocalDispatcher``
pool as wide as the host has CPUs.  Cold passes compute new seed ranges
(cache writes and journal records); warm passes replay every spec run
so far against the filled cache and must execute nothing.  Pass 0 is
seeds 1..80, whose reports are pinned in ``pins.json``; later passes
take seeds derived from the workload seed, and a sample of them is
recomputed in-process with the batch engine.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

from .common import (
    PINS,
    Outcome,
    Rate,
    cache_rows,
    core_rows,
    peak_rss_mb,
    sha256,
    wall_rows,
    workdir,
)
from .speed import ALL_CPUS, MAIN_CPU, pinned
from .stats import attribute

#: The graphs, as ``repro.topo`` specs.  The Erdős–Rényi graph uses
#: p = 0.23 ~ ln(10)/10 with a graph seed whose draw is connected, so
#: every run can synchronize.
TOPOLOGIES = ("ring", "tree(b=2)", "erdos_renyi(p=0.23,seed=16)")
N, TP, TC, TR = 10, 20.0, 2.0, 1.0
HORIZON = 1e5
SEEDS_PER_SPEC = 80
#: Seconds of warm replays after each cold pass, per second of that pass.
WARM_RATIO = 0.4


def pool_width() -> int:
    return os.cpu_count() or 1


def pass_specs(seed: int, k: int) -> list:
    """The campaign specs of cold pass ``k``."""
    from repro.campaign import CampaignSpec

    if k == 0:
        start = 1
    else:
        start = 1_000_000 * (seed % 1000 + 1) + SEEDS_PER_SPEC * (k - 1)
    return [
        CampaignSpec(
            name=f"sparse-{i}",
            n_nodes=N,
            tp=TP,
            tc=TC,
            tr=TR,
            seed_start=start,
            seed_count=SEEDS_PER_SPEC,
            horizon=HORIZON,
            topology=topology,
        )
        for i, topology in enumerate(TOPOLOGIES)
    ]


def setup_probe():
    """Set-up as a user pays it: imports, a fresh cache, the specs, the
    coupling graphs and the dispatcher."""
    from repro.campaign import LocalDispatcher
    from repro.parallel import ResultCache
    from repro.topo import Coupling

    root = workdir("sparse-probe")
    ResultCache(root / "cache")
    for spec in pass_specs(0, 0):
        Coupling(spec.topology, N)
    LocalDispatcher(jobs=pool_width())
    return None


@dataclass
class Passes:
    """What one run of interleaved cold and warm passes did."""

    reports: list = field(default_factory=list)  # report bytes per cold pass
    cold: list = field(default_factory=list)  # (jobs, seconds, span) chunks
    warm: list = field(default_factory=list)
    replays: list = field(default_factory=list)  # warm replays after each pass
    warm_executed: int = 0
    executed: int = 0
    cached: int = 0
    ok: int = 0
    submitted: int = 0
    cache: object = None

    @property
    def cold_jobs(self) -> int:
        return sum(c for c, _, _ in self.cold)

    @property
    def warm_jobs(self) -> int:
        return sum(c for c, _, _ in self.warm)


def _campaign(spec, dispatcher, cache, root, rec=None):
    from repro.campaign import run_campaign

    kwargs = dict(dispatcher=dispatcher, cache=cache, checkpoint_root=root / "journals")
    if rec is None:
        return run_campaign(spec, **kwargs)
    with rec.span("campaign.run_campaign", "campaign"):
        return run_campaign(spec, **kwargs)


def _report(specs, cache) -> bytes:
    from repro.campaign import build_report, report_json

    return "".join(report_json(build_report(spec, cache)) for spec in specs).encode()


def _passes(seed: int, seconds: float | None = None, plan=None, rec=None) -> Passes:
    """Cold passes, each followed by warm replays (one spec at a time,
    round robin over every spec run so far) for :data:`WARM_RATIO` of the
    pass's time; until ``seconds`` pass, or exactly the passes and replays
    of an earlier ``plan``."""
    from repro.campaign import LocalDispatcher
    from repro.parallel import ResultCache

    root = workdir("sparse")
    out = Passes(cache=ResultCache(root / "cache"))
    dispatcher = LocalDispatcher(jobs=pool_width())
    done_specs = []
    replay = 0
    start = time.monotonic()
    while True:
        k = len(out.reports)
        specs = pass_specs(seed, k)
        jobs = 0
        t0 = time.monotonic()
        for spec in specs:
            summary = _campaign(spec, dispatcher, out.cache, root, rec)
            jobs += summary.total
            out.executed += summary.executed
            out.cached += summary.cached
            counts = dispatcher.report.counts()
            out.ok += counts["ok"] + counts["retried"]
            out.submitted += dispatcher.report.submitted
        t1 = time.monotonic()
        out.cold.append((jobs, t1 - t0, (t0, t1)))
        out.reports.append(_report(specs, out.cache))
        done_specs.extend(specs)
        jobs = done = 0
        with pinned({MAIN_CPU}):
            w0 = time.monotonic()
            while True:
                summary = _campaign(done_specs[replay % len(done_specs)], dispatcher, out.cache, root, rec)
                jobs += summary.total
                out.warm_executed += summary.executed
                out.executed += summary.executed
                out.cached += summary.cached
                replay += 1
                done += 1
                w1 = time.monotonic()
                if plan is not None:
                    if done >= plan.replays[k]:
                        break
                elif w1 - w0 >= WARM_RATIO * (t1 - t0):
                    break
        out.warm.append((jobs, w1 - w0, (w0, w1)))
        out.replays.append(done)
        if plan is not None:
            if len(out.reports) >= len(plan.reports):
                return out
        elif w1 - start >= seconds:
            return out


def _recompute(seed: int, k: int, cache) -> int:
    """Jobs of cold pass ``k`` whose cached result differs from an
    in-process batch-engine run of the same spec."""
    from repro.parallel import run_batch

    bad = 0
    for spec in pass_specs(seed, k):
        jobs = list(spec.jobs())
        batch_jobs = [type(job).from_dict({**job.to_dict(), "engine": "batch"}) for job in jobs]
        for job, result in zip(jobs, run_batch(batch_jobs)):
            cached = cache.get(job)
            if cached is None or cached.to_dict() != result.to_dict():
                bad += 1
    return bad


def _gate(out: Outcome, seed: int, run: Passes) -> None:
    expected = PINS["sparse-campaign"]["pass0_report_sha256"]
    got = sha256(run.reports[0])
    if got != expected:
        out.fail(len(TOPOLOGIES) * SEEDS_PER_SPEC, f"pass 0 report {got} != pinned {expected}")
    for k in sorted({1, len(run.reports) - 1} - {0}):
        if k < len(run.reports):
            bad = _recompute(seed, k, run.cache)
            if bad:
                out.fail(bad, f"pass {k}: {bad} result(s) differ from the batch engine")
    if run.warm_executed:
        out.fail(run.warm_executed, f"warm passes executed {run.warm_executed} job(s)")
    if run.submitted != run.cold_jobs or run.ok != run.cold_jobs:
        out.fail(run.cold_jobs - run.ok, f"pool ran {run.ok} of {run.cold_jobs} cold job(s) ok")


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    out.record.update(
        pool_width=pool_width(), topologies=list(TOPOLOGIES), horizon=HORIZON,
        seeds_per_spec=SEEDS_PER_SPEC, resolved_engine=pass_specs(seed, 0)[0].engine,
    )
    if trace:
        return _traced(out, seed, seconds)
    run_ = _passes(seed, seconds)
    out.attempted = run_.cold_jobs + run_.warm_jobs
    out.rate("jobs_per_s", run_.cold, ALL_CPUS, "jobs/s")
    out.rate("warm_jobs_per_s", run_.warm, {MAIN_CPU}, "jobs/s")
    out.metric("peak_rss_mb", peak_rss_mb(), "MB")
    out.record.update(cold_passes=len(run_.reports), warm_replays=sum(run_.replays))
    _gate(out, seed, run_)
    return out


def _graphs(out: Outcome) -> None:
    from repro.topo import adjacency, diameter, ensure_spec, mean_degree

    degrees, diameters = {}, {}
    for topology in TOPOLOGIES:
        adj = adjacency(ensure_spec(topology), N)
        degrees[topology], diameters[topology] = mean_degree(adj), diameter(adj)
    out.record.update(mean_degree=degrees, diameter=diameters)
    moves = "setup_s and jobs_per_s"
    out.layers.put("topo.mean_degree", sum(degrees.values()) / len(degrees), "count", moves)
    out.layers.put("topo.diameter", max(diameters.values()), "count", moves)


def _traced(out: Outcome, seed: int, seconds: float) -> Outcome:
    from repro import obs
    from repro.parallel import run_job

    from .trace import Recorder, install

    # Untraced, traced, untraced again on the same passes: the traced
    # pass is compared with the mean of the two around it.
    plain = _passes(seed, seconds / 3)
    rec = Recorder()
    install(rec)
    obs.configure(enabled=True)
    try:
        t0 = time.perf_counter()
        traced = _passes(seed, plan=plain, rec=rec)
        pool_s = rec.time_in("parallel.runner")
        # In-process replay of cold pass 0: kernel time the pool hid.
        with rec.span("bench.replay", "bench"):
            for spec in pass_specs(seed, 0):
                for job in spec.jobs():
                    run_job(job)
        t1 = time.perf_counter()
    finally:
        obs.reset()
        rec.uninstall()
    after = _passes(seed, plan=plain)
    out.attempted = traced.cold_jobs + traced.warm_jobs
    if not traced.reports == plain.reports == after.reports:
        out.fail(traced.cold_jobs, "traced reports differ from untraced reports")
    _gate(out, seed, traced)
    layers = out.layers
    core_rows(layers, rec, "jobs_per_s (cold passes, via the pool); none on warm passes")
    replay_busy = layers.value("core.busy_s")
    runners = [s for s in rec.finished() if s.name == "parallel.runner"]
    pass0_pool = sum(s.t1 - s.t0 for s in runners[: len(TOPOLOGIES)])
    layers.put("parallel.pool_wall_s", pool_s, "s", "jobs_per_s")
    layers.put(
        "parallel.pool_efficiency", replay_busy / (pass0_pool * pool_width()), "ratio",
        "jobs_per_s (pass 0: replay busy / (pool wall x workers))",
    )
    cache_rows(layers, rec, "jobs_per_s (puts, journal) and warm_jobs_per_s (gets)")
    layers.put("parallel.ok_ratio", traced.ok / traced.submitted, "ratio", "jobs_per_s")
    layers.put("topo.coupling_s", rec.time_in("topo.coupling"), "s", "setup_s and jobs_per_s")
    _graphs(out)
    layers.put("campaign.executed", traced.executed, "count", "warm_jobs_per_s")
    layers.put("campaign.cached", traced.cached, "count", "warm_jobs_per_s")
    spans = [s for s in rec.finished() if s.layer != "bench"]
    self_s, unattributed = attribute(spans, t0, t1)
    wall_rows(layers, self_s, unattributed, t1 - t0)
    out.overhead = (
        [Rate(plain.cold, ALL_CPUS, "jobs/s"), Rate(after.cold, ALL_CPUS, "jobs/s")],
        Rate(traced.cold, ALL_CPUS, "jobs/s"),
        "jobs_per_s",
    )
    out.recorder = rec
    return out

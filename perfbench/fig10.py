"""Workload ``fig10-ensemble``: the paper's Fig-10 first-passage ensemble.

A closed batch run in-process with the figure defaults (``jobs=1``, no
cache, the default engine): ``FirstPassageEnsemble(...).run()`` at
N=20, Tp=121 s, Tc=0.11 s, Tr=0.1 s, unsynchronized start, stop on
full sync.  The run repeats ensembles of :data:`WINDOW` seeds until its
time is up.  Window 0 is the paper's seeds 1..20, whose records are
pinned in ``pins.json``; later windows take seeds derived from the
workload seed and are checked against the batch engine in-process.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .common import (
    PINS,
    Outcome,
    Rate,
    cache_rows,
    canonical,
    core_rows,
    peak_rss_mb,
    sha256,
    wall_rows,
    workdir,
)
from .speed import MAIN_CPU, pinned
from .stats import attribute

N, TP, TC, TR = 20, 121.0, 0.11, 0.1
HORIZON = 1e5
WINDOW = 20
#: Seconds of warm re-runs after each cold window, per second of that window.
WARM_RATIO = 1 / 3


def window_seeds(seed: int, k: int) -> tuple[int, ...]:
    """Seeds of ensemble ``k``: the paper's 1..20 first, then a range
    derived from the workload seed."""
    if k == 0:
        return tuple(range(1, WINDOW + 1))
    base = 1_000_000 * (seed % 1000 + 1) + WINDOW * (k - 1)
    return tuple(range(base, base + WINDOW))


def _params():
    from repro.core import RouterTimingParameters

    return RouterTimingParameters(n_nodes=N, tp=TP, tc=TC, tr=TR)


def setup_probe():
    """Set-up as a user pays it: imports and ensemble construction
    (which resolves the default engine)."""
    from repro.core import FirstPassageEnsemble

    FirstPassageEnsemble(_params(), horizon=HORIZON, seeds=window_seeds(0, 0))
    return None


def _ensemble(seeds, **kwargs):
    from repro.core import FirstPassageEnsemble

    return FirstPassageEnsemble(_params(), horizon=HORIZON, seeds=seeds, **kwargs).run()


def _records(ensemble) -> list[bytes]:
    """One canonical record per seed: its first-passage times."""
    return [
        canonical({str(size): t for size, t in sorted(fp.items())})
        for fp in ensemble._passages
    ]


def _job_specs(engine: str, seeds):
    from repro.parallel import SimulationJob

    return [
        SimulationJob.from_params(_params(), seed=s, horizon=HORIZON, engine=engine)
        for s in seeds
    ]


@dataclass
class Passes:
    """What one run of interleaved cold windows and warm re-runs did."""

    windows: list = field(default_factory=list)  # records per cold window
    cold: list = field(default_factory=list)  # (jobs, seconds, span) chunks
    warm: list = field(default_factory=list)
    replays: list = field(default_factory=list)  # warm re-runs after each window
    warm_executed: int = 0
    warm_mismatched: int = 0
    ok: int = 0

    @property
    def cold_jobs(self) -> int:
        return sum(c for c, _, _ in self.cold)

    @property
    def warm_jobs(self) -> int:
        return sum(c for c, _, _ in self.warm)


def _passes(seed: int, seconds: float | None = None, plan: Passes | None = None) -> Passes:
    """Cold windows, each followed by warm re-runs (round robin over the
    windows so far, against a cache holding their results) for
    :data:`WARM_RATIO` of the window's time; until ``seconds`` pass, or
    exactly the windows and re-runs of an earlier ``plan``."""
    from repro.parallel import JobResult, ResultCache

    out = Passes()
    cache = ResultCache(workdir("fig10-cache"))
    stored = []  # (seeds, records) of every cold window
    replay = 0
    start = time.monotonic()
    while True:
        k = len(out.windows)
        t0 = time.monotonic()
        ensemble = _ensemble(window_seeds(seed, k))
        t1 = time.monotonic()
        records = _records(ensemble)
        out.cold.append((len(records), t1 - t0, (t0, t1)))
        out.windows.append(records)
        out.ok += ensemble.report.count("ok") + ensemble.report.count("retried")
        # Per-seed records are not public on the ensemble; _passages
        # holds them in seed order.
        for job, fp in zip(_job_specs(ensemble.engine, ensemble.seeds), ensemble._passages):
            cache.put(job, JobResult(first_passages=fp))
        stored.append((ensemble.seeds, records))
        jobs = done = 0
        w0 = time.monotonic()
        while True:
            seeds, expected = stored[replay % len(stored)]
            warm = _ensemble(seeds, cache=cache)
            jobs += len(seeds)
            out.warm_executed += len(seeds) - warm.report.count("cache_hit")
            out.warm_mismatched += sum(1 for a, b in zip(expected, _records(warm)) if a != b)
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
            if len(out.windows) >= len(plan.windows):
                return out
        elif w1 - start >= seconds:
            return out


def _gate(out: Outcome, seed: int, run: Passes) -> None:
    windows = run.windows
    expected = PINS["fig10-ensemble"]["window0_sha256"]
    got = sha256(b"\n".join(windows[0]))
    if got != expected:
        out.fail(WINDOW, f"window 0 digest {got} != pinned {expected}")
    for k, records in enumerate(windows[1:], start=1):
        reference = _records(_ensemble(window_seeds(seed, k), engine="batch"))
        bad = sum(1 for a, b in zip(reference, records) if a != b)
        if bad:
            out.fail(bad, f"window {k}: {bad} record(s) differ from the batch engine")
    if run.warm_mismatched:
        out.fail(run.warm_mismatched, "warm re-run records differ from the cold run")
    if run.warm_executed:
        out.fail(run.warm_executed, f"warm re-run executed {run.warm_executed} job(s)")


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    probe = _ensemble(window_seeds(seed, 0)[:1])  # warm imports and code paths
    out.record.update(resolved_engine=probe.engine, horizon=HORIZON, window=WINDOW)
    if trace:
        with pinned({MAIN_CPU}):
            return _traced(out, seed, seconds)
    with pinned({MAIN_CPU}):
        passes = _passes(seed, seconds)
    out.attempted = passes.cold_jobs + passes.warm_jobs
    out.rate("jobs_per_s", passes.cold, {MAIN_CPU}, "jobs/s")
    out.rate("warm_jobs_per_s", passes.warm, {MAIN_CPU}, "jobs/s")
    out.metric("peak_rss_mb", peak_rss_mb(), "MB")
    out.record.update(windows=len(passes.windows), warm_jobs=passes.warm_jobs)
    _gate(out, seed, passes)
    return out


def _traced(out: Outcome, seed: int, seconds: float) -> Outcome:
    from repro import obs
    from repro.core import ensemble as ensemble_mod

    from .trace import Recorder, install

    # Untraced, traced, untraced again on the same windows: the traced
    # pass is compared with the mean of the two around it.
    plain = _passes(seed, seconds / 3)
    rec = Recorder()
    install(rec)
    rec.wrap(ensemble_mod.FirstPassageEnsemble, "run", "core.ensemble", "core")
    obs.configure(enabled=True)
    try:
        t0 = time.perf_counter()
        traced = _passes(seed, plan=plain)
        t1 = time.perf_counter()
    finally:
        obs.reset()
        rec.uninstall()
    after = _passes(seed, plan=plain)
    cold_jobs = traced.cold_jobs
    out.attempted = cold_jobs + traced.warm_jobs
    if not traced.windows == plain.windows == after.windows:
        out.fail(cold_jobs, "traced records differ from untraced records")
    _gate(out, seed, traced)
    layers = out.layers
    self_s, unattributed = attribute(rec.finished(), t0, t1)
    core_rows(layers, rec, "jobs_per_s (cold windows)")
    cache_rows(layers, rec, "warm_jobs_per_s (warm re-runs)")
    for name, unit in (("topo.coupling_s", "s"), ("topo.mean_degree", "count"), ("topo.diameter", "count")):
        layers.absent(name, unit, "clique coupling: no topology layer")
    layers.absent("parallel.pool_wall_s", "s", "jobs=1 runs in-process, no pool")
    layers.absent("parallel.pool_efficiency", "ratio", "jobs=1 runs in-process, no pool")
    layers.put("parallel.ok_ratio", traced.ok / cold_jobs, "ratio", "jobs_per_s")
    wall_rows(layers, self_s, unattributed, t1 - t0)
    cpu = {MAIN_CPU}
    out.overhead = (
        [Rate(plain.cold, cpu, "jobs/s"), Rate(after.cold, cpu, "jobs/s")],
        Rate(traced.cold, cpu, "jobs/s"),
        "jobs_per_s",
    )
    out.recorder = rec
    return out

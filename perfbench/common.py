"""Helpers shared by the workloads: paths, digests, the byte gate, the
per-layer table, and set-up timing."""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from .stats import median

#: The checkout root (the directory holding ``perfbench/`` and ``src/``).
ROOT = Path(__file__).resolve().parent.parent

#: Scratch space for caches, journals, tables and traces; gitignored.
WORK = ROOT / ".perfbench-work"

#: Pinned digests and fixed limits (see pins.json).
PINS = json.loads((Path(__file__).resolve().parent / "pins.json").read_text())


def run_root() -> Path:
    """This process's scratch directory under :data:`WORK`."""
    return WORK / f"run-{os.getpid()}"


def workdir(name: str) -> Path:
    """A fresh, empty directory under :func:`run_root` for one use."""
    path = run_root() / f"{name}-{time.perf_counter_ns()}"
    path.mkdir(parents=True)
    return path


def remove_run_root() -> None:
    """Delete this process's caches, journals and tables."""
    shutil.rmtree(run_root(), ignore_errors=True)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def canonical(obj) -> bytes:
    """The benchmark's own canonical encoding for digests."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def first_mismatch(expected: bytes, got: bytes) -> int | None:
    """Offset of the first differing byte, or None when identical.

    The correctness gate: a served or computed result counts only if
    it equals the reference byte for byte.
    """
    if expected == got:
        return None
    for offset, (a, b) in enumerate(zip(expected, got)):
        if a != b:
            return offset
    return min(len(expected), len(got))


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of a live process, in MiB (Linux ``/proc``)."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def subprocess_env() -> dict:
    """Environment for child interpreters: the checkout's sources on
    the path, kernel builds kept inside the checkout."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.setdefault("REPRO_CKERNEL_CACHE", str(WORK / "ckernel"))
    return env


def time_setup(workload: str, repeats: int, timeout: float = 120.0) -> list[tuple[float, float]]:
    """Set-up of ``repeats`` fresh interpreters, each timed from spawn to
    the ``ready`` line of ``run.py --setup-probe``: monotonic
    ``(start, ready)`` pairs."""
    samples = []
    for _ in range(repeats):
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--setup-probe", workload],
            cwd=ROOT,
            env=subprocess_env(),
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            ready = time.monotonic()
            proc.stdout.read()
            code = proc.wait(timeout=timeout)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe for {workload} failed (exit {code})")
        samples.append((t0, ready))
    return samples


#: Every per-layer metric a traced run reports (value or absence).
LAYER_METRICS = (
    ("core.busy_s", "s"), ("core.busy_us_per_sim_s", "us/sim_s"),
    ("core.cascades", "count"), ("core.sim_seconds", "sim_s"),
    ("core.phase.rng_refill_s", "s"), ("core.phase.boundary_scan_s", "s"),
    ("core.phase.cascade_resolution_s", "s"),
    ("topo.coupling_s", "s"), ("topo.mean_degree", "count"), ("topo.diameter", "count"),
    ("parallel.pool_wall_s", "s"), ("parallel.pool_efficiency", "ratio"),
    ("parallel.cache_get_s", "s"), ("parallel.cache_gets", "count"),
    ("parallel.cache_hit_ratio", "ratio"), ("parallel.cache_put_s", "s"),
    ("parallel.cache_puts", "count"), ("parallel.journal_s", "s"),
    ("parallel.journal_records", "count"), ("parallel.ok_ratio", "ratio"),
    ("campaign.executed", "count"), ("campaign.cached", "count"),
    ("serve.gen_late_ms", "ms"), ("serve.warm_floor_ms", "ms"),
    ("serve.warm_overhead_ms", "ms"), ("serve.cold_compute_ms", "ms"),
    ("serve.cold_overhead_ms", "ms"), ("serve.jobs_executed", "count"),
    ("serve.cache_hits", "count"), ("serve.coalesce_followers", "count"),
    ("serve.shed", "count"), ("serve.timeouts", "count"), ("serve.cache_hit_ratio", "ratio"),
    ("predict.resolve_us", "us"), ("predict.overhead_ms", "ms"), ("predict.hits", "count"),
    ("predict.fallbacks", "count"), ("predict.hit_ratio", "ratio"),
    ("predict.table_build_s", "s"),
    ("core.self_s", "s"), ("topo.self_s", "s"), ("parallel.self_s", "s"),
    ("campaign.self_s", "s"), ("serve.self_s", "s"), ("predict.self_s", "s"),
    ("unattributed_s", "s"), ("traced_wall_s", "s"), ("obs.overhead_pct", "%"),
)


@dataclass
class Layers:
    """The traced run's per-layer table: each metric has a value or an
    absence reason, and names the end-to-end metric it should move."""

    rows: dict = field(default_factory=dict)

    def put(self, name: str, value: float, unit: str, moves: str = "") -> None:
        self.rows[name] = {"value": value, "unit": unit, "moves": moves}

    def absent(self, name: str, unit: str, reason: str) -> None:
        self.rows[name] = {"value": None, "unit": unit, "absent": reason}

    def value(self, name: str):
        return self.rows[name]["value"]

    def complete(self, workload: str) -> None:
        """Mark every per-layer metric this workload did not measure."""
        for name, unit in LAYER_METRICS:
            if name not in self.rows:
                self.absent(name, unit, f"{workload} does not exercise this")


@dataclass
class Rate:
    """Operations done in chunks on ``cpus``, each chunk a ``(count,
    seconds, (start, end))`` triple on the monotonic clock.  Each chunk's
    seconds are scaled by the host speed sampled within it (see
    :mod:`perfbench.speed`) before the chunks are summed."""

    chunks: list
    cpus: frozenset
    unit: str

    @property
    def raw(self) -> float:
        return sum(c for c, _, _ in self.chunks) / sum(s for _, s, _ in self.chunks)

    def scaled(self, speed) -> float:
        seconds = sum(s / speed.scale([w], self.cpus) for _, s, w in self.chunks)
        return sum(c for c, _, _ in self.chunks) / seconds


@dataclass
class Outcome:
    """One workload run: counts, end-to-end metrics and the record."""

    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)
    layers: Layers = field(default_factory=Layers)
    record: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    recorder: object = None  # the traced run's perfbench.trace.Recorder
    rates: dict = field(default_factory=dict)
    overhead: tuple = ()  # (untraced Rates, traced Rate, what they measure)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": value, "unit": unit}

    def fail(self, count: int, why: str) -> None:
        """Count ``count`` failed operations and say why."""
        self.failed += count
        self.problems.append(why)

    def rate(self, name: str, chunks, cpus, unit: str) -> None:
        """A throughput metric, scaled to the reference speed at the end
        of the run."""
        self.rates[name] = Rate(list(chunks), frozenset(cpus), unit)

    def finish(self, speed, setup: list[tuple[float, float]], setup_cpus) -> None:
        """Scale rates and set-up times to the reference speed; keep the
        raw values in the record."""
        raw = self.record.setdefault("raw", {})
        chunks = self.record.setdefault("chunks", {})
        for name, r in self.rates.items():
            raw[name] = r.raw
            chunks[name] = [
                {"count": c, "seconds": s, "scale": speed.scale([w], r.cpus)} for c, s, w in r.chunks
            ]
            self.metric(name, r.scaled(speed), r.unit)
        if self.overhead:
            plain, traced, what = self.overhead
            base = sum(r.scaled(speed) for r in plain) / len(plain)
            self.layers.put(
                "obs.overhead_pct", (base / traced.scaled(speed) - 1.0) * 100.0, "%",
                f"none (inert contract: traced vs untraced {what})",
            )
        samples = [(b - a) / speed.scale([(a, b)], setup_cpus) for a, b in setup]
        raw["setup_samples_s"] = [b - a for a, b in setup]
        self.record["setup_samples_s"] = samples
        self.metric("setup_s", median(samples), "s")


def core_rows(layers: Layers, rec, moves: str) -> None:
    """Kernel rows from the spans and counts around ``CascadeModel.run``
    and ``BatchCascade.run``."""
    busy = rec.time_in("core.cascade_run") + rec.time_in("core.batch_run")
    sim = rec.counts.get("core.sim_seconds", 0.0)
    layers.put("core.busy_s", busy, "s", moves)
    layers.put("core.busy_us_per_sim_s", busy * 1e6 / sim if sim else 0.0, "us/sim_s", moves)
    layers.put("core.cascades", rec.counts.get("core.cascades", 0), "count", moves)
    layers.put("core.sim_seconds", sim, "sim_s", moves)
    phases = ("rng_refill", "boundary_scan", "cascade_resolution")
    for phase in phases:
        name = f"core.phase.{phase}_s"
        if name in rec.counts:
            layers.put(name, rec.counts[name], "s", moves)
        else:
            layers.absent(name, "s", "the resolved engine exposes no phase timers")


def cache_rows(layers: Layers, rec, moves: str) -> None:
    """Cache and journal rows from the spans around ``ResultCache`` and
    ``CheckpointJournal`` calls."""
    gets = rec.count_of("parallel.cache_get")
    layers.put("parallel.cache_get_s", rec.time_in("parallel.cache_get"), "s", moves)
    layers.put("parallel.cache_gets", gets, "count", moves)
    hits = rec.counts.get("parallel.cache_hits", 0)
    if gets:
        layers.put("parallel.cache_hit_ratio", hits / gets, "ratio", moves)
    else:
        layers.absent("parallel.cache_hit_ratio", "ratio", "no cache reads")
    layers.put("parallel.cache_put_s", rec.time_in("parallel.cache_put"), "s", moves)
    layers.put("parallel.cache_puts", rec.count_of("parallel.cache_put"), "count", moves)
    layers.put("parallel.journal_s", rec.time_in("parallel.journal"), "s", moves)
    layers.put("parallel.journal_records", rec.count_of("parallel.journal"), "count", moves)


def wall_rows(layers: Layers, self_s: dict, unattributed: float, wall: float) -> None:
    """Per-layer self time over the traced window, plus the remainder;
    together they sum to ``wall``."""
    for layer in ("core", "topo", "parallel", "campaign", "serve", "predict"):
        layers.put(f"{layer}.self_s", self_s.get(layer, 0.0), "s", "see the layer's rows")
    layers.put("unattributed_s", unattributed, "s", "none")
    layers.put("traced_wall_s", wall, "s", "none")

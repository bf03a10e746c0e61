"""Simulation job specs and the pure function that executes them.

A :class:`SimulationJob` captures everything that determines a
first-passage simulation's outcome — the (N, Tp, Tc, Tr) tuple, the
seed, the horizon, the direction, and which engine runs it.  Because
the spec is frozen, hashable, and serializes to a canonical dict, it
doubles as the key of the on-disk result cache and as the unit of work
shipped to pool workers.

:func:`run_job` is deliberately a module-level pure function:
``ProcessPoolExecutor`` can pickle it, and running the same job twice
— in this process, in a worker, or in a different session reading the
cache — yields the same :class:`JobResult` bit for bit.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Sequence

from ..core.batch import BatchCascade
from ..core.engines import ENGINES, resolve_engine
from ..core.fastsim import CascadeModel
from ..core.model import ModelConfig, PeriodicMessagesModel
from ..core.parameters import RouterTimingParameters

__all__ = [
    "ENGINES",
    "MODEL_VERSION",
    "JobResult",
    "SimulationJob",
    "run_batch",
    "run_job",
    "run_jobs",
]

#: Bump whenever a change alters simulation trajectories (RNG streams,
#: model semantics, tracker behaviour).  The tag is folded into every
#: cache key, so stale entries from older model versions simply miss.
MODEL_VERSION = "fj93-model-1"

_DIRECTIONS = ("up", "down")

@dataclass(frozen=True)
class SimulationJob:
    """Spec of one first-passage simulation.

    Attributes
    ----------
    n_nodes, tp, tc, tr:
        The model's timing parameters (flattened so the spec is a
        single frozen dataclass).
    seed:
        Master RNG seed; per-router streams derive from it.
    horizon:
        Simulation horizon in seconds.
    direction:
        ``"up"`` — unsynchronized start, record first times each
        cluster size is reached (Figure 10); ``"down"`` — synchronized
        start, record first times the per-round largest cluster falls
        to each size (Figure 11).
    engine:
        ``"des"``, ``"cascade"``, or ``"batch"`` (see
        :mod:`repro.core.engines`).  A batch job is one seed like any
        other: :func:`run_job` runs it as a one-member
        :class:`~repro.core.batch.BatchCascade`.
    topology:
        Coupling graph in :func:`repro.topo.parse_topology` grammar,
        normalized to canonical form at construction.  ``"clique"``
        (the default) is the paper's fully-coupled model and is
        *omitted* from :meth:`to_dict`, so every pre-topology cache
        key, checkpoint, and journal entry stays valid verbatim.  The
        DES engine only models the fully-coupled case, so non-clique
        topologies require ``"cascade"`` or ``"batch"``.
    """

    n_nodes: int
    tp: float
    tc: float
    tr: float
    seed: int
    horizon: float
    direction: str = "up"
    engine: str = "cascade"
    topology: str = "clique"

    def __post_init__(self) -> None:
        # Delegate parameter validation to the canonical dataclass.
        RouterTimingParameters(self.n_nodes, self.tp, self.tc, self.tr)
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if self.direction not in _DIRECTIONS:
            raise ValueError(
                f"unknown direction {self.direction!r}; known: {', '.join(_DIRECTIONS)}"
            )
        resolve_engine(self.engine)
        from ..topo import ensure_spec

        spec = ensure_spec(self.topology)
        object.__setattr__(self, "topology", spec.canonical())
        if self.engine == "des" and self.topology != "clique":
            from ..topo import Coupling

            if not Coupling(spec, self.n_nodes).is_complete:
                raise ValueError(
                    "engine 'des' only models the fully-coupled (clique) "
                    f"case; topology {self.topology!r} needs 'cascade' or "
                    "'batch'"
                )

    @classmethod
    def from_params(
        cls,
        params: RouterTimingParameters,
        seed: int,
        horizon: float,
        direction: str = "up",
        engine: str = "cascade",
        topology: str = "clique",
    ) -> "SimulationJob":
        """Build a job from a parameter tuple plus run settings."""
        return cls(
            n_nodes=params.n_nodes,
            tp=params.tp,
            tc=params.tc,
            tr=params.tr,
            seed=seed,
            horizon=horizon,
            direction=direction,
            engine=engine,
            topology=topology,
        )

    @property
    def params(self) -> RouterTimingParameters:
        """The job's timing parameters as the canonical dataclass."""
        return RouterTimingParameters(self.n_nodes, self.tp, self.tc, self.tr)

    def to_dict(self) -> dict:
        """Canonical plain-dict form (stable across sessions).

        The ``topology`` key appears only when non-default: a clique
        job serializes exactly as it did before topologies existed,
        so its cache key (and every cached result) is unchanged.
        """
        data = {
            "n_nodes": self.n_nodes,
            "tp": self.tp,
            "tc": self.tc,
            "tr": self.tr,
            "seed": self.seed,
            "horizon": self.horizon,
            "direction": self.direction,
            "engine": self.engine,
        }
        if self.topology != "clique":
            data["topology"] = self.topology
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "SimulationJob":
        """Inverse of :meth:`to_dict`."""
        return cls(**data)

    def cache_key(self) -> str:
        """Content hash of the spec plus the model version tag.

        ``json.dumps`` with sorted keys is a canonical encoding, and
        Python's float repr round-trips exactly, so equal jobs hash
        equal across processes and sessions.
        """
        payload = json.dumps(
            {"job": self.to_dict(), "model_version": MODEL_VERSION},
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("ascii")).hexdigest()


@dataclass(frozen=True)
class JobResult:
    """Outcome of one job: the first-passage time per cluster size.

    ``first_passages`` maps cluster size -> first time (seconds) that
    size was reached (direction "up") or first time the per-round
    largest cluster dropped to it (direction "down").  Sizes the run
    never reached within the horizon are absent — censoring is
    represented by absence, exactly as in the serial code paths.
    """

    first_passages: dict[int, float]

    def terminal_time(self, job: SimulationJob) -> float | None:
        """The job's headline quantity, or None if censored.

        Full synchronization (size N) for direction "up"; full
        break-up (size 1) for direction "down".
        """
        target = job.n_nodes if job.direction == "up" else 1
        return self.first_passages.get(target)

    def to_dict(self) -> dict:
        """JSON-ready form (JSON object keys must be strings)."""
        return {
            "first_passages": {
                str(size): time for size, time in sorted(self.first_passages.items())
            }
        }

    @classmethod
    def from_dict(cls, data: dict) -> "JobResult":
        """Inverse of :meth:`to_dict` (restores integer sizes)."""
        return cls(
            first_passages={
                int(size): float(time)
                for size, time in data["first_passages"].items()
            }
        )


def run_job(
    job: SimulationJob, faults=None, attempt: int = 0
) -> JobResult:
    """Execute one job and return its first-passage record.

    Pure: the result depends only on the job spec.  All three engines
    use the same per-seed RNG stream derivation, so the choice of
    engine does not change the trajectory for the pure periodic model.

    ``faults`` is an optional
    :class:`~repro.parallel.faults.FaultPlan` consulted *before*
    execution — the explicit chaos-injection hook (it can raise,
    sleep, or kill a pool worker, but never alter a result);
    ``attempt`` tells the plan which retry this is.  Both default to
    the production no-op.
    """
    if faults is not None:
        faults.on_job(job, attempt)
    up = job.direction == "up"
    phases = "unsynchronized" if up else "synchronized"
    topology = None if job.topology == "clique" else job.topology
    stops = dict(stop_on_full_sync=up, stop_on_full_unsync=not up)
    if job.engine == "cascade":
        model = CascadeModel(
            job.params, seed=job.seed, initial_phases=phases, topology=topology
        )
        model.run(until=job.horizon, **stops)
        tracker = model.tracker
    elif job.engine == "des":
        config = ModelConfig.from_parameters(
            job.params, seed=job.seed, keep_cluster_history=False
        )
        des = PeriodicMessagesModel(config, initial_phases=phases)
        des.run(until=job.horizon, **stops)
        tracker = des.tracker
    elif job.engine == "batch":
        batch = BatchCascade(
            job.params, [job.seed], initial_phases=phases, topology=topology
        )
        batch.run(until=job.horizon, **stops)
        tracker = batch.members[0]
    else:  # pragma: no cover - __post_init__ rejects unknown engines
        raise ValueError(f"unknown engine {job.engine!r}")
    mapping = tracker.first_time_at_least if up else tracker.first_time_at_most
    return JobResult(first_passages=dict(mapping))


def run_batch(jobs: Sequence[SimulationJob]) -> list[JobResult]:
    """Run batch-engine jobs, each alone through :func:`run_job`."""
    for job in jobs:
        if job.engine != "batch":
            raise ValueError(f"run_batch() requires engine='batch', got {job.engine!r}")
    return [run_job(job) for job in jobs]


def run_jobs(
    jobs: Sequence[SimulationJob],
    faults=None,
    attempt: int = 0,
    trace: bool = False,
    profile: bool = False,
) -> tuple[list[JobResult], list, list[dict]]:
    """Execute a chunk of jobs: the one pool worker entry point.

    Returns ``(results, spans, profile_rows)``.  Results come back in
    input order; every job, whatever its engine, runs alone through
    :func:`run_job`.

    The fault plan (picklable, stateless) travels to the worker with
    the chunk, so injected worker-side failures are as deterministic
    as the simulations themselves.

    ``trace`` runs the chunk under a *local* tracer (workers never
    share the parent's global runtime) with a ``worker.chunk`` span
    around one ``job.run`` span per job; ``profile`` collects cProfile
    rows.  Both are picklable records the parent ingests, so a pooled
    run yields one coherent multi-process trace.  With both off the
    two lists come back empty and no per-job key is hashed.
    """
    from ..obs.spans import Tracer

    tracer = Tracer(enabled=trace)
    profile_rows: list[dict] = []
    jobs = list(jobs)
    results: list[JobResult] = []

    def execute() -> None:
        with tracer.span("worker.chunk", jobs=len(jobs), attempt=attempt):
            for job in jobs:
                with tracer.span(
                    "job.run",
                    key=job.cache_key()[:12] if trace else "",
                    seed=job.seed,
                    engine=job.engine,
                    direction=job.direction,
                    n_nodes=job.n_nodes,
                    attempt=attempt,
                ):
                    results.append(run_job(job, faults, attempt))

    if profile:
        from ..obs.profile import profiled

        with profiled(profile_rows):
            execute()
    else:
        execute()
    return results, tracer.drain(), profile_rows

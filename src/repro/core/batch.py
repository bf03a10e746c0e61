"""Batched ensemble engine for the cascade rule.

:class:`BatchCascade` advances a whole ensemble of seeds at one
parameter point and exposes one :class:`BatchMember` per seed.  Member
``k`` starts as ``CascadeModel(params, seed=seeds[k], ...)`` — it is
built as one, so its streams come from the same
:meth:`repro.rng.RandomSource.spawn` derivation — and reproduces that
model byte for byte: first passages, cluster histories, ``now``,
``total_cascades`` and consumed-RNG positions.  All of it is verified
against the DES by ``tests/test_engine_differential.py``.

A complete coupling runs through the bundled C kernel (see
:mod:`repro.core._batch_kernel`) wherever it resolves: the
fully-coupled rule and a fused cluster tracker over packed per-member
arrays, seeded from each member's model, built on demand with the
system compiler and loaded through :mod:`ctypes`; it needs NumPy and
``cc``.  Everywhere else — no kernel, or a non-complete coupling —
each member's ``CascadeModel`` runs itself, through
:func:`repro.topo.advance_coupled`.  :data:`BACKEND` reads which of
the two a complete coupling gets here (``"compiled"`` or
``"python"``); nothing configures it.  Importing this module neither
builds nor loads the C kernel nor imports NumPy.
"""

from __future__ import annotations

from typing import Sequence

from .clusters import RESET_TIME_TOLERANCE, ClusterGroup
from .fastsim import CascadeModel
from .parameters import RouterTimingParameters

__all__ = [
    "BACKEND",
    "BatchCascade",
    "BatchMember",
    "compiled_backend_available",
]


def compiled_backend_available() -> bool:
    """Whether complete couplings run through the C kernel here.

    True when NumPy imports and the bundled C kernel can be (or
    already has been) built with the system compiler.  The first call
    builds and loads it; the answer is cached for the process.
    """
    from . import _batch_kernel

    return _batch_kernel.resolve_compiled() is not None


def __getattr__(name: str):
    # BACKEND is served lazily so that importing the module resolves
    # nothing; the first read builds (or fails to build) the kernel.
    if name == "BACKEND":
        return "compiled" if compiled_backend_available() else "python"
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class BatchMember:
    """One ensemble member's trajectory state and statistics.

    Exposes the same outputs as ``CascadeModel`` + its tracker:
    :attr:`first_time_at_least` / :attr:`first_time_at_most` (the
    first-passage dicts), :attr:`round_times` / :attr:`round_largest`
    (the per-round largest-cluster series), :attr:`groups` (closed
    reset groups, when history is kept), :attr:`total_resets`,
    :attr:`total_cascades`, :attr:`now`, and the
    :attr:`synchronization_time` / :attr:`breakup_time` properties.
    """

    __slots__ = (
        "seed",
        "n_nodes",
        "now",
        "total_cascades",
        "total_resets",
        "groups",
        "first_time_at_least",
        "first_time_at_most",
        "round_times",
        "round_largest",
    )

    def __init__(self, seed: int, n_nodes: int) -> None:
        self.seed = seed
        self.n_nodes = n_nodes
        self.now = 0.0
        self.total_cascades = 0
        self.total_resets = 0
        self.groups: list[ClusterGroup] = []
        self.first_time_at_least: dict[int, float] = {}
        self.first_time_at_most: dict[int, float] = {}
        self.round_times: list[float] = []
        self.round_largest: list[int] = []

    def sync_model(self, model: CascadeModel) -> None:
        """Take a model's outputs; the containers are shared, not copied."""
        tracker = model.tracker
        self.now = model.now
        self.total_cascades = model.total_cascades
        self.total_resets = tracker.total_resets
        self.groups = tracker.groups
        self.first_time_at_least = tracker.first_time_at_least
        self.first_time_at_most = tracker.first_time_at_most
        self.round_times = tracker.round_times
        self.round_largest = tracker.round_largest

    @property
    def synchronization_time(self) -> float | None:
        """First time all N routers reset together."""
        return self.first_time_at_least.get(self.n_nodes)

    @property
    def breakup_time(self) -> float | None:
        """First time a full window of lone resets occurred."""
        return self.first_time_at_most.get(1)


class BatchCascade:
    """Cascade-rule simulation of a whole ensemble of seeds.

    Parameters
    ----------
    params:
        The (N, Tp, Tc, Tr) tuple, shared by every member.
    seeds:
        One master seed per ensemble member; member ``k`` reproduces
        ``CascadeModel(params, seed=seeds[k], ...)`` bit for bit.
    initial_phases:
        As in ``CascadeModel``: "unsynchronized" (uniform on [0, Tp]
        from each member's own phase stream), "synchronized" (all
        zero), or explicit phases applied to every member.
    keep_cluster_history:
        When True, each member retains its closed reset groups.
    topology:
        Optional :class:`~repro.topo.TopologySpec` (or canonical
        string), as in ``CascadeModel``.  Complete couplings take the
        C kernel where it resolves; non-complete ones always run each
        member's ``CascadeModel``.
    """

    def __init__(
        self,
        params: RouterTimingParameters,
        seeds: Sequence[int],
        initial_phases="unsynchronized",
        keep_cluster_history: bool = False,
        topology=None,
    ) -> None:
        seeds = [int(s) for s in seeds]
        if not seeds:
            raise ValueError("seeds must be non-empty")
        if not isinstance(initial_phases, str):
            initial_phases = list(initial_phases)  # shared by every member
        self.params = params
        self._models = [
            CascadeModel(
                params,
                seed=seed,
                initial_phases=initial_phases,
                keep_cluster_history=keep_cluster_history,
                topology=topology,
            )
            for seed in seeds
        ]
        self.topology = self._models[0].topology
        self._members = [BatchMember(seed, params.n_nodes) for seed in seeds]
        # The C kernel's packed per-member state, seeded from each
        # model's initial expiries and Lehmer states; None where each
        # model runs itself.
        self._kernel = None
        self._cstate: list | None = None
        if self._models[0]._coupling is None and compiled_backend_available():
            from . import _batch_kernel

            self._kernel = _batch_kernel.resolve_compiled()
            self._cstate = [
                _batch_kernel.MemberState(
                    _expiries(model), model.rng_states(), params.n_nodes,
                    keep_cluster_history,
                )
                for model in self._models
            ]

    # -- public views ----------------------------------------------------

    @property
    def members(self) -> tuple[BatchMember, ...]:
        """Per-member trajectory views, in seed order."""
        return tuple(self._members)

    def rng_states(self, k: int) -> list[int]:
        """Member ``k``'s current per-router Lehmer states.

        Equal to the equivalent ``CascadeModel``'s ``rng_states()`` at
        the same point — the witness that both engines consumed each
        stream to the same position.
        """
        if self._cstate is not None:
            return [int(v) for v in self._cstate[k].rng]
        return self._models[k].rng_states()

    def phase_rng_state(self, k: int) -> int:
        """Member ``k``'s phase-stream state after initialization."""
        return self._models[k]._phase_rng._gen.state

    # -- the kernel ------------------------------------------------------

    def run(
        self,
        until: float,
        stop_on_full_sync: bool = False,
        stop_on_full_unsync: bool = False,
    ) -> list[float]:
        """Advance every member to the horizon or its stop condition.

        Semantically ``CascadeModel.run(until, ...)`` applied to each
        member independently; returns the per-member ``now`` values.
        Resumable: a later call with a larger horizon picks each member
        up exactly where it stopped (members that met a stop condition
        continue, as the serial engine would).
        """
        until = float(until)
        if self._cstate is None:
            for model, member in zip(self._models, self._members):
                model.run(until, stop_on_full_sync, stop_on_full_unsync)
                member.sync_model(model)
        else:
            from . import _batch_kernel

            params = self.params
            low = params.tp - params.tr
            span = (params.tp + params.tr) - low
            for state, member in zip(self._cstate, self._members):
                _batch_kernel.drive_member(
                    self._kernel,
                    state,
                    params.tc,
                    low,
                    span,
                    RESET_TIME_TOLERANCE,
                    until,
                    stop_on_full_sync,
                    stop_on_full_unsync,
                )
                state.sync_member(member)
        return [member.now for member in self._members]


def _expiries(model: CascadeModel) -> list[float]:
    """A fresh model's pending expiry per router, in node order."""
    expiry = [0.0] * model.params.n_nodes
    for time, node in model._heap:
        expiry[node] = time
    return expiry

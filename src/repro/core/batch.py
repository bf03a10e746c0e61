"""Batched ensemble engine for the cascade rule.

:class:`BatchCascade` advances a whole ensemble of seeds at one
parameter point and exposes one :class:`BatchMember` per seed.  Member
``k`` reproduces ``CascadeModel(params, seed=seeds[k], ...)`` byte
for byte — first passages, cluster histories, ``now``,
``total_cascades`` and consumed-RNG positions — because stream
derivation repeats :meth:`repro.rng.RandomSource.spawn` verbatim (one
master Lehmer advance per router, the same multiplicative mix, the
same ``n + 1`` phase-stream id) and every interval draw is ``low +
(high - low) * (state / m)`` with the same operand order.  All of it
is verified against the DES by ``tests/test_engine_differential.py``.

Backends
--------
``python``
    Each member runs through :func:`repro.topo.advance_coupled`, the
    one Python implementation of the cascade rule (the same kernel
    ``CascadeModel`` drives), with a real
    :class:`~repro.core.clusters.ClusterTracker` whose containers are
    the member's views.  No third-party dependencies; always
    available.  Non-complete couplings run this path on every
    backend.
``compiled``
    The bundled C kernel (see :mod:`repro.core._batch_kernel`): the
    fully-coupled rule and a fused cluster tracker over packed
    per-member arrays, built on demand with the system compiler and
    loaded through :mod:`ctypes`; needs NumPy and ``cc``.  It runs
    complete couplings only.

The default is observed, not configured: ``compiled`` when
:func:`compiled_backend_available` is true, else ``python``.  It is
resolved on the first :class:`BatchCascade` built without
``backend=`` and cached for the process; :data:`BACKEND` reads it.
Importing this module neither builds nor loads the C kernel nor
imports NumPy.
"""

from __future__ import annotations

from typing import Sequence

from ..topo import advance_coupled, bind_topology
from .clusters import RESET_TIME_TOLERANCE, ClusterGroup, ClusterTracker
from .parameters import RouterTimingParameters

__all__ = [
    "BACKEND",
    "BACKENDS",
    "BatchCascade",
    "BatchMember",
    "compiled_backend_available",
    "default_backend",
]

#: Every backend name :class:`BatchCascade` accepts.
BACKENDS = ("python", "compiled")

_MOD = 2**31 - 1  # == repro.rng.lehmer.MODULUS
_MUL = 16807  # == repro.rng.lehmer.MULTIPLIER


def compiled_backend_available() -> bool:
    """Whether ``backend="compiled"`` works in this environment.

    True when NumPy imports and the bundled C kernel can be (or
    already has been) built with the system compiler.  The first call
    builds and loads it; the answer is cached for the process.
    """
    from . import _batch_kernel

    return _batch_kernel.resolve_compiled() is not None


def default_backend() -> str:
    """The backend new instances use when none is forced.

    ``"compiled"`` wherever the C kernel resolves, else ``"python"``.
    """
    return "compiled" if compiled_backend_available() else "python"


def __getattr__(name: str):
    # BACKEND is served lazily so that importing the module resolves
    # nothing; the first read builds (or fails to build) the kernel.
    if name == "BACKEND":
        return default_backend()
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
    backend:
        One of :data:`BACKENDS`, or None for :func:`default_backend`.
        Both backends produce identical bytes.  "compiled" raises
        ``RuntimeError`` where :func:`compiled_backend_available` is
        false (no NumPy or no working C compiler); any other name
        raises ``ValueError``.
    topology:
        Optional :class:`~repro.topo.TopologySpec` (or canonical
        string).  Complete couplings are the fully-coupled model on
        both backends; non-complete ones run every member through
        :func:`repro.topo.advance_coupled` on both backends, so
        consumed-RNG positions stay backend-independent.
    """

    def __init__(
        self,
        params: RouterTimingParameters,
        seeds: Sequence[int],
        initial_phases="unsynchronized",
        keep_cluster_history: bool = False,
        backend: str | None = None,
        topology=None,
    ) -> None:
        if backend is None:
            backend = default_backend()
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown batch backend {backend!r}; known backends: "
                f"{', '.join(BACKENDS)}"
            )
        if backend == "compiled" and not compiled_backend_available():
            raise RuntimeError(
                "compiled backend requested but it is unavailable here "
                "(it needs numpy and a working C compiler)"
            )
        seeds = [int(s) for s in seeds]
        if not seeds:
            raise ValueError("seeds must be non-empty")
        self.params = params
        self.backend = backend
        self._keep_history = keep_cluster_history
        n = params.n_nodes
        self.topology, self._coupling = bind_topology(topology, n)
        # Per-member heaps and trackers for the python path, built on
        # its first run.
        self._heaps: list | None = None
        self._trackers: list | None = None
        self._n = n
        self._m = len(seeds)
        self._tc = params.tc
        # The interval draw's operands, fixed once: CascadeModel passes
        # (tp - tr, tp + tr) into uniform(), which multiplies by
        # (high - low).  Same floats, same order, here.
        self._low = params.tp - params.tr
        self._high = params.tp + params.tr
        self._span = self._high - self._low

        explicit = None
        if not isinstance(initial_phases, str):
            explicit = [float(p) for p in initial_phases]
            if len(explicit) != n:
                raise ValueError(f"expected {n} phases, got {len(explicit)}")
            if any(p < 0 for p in explicit):
                raise ValueError("initial phases must be non-negative")

        # -- per-member stream derivation (exact spawn() replay) -------
        # Flat SoA state: expiries and router RNG states are single
        # lists of length m*n; member k's router i sits at k*n + i.
        expiry: list[float] = []
        states: list[int] = []
        phase_states: list[int] = []
        members: list[BatchMember] = []
        tp = params.tp
        for seed in seeds:
            s = int(seed) % _MOD or 1  # _validate_seed
            for i in range(n):
                s = (_MUL * s) % _MOD  # master.next_int() inside spawn(i)
                mixed = (s * 2654435761 + (i + 1) * 40503) % _MOD
                states.append(mixed or 1)
            s = (_MUL * s) % _MOD  # the spawn(n + 1) master advance
            mixed = (s * 2654435761 + (n + 2) * 40503) % _MOD
            ps = mixed or 1
            if explicit is not None:
                expiry.extend(explicit)
            elif initial_phases == "synchronized":
                expiry.extend([0.0] * n)
            else:
                # phase_rng.uniform(0.0, tp): 0.0 + (tp - 0.0) * u.
                q = ps
                for _ in range(n):
                    q = (_MUL * q) % _MOD
                    expiry.append(0.0 + (tp - 0.0) * (q / _MOD))
                ps = q
            phase_states.append(ps)
            members.append(BatchMember(seed, n))
        self._expiry = expiry
        self._rng_state = states
        self._phase_states = phase_states
        self._members = members

        # Lazily-built packed per-member state (compiled backend).
        self._cstate: list | None = None
        self._cimpl = None

    # -- public views ----------------------------------------------------

    @property
    def members(self) -> tuple[BatchMember, ...]:
        """Per-member trajectory views, in seed order."""
        return tuple(self._members)

    def rng_states(self, k: int) -> list[int]:
        """Member ``k``'s current per-router Lehmer states.

        Equal to ``[m._rngs[i]._gen.state for i in range(n)]`` of the
        equivalent ``CascadeModel`` at the same point — the witness
        that both engines consumed each stream to the same position.
        """
        if self._cstate is not None:
            return [int(v) for v in self._cstate[k].rng]
        base = k * self._n
        return self._rng_state[base : base + self._n]

    def phase_rng_state(self, k: int) -> int:
        """Member ``k``'s phase-stream state after initialization."""
        return self._phase_states[k]

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
        if self.backend == "compiled" and self._coupling is None:
            self._run_compiled(until, stop_on_full_sync, stop_on_full_unsync)
        else:
            self._run_coupled(until, stop_on_full_sync, stop_on_full_unsync)
        return [member.now for member in self._members]

    # -- the python path: advance_coupled per member ---------------------

    def _run_coupled(
        self, until: float, stop_sync: bool, stop_unsync: bool
    ) -> None:
        """Advance every member through :func:`repro.topo.advance_coupled`.

        Member ``k`` is ``CascadeModel(params, seed=seeds[k],
        topology=...)`` with its state held here: the same heap
        seeding, a ``draw`` that maps local node ``i`` to flat stream
        ``k*n + i``, and a real :class:`ClusterTracker` whose output
        containers *are* the member's views.
        """
        n = self._n
        if self._heaps is None:
            self._heaps = []
            self._trackers = []
            for k, member in enumerate(self._members):
                base = k * n
                tracker = ClusterTracker(n, keep_history=self._keep_history)
                # The tracker's containers become the member's views:
                # further mutation on either side is shared.
                member.first_time_at_least = tracker.first_time_at_least
                member.first_time_at_most = tracker.first_time_at_most
                member.round_times = tracker.round_times
                member.round_largest = tracker.round_largest
                member.groups = tracker.groups
                # A sorted list is already a heap.
                self._heaps.append(
                    sorted((self._expiry[base + i], i) for i in range(n))
                )
                self._trackers.append(tracker)
        states = self._rng_state
        low = self._low
        span = self._span
        for k, member in enumerate(self._members):
            tracker = self._trackers[k]

            def draw(node: int, _base: int = k * n) -> float:
                # One Lehmer step of flat stream _base + node, then
                # RandomSource.uniform(low, high)'s arithmetic.
                s = (_MUL * states[_base + node]) % _MOD
                states[_base + node] = s
                return low + span * (s / _MOD)

            stop_time, closed = advance_coupled(
                self._heaps[k],
                self._coupling,
                tracker,
                draw,
                self._tc,
                until,
                stop_on_full_sync=stop_sync,
                stop_on_full_unsync=stop_unsync,
            )
            member.total_cascades += closed
            member.total_resets = tracker.total_resets
            member.now = max(member.now, until) if stop_time is None else stop_time

    # -- compiled kernel (bundled C) -------------------------------------

    def _ensure_compiled(self) -> None:
        if self._cstate is not None:
            return
        from . import _batch_kernel

        self._cimpl = _batch_kernel.resolve_compiled()
        assert self._cimpl is not None  # guaranteed by __init__
        n = self._n
        self._cstate = [
            _batch_kernel.MemberState(
                self._expiry[k * n : (k + 1) * n],
                self._rng_state[k * n : (k + 1) * n],
                n,
                self._keep_history,
            )
            for k in range(self._m)
        ]

    def _run_compiled(
        self, until: float, stop_sync: bool, stop_unsync: bool
    ) -> None:
        from . import _batch_kernel

        self._ensure_compiled()
        kernel = self._cimpl
        tol = RESET_TIME_TOLERANCE
        for k, member in enumerate(self._members):
            st = self._cstate[k]
            _batch_kernel.drive_member(
                kernel,
                st,
                self._tc,
                self._low,
                self._span,
                tol,
                until,
                stop_sync,
                stop_unsync,
            )
            st.sync_member(member)

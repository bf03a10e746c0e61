"""A second, independent implementation of the Periodic Messages model.

The discrete-event implementation in :mod:`repro.core.model` schedules
timer expiries, message arrivals, and busy-period ends as individual
events.  But for the pure periodic model (no triggered updates, zero
notification delay) the dynamics collapse to a single rule: sort the
pending timer expiries; the earliest one opens a *cascade* whose busy
window starts at ``e1 + Tc`` and grows by ``Tc`` for every further
expiry that falls inside it; everyone in the cascade resets together
when the window closes.

That rule lives in one place, :func:`repro.topo.advance_coupled`;
:class:`CascadeModel` is a driver over it — it owns the heap of
pending expiries, the per-router streams and the cluster tracker, and
passes ``coupling=None`` for the paper's fully-coupled model.  Run
with the same seed, it consumes each router's random stream in the
same per-router order as the DES and therefore reproduces the DES
trajectory *bit for bit* (verified in
``tests/test_engine_differential.py``), making it both a fast engine
for large ensembles and an executable proof that the DES implements
the model it claims to.
"""

from __future__ import annotations

from typing import Literal, Sequence

from ..rng import RandomSource
from ..topo import advance_coupled, bind_topology
from .clusters import ClusterTracker
from .parameters import RouterTimingParameters

__all__ = ["CascadeModel"]

InitialPhases = Literal["unsynchronized", "synchronized"] | Sequence[float]


class CascadeModel:
    """Cascade-rule simulation of the Periodic Messages model.

    Parameters
    ----------
    params:
        The (N, Tp, Tc, Tr) tuple.
    seed:
        Master seed; the per-router stream derivation matches
        :class:`~repro.core.model.PeriodicMessagesModel` exactly.
    initial_phases:
        As in the DES model: "unsynchronized" (uniform on [0, Tp]),
        "synchronized" (all zero), or explicit phases.
    keep_cluster_history:
        Forwarded to the tracker.
    probe:
        Optional :class:`~repro.obs.probes.SimulationProbe`.  Gets the
        tracker's reset/group stream plus ``on_cascade`` with the
        exact expiry times of every cascade (the source of per-node
        busy time).  Observational only: the probe never touches the
        RNG streams or the heap, so probed and unprobed runs are
        byte-identical.
    topology:
        Optional :class:`~repro.topo.TopologySpec` (or its canonical
        string form) restricting which routers hear which resets.
        ``None`` and any coupling whose generated graph is complete
        (``"clique"``, a 3-ring, ``erdos_renyi`` with p=1, ...) run
        the kernel fully coupled (``coupling=None``), so their results
        and cache keys are the clique's; stream derivation and phase
        draws never depend on the topology.
    """

    def __init__(
        self,
        params: RouterTimingParameters,
        seed: int = 1,
        initial_phases: InitialPhases = "unsynchronized",
        keep_cluster_history: bool = False,
        probe=None,
        topology=None,
    ) -> None:
        self.params = params
        self.probe = probe
        n = params.n_nodes
        self.topology, self._coupling = bind_topology(topology, n)
        self.tracker = ClusterTracker(n, keep_history=keep_cluster_history, probe=probe)
        master = RandomSource(seed=seed)
        self._rngs = [master.spawn(i) for i in range(n)]
        self._phase_rng = master.spawn(n + 1)
        if initial_phases == "unsynchronized":
            phases = [self._phase_rng.uniform(0.0, params.tp) for _ in range(n)]
        elif initial_phases == "synchronized":
            phases = [0.0] * n
        else:
            phases = [float(p) for p in initial_phases]
            if len(phases) != n:
                raise ValueError(f"expected {n} phases, got {len(phases)}")
            if any(p < 0 for p in phases):
                raise ValueError("initial phases must be non-negative")
        # Heap of (expiry_time, node). Ties break on node id, which
        # matches the DES's FIFO tie-break for the initial schedule.
        # A sorted list is already a heap.
        self._heap: list[tuple[float, int]] = sorted(
            (phase, node) for node, phase in enumerate(phases)
        )
        self.now = 0.0
        self.total_cascades = 0

    def run(
        self,
        until: float,
        stop_on_full_sync: bool = False,
        stop_on_full_unsync: bool = False,
    ) -> float:
        """Advance cascades until the horizon or a stop condition."""
        params = self.params
        # rng.uniform(low, high), with its operands hoisted and the
        # generator's Lehmer step inlined over plain int states: the
        # same floats in the same order, so the same bits.
        low = params.tp - params.tr
        span = (params.tp + params.tr) - low
        states = self.rng_states()

        def draw(node: int) -> float:
            state = (16807 * states[node]) % 2147483647  # MULTIPLIER, MODULUS
            states[node] = state
            return low + span * (state / 2147483647)

        stop_time, closed = advance_coupled(
            self._heap,
            self._coupling,
            self.tracker,
            draw,
            params.tc,
            until,
            stop_on_full_sync=stop_on_full_sync,
            stop_on_full_unsync=stop_on_full_unsync,
            probe=self.probe,
        )
        for rng, state in zip(self._rngs, states):
            rng._gen._state = state
        self.total_cascades += closed
        self.now = max(self.now, until) if stop_time is None else stop_time
        return self.now

    def rng_states(self) -> list[int]:
        """Each router's current Lehmer state, in node order.

        Equal to ``PeriodicMessagesModel``'s ``router.rng._gen.state``
        at the same point: the witness that both engines consumed each
        stream to the same position.
        """
        return [rng._gen.state for rng in self._rngs]

    @property
    def synchronization_time(self) -> float | None:
        """First time all N routers reset together."""
        return self.tracker.synchronization_time

    @property
    def breakup_time(self) -> float | None:
        """First time a full window of lone resets occurred."""
        return self.tracker.breakup_time

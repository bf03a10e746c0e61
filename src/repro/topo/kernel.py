"""The cascade rule: the one Python implementation of the model.

The paper's cascade rule assumes full coupling: the earliest pending
expiry opens *the* busy window, every later expiry inside it joins,
and everyone resets together when the window closes.  On an arbitrary
graph several cascades can be in flight at once, and an expiry may
only join a cascade it is *adjacent* to.  This module implements that
generalization once; the fully-coupled model is the case where every
pair is adjacent.  :class:`~repro.core.fastsim.CascadeModel` and the
python path of :class:`~repro.core.batch.BatchCascade` are drivers
over it, on every topology, which is what makes cascade-vs-batch
byte-identity structural rather than coincidental.

Semantics (the deterministic rule set, documented in DESIGN.md §13):

* Pending expiries are processed in ``(time, node)`` heap order.
* An expiry at ``t`` joins the earliest-created active cascade whose
  window satisfies ``t <= window`` and that contains at least one
  member adjacent to the node *at time t*; joining grows that
  cascade's window by ``Tc``.  Cascades never merge.
* An expiry adjacent to no joinable cascade opens a new one with
  window ``t + Tc``.
* A cascade closes at its window: all members reset simultaneously at
  the window time and redraw their intervals, both in join order.
  Same-window closes resolve in creation order; a same-time pending
  expiry is processed *before* the close (it may still join, since
  the join test is ``<=``).
* A cascade whose window outlives the horizon never closes in this
  call: its members' original expiries are restored to the heap, so a
  later call with a larger horizon resumes exactly here.

On a complete graph at most one cascade is ever active and every
pending expiry ``<= window`` joins it, so the rule collapses to the
paper's single-cascade rule.  ``coupling=None`` states that case
directly and skips the adjacency tests; an evaluated complete
:class:`~repro.topo.coupling.Coupling` gives the same bytes (checked
in ``tests/test_topo_properties.py``), and the DES oracle agrees with
both (``tests/test_engine_differential.py``).
"""

from __future__ import annotations

import heapq

__all__ = ["advance_coupled"]

_INF = float("inf")


def advance_coupled(
    heap: list,
    coupling,
    tracker,
    draw,
    tc: float,
    until: float,
    stop_on_full_sync: bool = False,
    stop_on_full_unsync: bool = False,
    probe=None,
) -> tuple[float | None, int]:
    """Advance coupled cascades until the horizon or a stop.

    Parameters
    ----------
    heap:
        Mutable heap of ``(expiry_time, node)`` pairs — the caller's
        persistent pending-expiry state.  Mutated in place; on return
        it holds exactly the expiries still pending (including the
        restored members of cascades that outlived the horizon).
    coupling:
        A :class:`~repro.topo.coupling.Coupling` (or anything with an
        ``adjacent(u, v, t)`` method), or None for full coupling.
    tracker:
        A :class:`~repro.core.clusters.ClusterTracker`; receives every
        reset in close order and is ``finish()``-ed before return.
    draw:
        ``draw(node) -> float`` — consumes one interval draw from the
        node's stream.  Streams are consumed in join order at each
        close.
    tc:
        Per-message processing cost (the window increment).
    until:
        Horizon in seconds.
    stop_on_full_sync / stop_on_full_unsync:
        Checked after each cascade close.
    probe:
        Optional simulation probe; gets ``on_cascade(window, members)``
        with the members' original ``(expiry_time, node)`` pairs.

    Returns ``(stop_time, cascades_closed)``: ``stop_time`` is the
    time of the close at which a stop condition fired, or None when
    the run reached the horizon.
    """
    heappop = heapq.heappop
    heappush = heapq.heappush
    adjacent = None if coupling is None else coupling.adjacent
    record_reset = tracker.record_reset
    cascades: list[list] = []  # [window, [(expiry_time, node), ...]] in creation order
    closed = 0
    stop_time = None
    while True:
        exp_t = heap[0][0] if heap else _INF
        close_t = _INF
        for index, cascade in enumerate(cascades):
            if cascade[0] < close_t:
                close_t = cascade[0]
                close_i = index
        if exp_t <= close_t and exp_t <= until:
            entry = heappop(heap)
            t, node = entry
            for cascade in cascades:
                if t <= cascade[0] and (
                    adjacent is None
                    or any(adjacent(member, node, t) for _e, member in cascade[1])
                ):
                    cascade[1].append(entry)
                    cascade[0] += tc
                    break
            else:
                cascades.append([t + tc, [entry]])
        elif close_t <= until:
            window, members = cascades.pop(close_i)
            closed += 1
            if probe is not None:
                probe.on_cascade(window, members)
            for _e, node in members:
                record_reset(window, node)
            for _e, node in members:
                heappush(heap, (window + draw(node), node))
            if (stop_on_full_sync and tracker.is_fully_synchronized()) or (
                stop_on_full_unsync and tracker.is_fully_unsynchronized()
            ):
                stop_time = window
                break
        else:
            break
    # Cascades still open outlive the horizon (or the stop): restore
    # their members' original expiries so a later call resumes here.
    for _window, members in cascades:
        for entry in members:
            heappush(heap, entry)
    tracker.finish()
    return stop_time, closed

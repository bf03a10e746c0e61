"""Pure arithmetic shared by the workloads: percentiles, the tail rule,
open-loop timing, and span self-time attribution.

Everything here is deterministic and clock-free so that
``perfbench/tests`` can pin it down exactly.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

#: A tail percentile is reported only when at least this many samples
#: lie beyond it.
TAIL_MIN_BEYOND = 10


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 1]: the smallest sample
    with at least ``q`` of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError("q must be in (0, 1]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[rank - 1]


def median(values) -> float:
    """The middle sample (mean of the two middle ones for even counts)."""
    if not values:
        raise ValueError("median of no samples")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def supported_quantile(count: int, wanted: float) -> float | None:
    """The highest quantile <= ``wanted`` with at least
    :data:`TAIL_MIN_BEYOND` of ``count`` samples beyond it.

    ``None`` when even the median is unsupported (fewer than
    ``2 * TAIL_MIN_BEYOND`` samples).  The answer is rounded down to a
    whole percent so reports name a familiar percentile.
    """
    if count < 2 * TAIL_MIN_BEYOND:
        return None
    best = 1.0 - TAIL_MIN_BEYOND / count
    best = math.floor(best * 100 + 1e-9) / 100
    return min(wanted, best)


@dataclass(frozen=True)
class Tail:
    """A tail percentile as reported: the value, the quantile it really
    is, and a note when that is lower than the one asked for."""

    value: float
    quantile: float
    wanted: float
    samples: int

    @property
    def note(self) -> str:
        if self.quantile >= self.wanted:
            return ""
        return (
            f"p{self.wanted * 100:g} unsupported by {self.samples} samples; "
            f"reported p{self.quantile * 100:g}"
        )


def tail(values, wanted: float) -> Tail:
    """Percentile ``wanted`` under the tail rule (see
    :func:`supported_quantile`); raises when too few samples exist to
    report any tail."""
    q = supported_quantile(len(values), wanted)
    if q is None:
        raise ValueError(
            f"{len(values)} samples cannot support any tail percentile"
        )
    return Tail(percentile(values, q), q, wanted, len(values))


def due_latency(due: float, done: float) -> float:
    """Open-loop latency: from when a request was due, not when it was
    sent, so a stalled generator's backlog is charged to the system."""
    return done - due


def lateness(due: float, sent: float) -> float:
    """How late the generator put a request on the wire (never negative:
    a request is not sent before it is due)."""
    return max(0.0, sent - due)


def lateness_grows(late: list[float], threshold: float) -> bool:
    """Whether generator lateness grows across one ladder step: the
    median lateness of the step's last third exceeds that of its first
    third by more than ``threshold`` seconds."""
    if len(late) < 3:
        return False
    third = len(late) // 3
    return median(late[-third:]) - median(late[:third]) > threshold


@dataclass(frozen=True)
class Span:
    """One finished span: a layer boundary crossed by the benchmark."""

    name: str
    layer: str
    t0: float
    t1: float
    parent: int | None = None
    request: int | None = None

    def to_dict(self, index: int) -> dict:
        return {
            "id": index,
            "name": self.name,
            "layer": self.layer,
            "start": self.t0,
            "end": self.t1,
            "parent": self.parent,
            "request": self.request,
        }


def attribute(spans: list[Span], t0: float, t1: float) -> tuple[dict, float]:
    """Split the wall interval ``[t0, t1]`` into per-layer self time.

    Every instant goes to the innermost open span (the latest-started
    one; a child starts no earlier than its parent), so nested spans
    give each layer its span time minus child spans, and concurrent
    spans never count one instant twice.  Returns ``(self_seconds by
    layer, unattributed seconds)``; the values sum to ``t1 - t0``.
    """
    events = []
    for index, span in enumerate(spans):
        a, b = max(span.t0, t0), min(span.t1, t1)
        if b > a:
            events.append((a, 1, index))
            events.append((b, 0, index))
    events.sort()
    layers: dict[str, float] = {}
    open_heap: list[tuple[float, int, int]] = []
    closed: set[int] = set()
    covered = 0.0
    cursor = t0
    for when, kind, index in events:
        while open_heap and open_heap[0][2] in closed:
            heapq.heappop(open_heap)
        if open_heap and when > cursor:
            owner = spans[open_heap[0][2]].layer
            layers[owner] = layers.get(owner, 0.0) + (when - cursor)
            covered += when - cursor
        cursor = when
        if kind == 1:
            # Max-heap on start time, then on index (a child recorded
            # later than a parent with the same start wins).
            heapq.heappush(open_heap, (-spans[index].t0, -index, index))
        else:
            closed.add(index)
    return layers, (t1 - t0) - covered

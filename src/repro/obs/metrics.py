"""Process-local metrics: counters, gauges, fixed-bucket histograms.

A :class:`MetricsRegistry` is a plain dictionary of named instruments.
There is no background thread, no export protocol, and no sampling —
instruments mutate a few floats, and :meth:`MetricsRegistry.snapshot`
serializes the whole registry to a JSON-ready dict on demand.

The load-bearing property is the **disabled path**: a disabled
registry hands every caller the same shared null instrument, whose
methods are empty.  Instrumented code can therefore call
``obs().metrics.counter("runner.jobs.ok").inc()`` unconditionally —
with observability off the cost is a dict miss and two no-op calls,
which is what keeps the Fig-10 overhead budget (<5%, the obs row
of ``BENCH_parallel.json``) honest.
"""

from __future__ import annotations

import bisect
from typing import Mapping

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

#: Default histogram bucket upper bounds, in seconds: spans from
#: sub-millisecond cache reads to multi-minute simulation jobs.
DEFAULT_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 60.0, 300.0
)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    kind = "counter"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge for deltas")
        self.value += amount

    def as_dict(self) -> dict:
        return {"kind": self.kind, "value": self.value}


class Gauge:
    """A value that can move in either direction (e.g. queue depth)."""

    __slots__ = ("name", "value")

    kind = "gauge"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def add(self, delta: float) -> None:
        self.value += delta

    def as_dict(self) -> dict:
        return {"kind": self.kind, "value": self.value}


class Histogram:
    """Fixed-bucket histogram of observed values.

    Buckets are cumulative upper bounds (Prometheus-style): an
    observation lands in the first bucket whose bound is >= the value,
    or in the implicit overflow bucket.  Fixed buckets keep
    ``observe`` O(log B) with zero allocation, which matters because
    cache-latency histograms sit on the runner's per-job path.
    """

    __slots__ = ("name", "bounds", "counts", "overflow", "total", "count")

    kind = "histogram"

    def __init__(self, name: str, buckets: tuple = DEFAULT_BUCKETS) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("buckets must be a non-empty ascending sequence")
        self.name = name
        self.bounds = tuple(float(b) for b in buckets)
        self.counts = [0] * len(self.bounds)
        self.overflow = 0
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        index = bisect.bisect_left(self.bounds, value)
        if index == len(self.bounds):
            self.overflow += 1
        else:
            self.counts[index] += 1
        self.total += value
        self.count += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "buckets": {f"le_{b:g}": c for b, c in zip(self.bounds, self.counts)},
            "overflow": self.overflow,
        }


class _NullInstrument:
    """Shared do-nothing instrument served by disabled registries."""

    __slots__ = ()

    name = "<disabled>"
    value = 0.0
    count = 0
    mean = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def add(self, delta: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def as_dict(self) -> dict:
        return {}


_NULL = _NullInstrument()


class MetricsRegistry:
    """Named instruments for one process.

    Parameters
    ----------
    enabled:
        When False (the default), every accessor returns the shared
        null instrument and the registry stays empty — the cheap
        production path.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self._instruments: dict[str, object] = {}

    def _get(self, name: str, factory, *args):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = factory(name, *args)
            self._instruments[name] = instrument
        elif not isinstance(instrument, factory):
            raise TypeError(
                f"metric {name!r} is already registered as "
                f"{type(instrument).__name__}, not {factory.__name__}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        if not self.enabled:
            return _NULL  # type: ignore[return-value]
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        if not self.enabled:
            return _NULL  # type: ignore[return-value]
        return self._get(name, Gauge)

    def histogram(self, name: str, buckets: tuple = DEFAULT_BUCKETS) -> Histogram:
        if not self.enabled:
            return _NULL  # type: ignore[return-value]
        return self._get(name, Histogram, buckets)

    def value(self, name: str) -> float:
        """Current value of a counter/gauge (0.0 when absent)."""
        instrument = self._instruments.get(name)
        return getattr(instrument, "value", 0.0) if instrument else 0.0

    def snapshot(self) -> dict[str, dict]:
        """JSON-ready ``{name: {kind, ...}}`` of every instrument."""
        return {
            name: instrument.as_dict()
            for name, instrument in sorted(self._instruments.items())
        }

    def merge_counts(self, counts: Mapping[str, float], prefix: str = "") -> None:
        """Fold a plain ``{name: count}`` mapping into counters.

        Used to mirror :class:`~repro.parallel.report.RunReport`
        outcome tallies into the registry so the two accountings can
        be cross-checked (``tests/test_obs_inert.py``).
        """
        for name, count in counts.items():
            self.counter(f"{prefix}{name}").inc(count)

    def __len__(self) -> int:
        return len(self._instruments)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "enabled" if self.enabled else "disabled"
        return f"MetricsRegistry({state}, instruments={len(self)})"

"""The traced run's span recorder and its layer-boundary wrappers.

Spans are recorded only from the benchmark's own files: :func:`install`
wraps public entry points of each ``repro`` layer (class methods, so
calls made inside the library are seen too) for the duration of a
traced pass, then :meth:`Recorder.uninstall` puts the originals back.
Spans stay in memory and are written once, by :meth:`Recorder.write`.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from pathlib import Path

from .stats import Span


class Recorder:
    """In-memory spans plus the counts gathered at the same boundaries."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def begin(self, name: str, layer: str, request: int | None = None) -> int:
        """Open a span (its id is reserved now, so a child's id is
        always larger than its parent's)."""
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self.spans[index] = Span(name, layer, time.perf_counter(), 0.0, parent, request)
        return index

    def end(self, index: int) -> None:
        span = self.spans[index]
        self.spans[index] = Span(
            span.name, span.layer, span.t0, time.perf_counter(), span.parent, span.request
        )

    @contextmanager
    def span(self, name: str, layer: str, request: int | None = None):
        """A nested span on this thread (the stack gives the parent)."""
        index = self.begin(name, layer, request)
        self._stack.append(index)
        try:
            yield index
        finally:
            self._stack.pop()
            self.end(index)

    def record(self, name: str, layer: str, t0: float, t1: float, request: int) -> None:
        """Add a span timed elsewhere (a request on the event loop, whose
        concurrent spans have no stack parent)."""
        self.spans.append(Span(name, layer, t0, t1, None, request))

    def add(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def finished(self) -> list[Span]:
        return [span for span in self.spans if span is not None and span.t1 > 0.0]

    def time_in(self, name: str) -> float:
        """Total duration of spans with this name."""
        return sum(s.t1 - s.t0 for s in self.finished() if s.name == name)

    def count_of(self, name: str) -> int:
        return sum(1 for s in self.finished() if s.name == name)

    # -- wrappers -----------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, layer: str, after=None) -> None:
        """Replace ``owner.attr`` with a spanned version.  ``after`` is
        called as ``after(recorder, args, result)`` to take counts."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def spanned(*args, **kwargs):
            with self.span(name, layer):
                result = original(*args, **kwargs)
            if after is not None:
                after(self, args, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, spanned)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output -------------------------------------------------------------

    def write(self, path: Path, header: dict) -> None:
        """Write every span once, as JSON lines after one header line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write(json.dumps(header, sort_keys=True) + "\n")
            for index, span in enumerate(self.spans):
                if span is not None and span.t1 > 0.0:
                    out.write(json.dumps(span.to_dict(index), sort_keys=True) + "\n")


def _count_cascade(rec: Recorder, args, _result) -> None:
    model = args[0]
    rec.add("core.cascades", model.total_cascades)
    rec.add("core.sim_seconds", model.now)


def _count_batch(rec: Recorder, args, _result) -> None:
    batch = args[0]
    for member in batch.members:
        rec.add("core.cascades", member.total_cascades)
        rec.add("core.sim_seconds", member.now)
    phases = getattr(batch, "phase_seconds", None) or {}
    if any(phases.values()):
        for phase, seconds in phases.items():
            rec.add(f"core.phase.{phase}_s", seconds)


def _count_hit(rec: Recorder, _args, result) -> None:
    rec.add("parallel.cache_hits", result is not None)


def install(rec: Recorder) -> None:
    """Wrap each layer's public entry points (see module docstring)."""
    from repro.campaign import dispatch
    from repro.core import batch, fastsim
    from repro.parallel import cache, checkpoint, runner
    from repro.topo import coupling

    rec.wrap(fastsim.CascadeModel, "run", "core.cascade_run", "core", _count_cascade)
    rec.wrap(batch.BatchCascade, "run", "core.batch_run", "core", _count_batch)
    rec.wrap(coupling.Coupling, "__init__", "topo.coupling", "topo")
    rec.wrap(runner.ParallelRunner, "run", "parallel.runner", "parallel")
    rec.wrap(dispatch.LocalDispatcher, "run", "parallel.dispatch", "parallel")
    rec.wrap(cache.ResultCache, "get", "parallel.cache_get", "parallel", _count_hit)
    rec.wrap(cache.ResultCache, "put", "parallel.cache_put", "parallel")
    rec.wrap(checkpoint.CheckpointJournal, "record", "parallel.journal", "parallel")

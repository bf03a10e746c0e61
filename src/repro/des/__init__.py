"""Discrete-event simulation substrate.

Provides the :class:`Simulator` event loop (binary-heap backed),
:class:`Event` scheduling with deterministic tie-breaking, and
generator-based processes.
"""

from .engine import SimulationError, Simulator
from .events import Event, EventCancelled
from .process import Process, Signal, all_of, spawn

__all__ = [
    "Process",
    "Signal",
    "all_of",
    "spawn",
    "Simulator",
    "SimulationError",
    "Event",
    "EventCancelled",
]

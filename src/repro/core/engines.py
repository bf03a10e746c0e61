"""The single registry of simulation engines.

Every layer that lets a caller choose an engine — ensembles, sweeps,
the CLI, the serve layer, :class:`~repro.parallel.job.SimulationJob` —
validates the name here, so an unknown engine raises the *same*
``ValueError`` everywhere instead of each call site growing its own
check.

Engines
-------
``des``
    The discrete-event implementation
    (:class:`~repro.core.model.PeriodicMessagesModel`): every timer
    expiry, message arrival, and busy-period end is an event.  The
    slowest engine and the semantic reference.
``cascade``
    :class:`~repro.core.fastsim.CascadeModel`: one heap of pending
    expiries driven through :func:`repro.topo.advance_coupled`, the
    one Python implementation of the cascade rule.  Bit-identical to
    the DES, one model per seed.
``batch``
    :class:`~repro.core.batch.BatchCascade`, bit-identical to
    ``cascade`` member by member; a job runs it with one seed.
    Complete couplings run the bundled C kernel wherever it builds
    (it needs NumPy and ``cc``); everything else runs one
    ``CascadeModel`` per member.  Enforced byte-identical by
    ``tests/test_engine_differential.py``.
"""

from __future__ import annotations

__all__ = ["ENGINES", "resolve_engine"]

#: Known engine names, in reference-to-fastest order.
ENGINES = ("des", "cascade", "batch")


def resolve_engine(engine: str) -> str:
    """Return ``engine`` unchanged if known, else raise ``ValueError``.

    This is the one place the error message is worded; every call site
    (ensemble, sweeps, CLI, serve, job specs) funnels through it so the
    failure mode is identical no matter where a bad name enters.
    """
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; known engines: {', '.join(ENGINES)}"
        )
    return engine

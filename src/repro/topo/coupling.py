"""Adjacency-masked reset propagation: the coupling graph at runtime.

A :class:`Coupling` is a :class:`~repro.topo.spec.TopologySpec`
instantiated on a concrete node count.  It answers the one question
the generalized cascade kernel asks — "may node ``v``'s expiry at time
``t`` join a cascade containing node ``u``?" — and reports whether the
graph is *complete at all times*.  A complete coupling is exactly the
paper's fully-coupled model: :func:`bind_topology` hands the engines
None for it, and the kernel reads None as "every pair is adjacent"
(same bytes as the evaluated graph, no adjacency tests; cache keys
and consumed-RNG positions are the clique's).
"""

from __future__ import annotations

from .spec import TopologySpec, adjacency, ensure_spec

__all__ = ["Coupling", "bind_topology"]


class Coupling:
    """One topology spec bound to a node count.

    Parameters
    ----------
    spec:
        A :class:`TopologySpec` or its canonical string form.
    n:
        Number of routers; the graph is generated deterministically
        from ``(spec, n)``.
    """

    __slots__ = ("spec", "n", "is_complete", "_static", "_phase_adj", "_period")

    def __init__(self, spec: "TopologySpec | str", n: int) -> None:
        spec = ensure_spec(spec)
        if n < 1:
            raise ValueError("n must be >= 1")
        self.spec = spec
        self.n = n
        if spec.time_varying:
            self._static = None
            self._phase_adj = tuple(
                adjacency(phase, n) for phase in spec.phases
            )
            self._period = spec.period
            self.is_complete = all(
                self._complete(adj) for adj in self._phase_adj
            )
        else:
            self._static = adjacency(spec, n)
            self._phase_adj = None
            self._period = None
            self.is_complete = self._complete(self._static)

    @staticmethod
    def _complete(adj) -> bool:
        n = len(adj)
        return all(len(nbrs) == n - 1 for nbrs in adj)

    def adjacency_at(self, t: float):
        """The neighbor sets in force at simulated time ``t``."""
        if self._static is not None:
            return self._static
        index = int(t / self._period) % len(self._phase_adj)
        return self._phase_adj[index]

    def adjacent(self, u: int, v: int, t: float) -> bool:
        """Whether ``u`` and ``v`` are coupled at time ``t``.

        For time-varying specs the edge set is evaluated at the
        *join* time — the instant ``v``'s routing message would land
        on ``u`` — which is the documented membership rule of the
        generalized cascade (see DESIGN.md §13).
        """
        if self._static is not None:
            return v in self._static[u]
        return v in self.adjacency_at(t)[u]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Coupling({self.spec.canonical()!r}, n={self.n})"


def bind_topology(topology, n: int):
    """``(spec, coupling)`` for an engine's ``topology=`` argument.

    ``spec`` is the normalized :class:`TopologySpec` (None when
    ``topology`` is None).  ``coupling`` is the bound
    :class:`Coupling`, or None when the graph is complete at all
    times — the cascade kernel's fully-coupled case, which needs no
    adjacency tests.
    """
    if topology is None:
        return None, None
    spec = ensure_spec(topology)
    coupling = Coupling(spec, n)
    return spec, (None if coupling.is_complete else coupling)

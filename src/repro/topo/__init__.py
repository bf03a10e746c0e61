"""Topology-aware coupling: synchronization on graphs, not just a clique.

``repro.topo`` generalizes the paper's fully-coupled model to coupling
over an arbitrary graph: :class:`TopologySpec` names a graph family
(clique, ring, star, b-ary tree, Erdős–Rényi, time-varying switching
schedules) with deterministic seed-keyed generation;
:class:`Coupling` binds a spec to a node count; and
:func:`advance_coupled` is the cascade rule itself — the one Python
implementation, driven by the cascade engine and the batch engine's
python path on every topology.  A complete coupling (``"clique"``, or
any spec whose generated graph is complete) is passed to it as None,
the paper's fully-coupled model, byte for byte.
"""

from .coupling import Coupling, bind_topology
from .kernel import advance_coupled
from .spec import (
    KINDS,
    TopologySpec,
    adjacency,
    components,
    diameter,
    ensure_spec,
    mean_degree,
    parse_topology,
    tree_size,
)

__all__ = [
    "KINDS",
    "Coupling",
    "TopologySpec",
    "adjacency",
    "advance_coupled",
    "bind_topology",
    "components",
    "diameter",
    "ensure_spec",
    "mean_degree",
    "parse_topology",
    "tree_size",
]

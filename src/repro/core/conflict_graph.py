"""Conflict-graph view of a bag-constrained instance.

The bag constraint is equivalent to a *cluster* conflict graph: every bag is
a clique, and a feasible schedule is a partition of the jobs into ``m``
independent sets (one per machine).  This module builds that graph (both as
an adjacency structure of our own and as a :mod:`networkx` graph for
cross-checking), and provides the coloring primitives that the classical
2-approximation of Bodlaender, Jansen and Woeginger uses.

:mod:`networkx` is imported only by the two functions that return or read a
networkx graph, so the package imports without it (it is a dev dependency).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from .instance import Instance

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "build_conflict_graph",
    "conflict_adjacency",
    "is_cluster_graph",
    "greedy_clique_coloring",
    "chromatic_number_lower_bound",
]


def conflict_adjacency(instance: Instance) -> dict[int, set[int]]:
    """Adjacency mapping of the conflict graph (job id -> conflicting job ids).

    Two jobs conflict exactly when they belong to the same bag.  The mapping
    is symmetric and contains an entry for every job (possibly empty).
    """
    adjacency: dict[int, set[int]] = {job.id: set() for job in instance.jobs}
    for _, members in instance.bags().items():
        ids = [job.id for job in members]
        for i, a in enumerate(ids):
            for b in ids[i + 1 :]:
                adjacency[a].add(b)
                adjacency[b].add(a)
    return adjacency


def build_conflict_graph(instance: Instance) -> nx.Graph:
    """Build the conflict graph as a :class:`networkx.Graph`.

    Nodes are job identifiers (with ``size`` and ``bag`` attributes), edges
    connect jobs of the same bag.  Used by tests to cross-check our own
    adjacency construction and by the coloring baseline.
    """
    import networkx as nx

    graph = nx.Graph()
    for job in instance.jobs:
        graph.add_node(job.id, size=job.size, bag=job.bag)
    for _, members in instance.bags().items():
        ids = [job.id for job in members]
        for i, a in enumerate(ids):
            for b in ids[i + 1 :]:
                graph.add_edge(a, b)
    return graph


def is_cluster_graph(graph: nx.Graph) -> bool:
    """Check that a graph is a disjoint union of cliques.

    A graph is a cluster graph iff it contains no induced path on three
    vertices (P3).  We check each connected component for completeness,
    which is equivalent and faster for our graphs.
    """
    import networkx as nx

    for component in nx.connected_components(graph):
        nodes = list(component)
        size = len(nodes)
        expected_edges = size * (size - 1) // 2
        actual_edges = graph.subgraph(nodes).number_of_edges()
        if actual_edges != expected_edges:
            return False
    return True


def greedy_clique_coloring(instance: Instance) -> dict[int, int]:
    """Color the conflict graph of a bag-constrained instance optimally.

    Because the conflict graph is a cluster graph, an optimal coloring simply
    assigns color ``0, 1, 2, …`` to the jobs of each bag independently; the
    chromatic number equals the size of the largest bag.  The returned
    mapping is ``job id -> color``.  Colors can be interpreted as "machine
    classes": jobs of the same color never conflict.
    """
    coloring: dict[int, int] = {}
    for _, members in instance.bags().items():
        # Color larger jobs first so color classes are balanced by area,
        # which helps the coloring-based scheduling baseline.
        for color, job in enumerate(sorted(members, key=lambda j: -j.size)):
            coloring[job.id] = color
    return coloring


def chromatic_number_lower_bound(instance: Instance) -> int:
    """Chromatic number of the conflict graph (= size of the largest bag)."""
    sizes = instance.bag_sizes()
    return max(sizes.values()) if sizes else 0


def color_classes(coloring: dict[int, int]) -> dict[int, list[int]]:
    """Group a coloring into ``color -> sorted job ids``."""
    classes: dict[int, list[int]] = {}
    for job_id, color in coloring.items():
        classes.setdefault(color, []).append(job_id)
    return {color: sorted(ids) for color, ids in sorted(classes.items())}


def verify_coloring(instance: Instance, coloring: dict[int, int]) -> bool:
    """Check that a coloring assigns distinct colors within every bag."""
    for _, members in instance.bags().items():
        seen: set[int] = set()
        for job in members:
            color = coloring.get(job.id)
            if color is None or color in seen:
                return False
            seen.add(color)
    return True


def conflicting_pairs(instance: Instance) -> Iterable[tuple[int, int]]:
    """Yield every conflicting (unordered) pair of job identifiers."""
    for _, members in instance.bags().items():
        ids = sorted(job.id for job in members)
        for i, a in enumerate(ids):
            for b in ids[i + 1 :]:
                yield (a, b)

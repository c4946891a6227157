"""Graph-level metrics for interconnect comparison.

Computes the standard network figures of merit — diameter, mean
distance, degree, bisection width — on a topology's
:meth:`~repro.interconnect.topology.Interconnect.as_graph` view, plus a
combined :class:`InterconnectProfile` used by the ablation benchmarks to
put the taxonomy's switch choices side by side.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

from repro.interconnect.topology import Interconnect

__all__ = ["InterconnectProfile", "profile", "diameter", "mean_distance", "bisection_width"]


def diameter(graph: nx.Graph) -> int:
    """Longest shortest path; 0 for single nodes, per-component max if disconnected."""
    if graph.number_of_nodes() <= 1:
        return 0
    best = 0
    for component in nx.connected_components(graph):
        sub = graph.subgraph(component)
        if sub.number_of_nodes() > 1:
            best = max(best, nx.diameter(sub))
    return best


def mean_distance(graph: nx.Graph) -> float:
    """Average shortest-path length within components (0 for singletons)."""
    total = 0.0
    pairs = 0
    for component in nx.connected_components(graph):
        sub = graph.subgraph(component)
        n = sub.number_of_nodes()
        if n <= 1:
            continue
        total += nx.average_shortest_path_length(sub) * (n * (n - 1) / 2)
        pairs += n * (n - 1) // 2
    return total / pairs if pairs else 0.0


def _cut_size(graph: nx.Graph, order: "list[str]") -> int:
    left = set(order[: len(order) // 2])
    return sum(1 for a, b in graph.edges() if (a in left) != (b in left))


def bisection_width(graph: nx.Graph) -> int:
    """Edges cut when splitting the node set in half (heuristic).

    Exact minimum bisection is NP-hard; we take the best split of three
    deterministic orderings — label order, BFS order and DFS preorder
    from the first label — which is exact on the regular structures
    used here (meshes, stars, chains). The answer depends only on the
    graph, never on which optional packages are installed.
    """
    n = graph.number_of_nodes()
    if n <= 1 or graph.number_of_edges() == 0:
        return 0
    if not nx.is_connected(graph):
        return 0
    ordering = sorted(graph.nodes())
    candidates = [
        ordering,
        list(nx.bfs_tree(graph, ordering[0])),
        list(nx.dfs_preorder_nodes(graph, ordering[0])),
    ]
    return min(_cut_size(graph, order) for order in candidates)


@dataclass(frozen=True, slots=True)
class InterconnectProfile:
    """Side-by-side comparison record for one topology instance."""

    name: str
    n_ports: int
    area_ge: float
    config_bits: int
    diameter: int
    mean_distance: float
    bisection_width: int
    reachability: float

    def row(self) -> tuple[str, ...]:
        """The record as a tuple of formatted table cells."""
        return (
            self.name,
            str(self.n_ports),
            f"{self.area_ge:,.0f}",
            str(self.config_bits),
            str(self.diameter),
            f"{self.mean_distance:.2f}",
            str(self.bisection_width),
            f"{self.reachability:.0%}",
        )


def profile(name: str, topology: Interconnect) -> InterconnectProfile:
    """Measure one topology into a comparison record."""
    graph = topology.as_graph()
    return InterconnectProfile(
        name=name,
        n_ports=topology.n_inputs,
        area_ge=topology.area_ge(),
        config_bits=topology.config_bits(),
        diameter=diameter(graph),
        mean_distance=mean_distance(graph),
        bisection_width=bisection_width(graph),
        reachability=topology.reachability_fraction(),
    )

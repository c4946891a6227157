"""Unit tests for graph-level interconnect metrics."""

import sys

import networkx as nx
import pytest

from repro.interconnect import (
    Broadcast,
    FullCrossbar,
    HierarchicalNetwork,
    LimitedCrossbar,
    Mesh2D,
    OmegaNetwork,
    PointToPoint,
    SharedBus,
    SlidingWindow,
    bisection_width,
    diameter,
    mean_distance,
    profile,
)

#: The topologies the ablation benchmarks profile, plus the rest of the
#: library's networks, with their bisection widths.
BISECTIONS = {
    "full-crossbar-64": (lambda: FullCrossbar(64, 64), 64),
    "limited-crossbar-64": (lambda: LimitedCrossbar(64, window=3), 12),
    "shared-bus-64": (lambda: SharedBus(64, 64), 65),
    "mesh-8x8": (lambda: Mesh2D(8, 8), 8),
    "window-3hop-64": (lambda: SlidingWindow(64, hops=3), 6),
    "hierarchical-64x8": (lambda: HierarchicalNetwork(64, cluster_size=8), 5),
    "crossbar-8": (lambda: FullCrossbar(8, 8), 8),
    "window-1hop-8": (lambda: SlidingWindow(8, hops=1), 1),
    "mesh-2x4": (lambda: Mesh2D(2, 4), 4),
    "hierarchical-8x4": (lambda: HierarchicalNetwork(8, cluster_size=4), 1),
    "hierarchical-16x4": (lambda: HierarchicalNetwork(16, cluster_size=4), 3),
    "limited-crossbar-16": (lambda: LimitedCrossbar(16, window=3), 12),
    "omega-8": (lambda: OmegaNetwork(8), 10),
    "omega-16": (lambda: OmegaNetwork(16), 19),
    "point-to-point-4": (lambda: PointToPoint(4), 0),
    "broadcast-8": (lambda: Broadcast(8), 5),
}


def _bisections():
    return {name: bisection_width(build().as_graph()) for name, (build, _) in BISECTIONS.items()}


class TestDiameter:
    def test_mesh_diameter(self):
        assert diameter(Mesh2D(4, 4).as_graph()) == 6

    def test_crossbar_diameter_is_two(self):
        assert diameter(FullCrossbar(8, 8).as_graph()) == 2

    def test_disconnected_uses_component_max(self):
        graph = PointToPoint(4).as_graph()  # 4 disjoint edges
        assert diameter(graph) == 1

    def test_single_node(self):
        graph = nx.Graph()
        graph.add_node("a")
        assert diameter(graph) == 0


class TestMeanDistance:
    def test_star_mean_distance(self):
        graph = nx.star_graph(4)
        # 4 spokes at distance 1 from hub, 2 from each other.
        assert mean_distance(graph) == pytest.approx((4 * 1 + 6 * 2) / 10)

    def test_empty_graph(self):
        assert mean_distance(nx.Graph()) == 0.0

    def test_chain_longer_than_mesh(self):
        chain = SlidingWindow(16, hops=1).as_graph()
        mesh = Mesh2D(4, 4).as_graph()
        assert mean_distance(chain) > mean_distance(mesh)


class TestBisection:
    def test_path_graph_bisection_is_one(self):
        assert bisection_width(nx.path_graph(8)) == 1

    def test_complete_graph_bisection(self):
        assert bisection_width(nx.complete_graph(8)) == 16

    def test_mesh_bisection(self):
        # 4x4 mesh: cutting between columns 1 and 2 severs 4 edges.
        assert bisection_width(Mesh2D(4, 4).as_graph()) == 4

    def test_ladder_graph_bisection(self):
        # An upper bound: cutting both rails in the middle severs only 2
        # edges, but none of the three orderings finds that split.
        assert bisection_width(nx.ladder_graph(8)) == 4

    def test_library_topologies(self):
        assert _bisections() == {name: width for name, (_, width) in BISECTIONS.items()}

    def test_answer_does_not_depend_on_scipy(self, monkeypatch):
        installed = _bisections()
        monkeypatch.setitem(sys.modules, "scipy", None)  # any `import scipy` now fails
        assert _bisections() == installed

    def test_degenerate_graphs(self):
        assert bisection_width(nx.Graph()) == 0
        graph = nx.Graph()
        graph.add_node("only")
        assert bisection_width(graph) == 0


class TestProfile:
    def test_profile_fields(self):
        record = profile("mesh", Mesh2D(4, 4))
        assert record.name == "mesh"
        assert record.n_ports == 16
        assert record.diameter == 6
        assert record.reachability == 1.0
        assert len(record.row()) == 8

    def test_profiles_expose_design_tradeoffs(self):
        """The window fabric trades diameter for area against the
        crossbar — both visible in the profiles."""
        xbar = profile("xbar", FullCrossbar(16, 16))
        window = profile("window", SlidingWindow(16, hops=3))
        assert window.area_ge < xbar.area_ge
        assert window.diameter > xbar.diameter

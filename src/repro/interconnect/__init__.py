"""Executable interconnect substrate: the concrete structures behind the
taxonomy's ``'-'`` and ``'x'`` cells, with routing, timing, area and
configuration-bit accounting."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "topology": ("Interconnect", "Route", "TrafficStats"),
        "direct": ("PointToPoint", "Broadcast"),
        "bus": ("SharedBus", "BusSchedule"),
        "crossbar": ("FullCrossbar", "LimitedCrossbar"),
        "mesh": ("Mesh2D", "MeshSimulationResult"),
        "omega": ("OmegaNetwork",),
        "window": ("SlidingWindow",),
        "hierarchical": ("HierarchicalNetwork",),
        "metrics": (
            "InterconnectProfile",
            "profile",
            "diameter",
            "mean_distance",
            "bisection_width",
        ),
    },
)

"""Predictive models of the extended taxonomy: Eq. 1 (area) and Eq. 2
(configuration bits), with the switch-cost and technology-node libraries
they are parameterised by."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "energy": ("EnergyBreakdown", "EnergyModel", "EnergyParameters"),
        "reconfiguration": ("ReconfigurationCost", "ReconfigurationModel", "ReconfigurationPort"),
        "area": ("AreaBreakdown", "AreaModel", "ComponentAreas", "estimate_area"),
        "configbits": (
            "ComponentConfigWords",
            "ConfigBitsBreakdown",
            "ConfigBitsModel",
            "estimate_config_bits",
        ),
        "switches": (
            "SwitchModel",
            "DirectLinkModel",
            "SharedBusModel",
            "FullCrossbarModel",
            "LimitedCrossbarModel",
            "default_switch_model",
        ),
        "technology": (
            "TechnologyNode",
            "NODES",
            "NODE_90NM",
            "NODE_65NM",
            "NODE_45NM",
            "NODE_28NM",
        ),
    },
)

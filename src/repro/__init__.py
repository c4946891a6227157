"""repro — reproduction of "Classification of Massively Parallel Computer
Architectures" (Shami & Hemani, IPPS 2012).

The library implements the paper's extended Skillicorn taxonomy end to
end:

* :mod:`repro.core` — components, signatures, the 47-class enumeration
  (Table I), the naming hierarchy (Fig. 2), the flexibility scoring
  system (Table II) and the classifier;
* :mod:`repro.models` — the Eq.-1 area and Eq.-2 configuration-bit
  estimators with switch-cost and technology libraries;
* :mod:`repro.interconnect` — executable topologies behind the ``'-'``
  and ``'x'`` cells (crossbars, buses, meshes, sliding windows,
  hierarchies);
* :mod:`repro.machine` — executable machine models for every class
  family (dataflow, uniprocessor, SIMD array, MIMD, spatial, LUT-fabric
  universal) plus the morphability engine;
* :mod:`repro.registry` — the 25 surveyed architectures of Table III;
* :mod:`repro.bibliometrics` — the synthetic corpus behind Fig. 1;
* :mod:`repro.analysis` — similarity, Pareto and design-space analytics;
* :mod:`repro.reporting` — regenerates every table and figure.

Quickstart
----------
>>> from repro import classify, make_signature
>>> sig = make_signature(1, 64, ip_dp="1-64", ip_im="1-1",
...                      dp_dm="64-1", dp_dp="64x64")
>>> result = classify(sig)
>>> result.short_name, result.flexibility
('IAP-II', 2)
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "core": (
            "Classification",
            "FlexibilityScore",
            "Granularity",
            "Link",
            "LinkKind",
            "LinkSite",
            "MachineType",
            "Multiplicity",
            "ProcessingType",
            "ReproError",
            "Signature",
            "TaxonomicName",
            "TaxonomyClass",
            "all_classes",
            "class_by_name",
            "class_by_serial",
            "classify",
            "compare_names",
            "flexibility",
            "implementable_classes",
            "make_signature",
            "similarity",
        ),
        "models": (
            "AreaModel",
            "ConfigBitsModel",
            "estimate_area",
            "estimate_config_bits",
        ),
        "registry": (
            "ArchitectureRecord",
            "all_architectures",
            "architecture",
            "flexibility_ranking",
            "survey_table",
        ),
    },
)
__all__.insert(0, "__version__")

"""Core of the extended Skillicorn taxonomy.

Public surface of the paper's primary contribution: component and
connectivity vocabulary, architecture signatures, the 47-class
enumeration (Table I), the naming scheme (Fig. 2), the flexibility
scoring system (Table II) and the classifier used to place real machines
(Table III).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "baselines": (
            "FlynnClass",
            "SkillicornVerdict",
            "baseline_resolution",
            "extension_report",
            "flynn_class",
            "skillicorn_verdict",
        ),
        "batch": (
            "BatchClassification",
            "SignatureBatch",
            "classify_batch",
            "compile_taxonomy",
        ),
        "components": (
            "ComponentCount",
            "ComponentKind",
            "Granularity",
            "Multiplicity",
            "multiplicity_of_count",
        ),
        "connectivity": ("LINK_SITES", "Link", "LinkKind", "LinkSite"),
        "signature": ("Signature", "make_signature"),
        "taxonomy": (
            "SECTION_HEADINGS",
            "TaxonomyClass",
            "all_classes",
            "class_by_name",
            "class_by_serial",
            "enumerate_classes",
            "implementable_classes",
        ),
        "naming": ("MachineType", "ProcessingType", "TaxonomicName", "roman", "unroman"),
        "flexibility": ("FlexibilityScore", "comparable", "flexibility", "score_signature"),
        "classify": ("Classification", "canonical_class", "classify"),
        "compare": ("NameComparison", "compare_classes", "compare_names", "similarity"),
        "hierarchy": ("HierarchyNode", "build_hierarchy", "iter_paths"),
        "errors": (
            "ReproError",
            "SignatureError",
            "ClassificationError",
            "NotImplementableError",
            "NamingError",
            "CapabilityError",
            "ConfigurationError",
            "FaultError",
            "RoutingError",
            "ProgramError",
            "RegistryError",
        ),
    },
)

"""Registry of the 25 architectures surveyed in Table III, with the
query API used to regenerate the survey table and the Fig.-7 ranking."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "custom": ("CustomEntry", "CustomRegistry"),
        "record": ("ArchitectureFamily", "ArchitectureRecord"),
        "architectures": (
            "SURVEYED_ARCHITECTURES",
            "KNOWN_ERRATA",
            "all_architectures",
            "architecture",
            "architecture_names",
            "architectures_by_family",
        ),
        "populations": (
            "POPULATION_MODES",
            "PopulationSpec",
            "class_occupancy",
            "describe_population",
            "generate_batch",
            "generate_signatures",
        ),
        "survey": (
            "SurveyEntry",
            "survey_table",
            "flexibility_ranking",
            "group_by_class",
            "most_flexible",
            "errata_report",
        ),
    },
)

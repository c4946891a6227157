"""Analysis toolkit over the taxonomy: pairwise similarity (§III-A),
flexibility/area/configuration Pareto analysis (§III-B/C/D), the design-
space exploration workflow of §V, and the morphability order behind the
flexibility ladder."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "dse": ("Objective", "Recommendation", "Requirements", "capabilities_of_class", "explore"),
        "morphability": ("MorphabilityOrder", "build_morphability_order"),
        "pareto": ("DesignPoint", "evaluate_classes", "pareto_frontier"),
        "resilience": (
            "DEFAULT_FAULT_RATES",
            "ResiliencePoint",
            "can_remap",
            "degradation_curve",
            "expected_throughput",
            "flexibility_rank_correlation",
            "render_resilience_table",
            "resilience_csv_rows",
            "resilience_sweep",
        ),
        "survey_costs": ("SurveyCostPoint", "evaluate_survey", "survey_cost_table"),
        "similarity": ("SimilarityMatrix", "nearest_neighbours", "survey_similarity"),
    },
)

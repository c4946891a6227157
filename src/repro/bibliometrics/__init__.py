"""Synthetic bibliometric substrate for Fig. 1: a seeded publication
corpus standing in for the IEEE database, plus the trend analytics that
recompute the figure's series by querying it."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "corpus": ("DEFAULT_TOPICS", "Publication", "PublicationCorpus", "Topic"),
        "trends": ("TopicTrend", "TrendReport", "compute_trends"),
    },
)

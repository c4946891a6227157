"""Pairwise similarity analytics over the surveyed architectures.

§III-A claims names alone predict similarity; this module computes the
full similarity matrix over the Table-III survey (and arbitrary class
sets), finds nearest neighbours, and clusters equal-class groups — the
quantitative companion to the paper's qualitative comparison examples.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.compare import compare_classes, similarity
from repro.core.taxonomy import TaxonomyClass
from repro.registry.survey import SurveyEntry, survey_table

__all__ = ["SimilarityMatrix", "survey_similarity", "nearest_neighbours"]


@dataclass(frozen=True)
class SimilarityMatrix:
    """A labelled symmetric similarity matrix in [0, 1].

    ``values`` is a tuple of row tuples, row and column order that of
    ``labels``.
    """

    labels: tuple[str, ...]
    values: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.labels)
        if len(self.values) != n or any(len(row) != n for row in self.values):
            raise ValueError("matrix shape must match labels")

    def value(self, a: str, b: str) -> float:
        """The pairwise similarity score between architectures ``a`` and ``b``."""
        ia = self.labels.index(a)
        ib = self.labels.index(b)
        return self.values[ia][ib]

    def most_similar_pairs(self, top: int = 5) -> list[tuple[str, str, float]]:
        """Distinct-label pairs sorted by similarity, descending."""
        pairs = []
        n = len(self.labels)
        for i in range(n):
            for j in range(i + 1, n):
                pairs.append((self.labels[i], self.labels[j], self.values[i][j]))
        pairs.sort(key=lambda item: -item[2])
        return pairs[:top]

    def row(self, label: str) -> dict[str, float]:
        """One architecture's similarity scores against every other, in matrix order."""
        return dict(zip(self.labels, self.values[self.labels.index(label)]))


def _entry_class(entry: SurveyEntry) -> TaxonomyClass:
    return entry.record.classification.taxonomy_class


def survey_similarity() -> SimilarityMatrix:
    """Similarity matrix over the 25 surveyed architectures.

    Similarity between two architectures is the similarity of their
    taxonomy classes (identical classes score 1.0 — e.g. MorphoSys vs
    REMARC), which is exactly the paper's name-based prediction.
    """
    entries = survey_table()
    labels = tuple(entry.name for entry in entries)
    n = len(entries)
    values = [[1.0] * n for _ in range(n)]
    classes = [_entry_class(entry) for entry in entries]
    for i in range(n):
        for j in range(i + 1, n):
            score = compare_classes(classes[i], classes[j]).similarity
            values[i][j] = values[j][i] = score
    return SimilarityMatrix(labels=labels, values=tuple(map(tuple, values)))


def nearest_neighbours(name: str, *, top: int = 3) -> list[tuple[str, float]]:
    """The survey entries most similar to the named architecture."""
    matrix = survey_similarity()
    row = matrix.row(name)
    others = [(label, score) for label, score in row.items() if label != name]
    others.sort(key=lambda item: -item[1])
    return others[:top]

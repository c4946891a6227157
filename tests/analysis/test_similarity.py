"""Unit tests for the survey similarity analytics."""

import pytest

from repro.analysis import nearest_neighbours, survey_similarity
from repro.analysis.similarity import SimilarityMatrix


@pytest.fixture(scope="module")
def matrix():
    return survey_similarity()


class TestMatrix:
    def test_shape_and_labels(self, matrix):
        assert len(matrix.labels) == 25
        assert len(matrix.values) == 25
        assert all(len(row) == 25 for row in matrix.values)

    def test_symmetric_with_unit_diagonal(self, matrix):
        assert matrix.values == tuple(zip(*matrix.values))
        assert all(
            matrix.values[i][i] == pytest.approx(1.0) for i in range(len(matrix.labels))
        )

    def test_bounds(self, matrix):
        assert min(min(row) for row in matrix.values) >= 0.0
        assert max(max(row) for row in matrix.values) <= 1.0

    def test_same_class_pairs_score_one(self, matrix):
        assert matrix.value("MorphoSys", "REMARC") == pytest.approx(1.0)
        assert matrix.value("ARM7TDMI", "AT89C51") == pytest.approx(1.0)
        assert matrix.value("Cortex-A9 (Quad)", "Core2Duo") == pytest.approx(1.0)

    def test_cross_paradigm_pairs_score_low(self, matrix):
        assert matrix.value("REDEFINE", "ARM7TDMI") < 0.5

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            SimilarityMatrix(labels=("a", "b"), values=((1.0,) * 3,) * 3)


class TestQueries:
    def test_most_similar_pairs_are_same_class(self, matrix):
        pairs = matrix.most_similar_pairs(top=10)
        assert all(score == pytest.approx(1.0) for _, _, score in pairs)

    def test_nearest_neighbours_of_drra(self):
        neighbours = nearest_neighbours("DRRA", top=1)
        assert neighbours[0][0] == "MATRIX"  # the other ISP

    def test_nearest_neighbours_excludes_self(self):
        for name, _ in nearest_neighbours("FPGA", top=5):
            assert name != "FPGA"

    def test_row_lookup(self, matrix):
        row = matrix.row("GARP")
        assert row["GARP"] == pytest.approx(1.0)
        assert row["Montium"] == pytest.approx(1.0)  # both IAP-IV

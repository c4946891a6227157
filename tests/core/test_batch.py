"""Parity tests for the columnar batch-classification kernel.

The contract of :mod:`repro.core.batch` is bit-exactness: every number
the vectorized pass produces — class serial, implementability and the
flexibility breakdown — must equal (``==``, not ``approx``) what the
scalar classifier returns for the same signature. These tests enforce
that over all 406 constructible structures, the 47-class table, the
25-architecture survey and hypothesis-random populations.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch import (
    STRUCT_SPACE,
    SignatureBatch,
    classify_batch,
    compile_taxonomy,
    structural_signature,
    valid_structures,
)
from repro.core.classify import canonical_class
from repro.core.errors import SignatureError
from repro.core.flexibility import score_signature
from repro.core.signature import make_signature
from repro.registry.architectures import all_architectures
from repro.registry.populations import PopulationSpec, generate_signatures
from repro.core.taxonomy import all_classes


def assert_scalar_parity(signatures):
    """The whole contract in one helper: classify + score must match."""
    batch = SignatureBatch.from_signatures(signatures)
    classified = classify_batch(batch)
    for row, signature in enumerate(signatures):
        expected_class = canonical_class(signature)
        expected_score = score_signature(signature)
        assert int(classified.serial[row]) == expected_class.serial
        assert bool(classified.implementable[row]) == expected_class.implementable
        assert int(classified.flexibility[row]) == expected_score.total
        assert classified.score(row) == expected_score


class TestCompiledTables:
    def test_valid_structure_count(self):
        tables = compile_taxonomy()
        assert int(tables.valid.sum()) == 406
        assert len(valid_structures()) == 406
        assert tables.valid.shape == (STRUCT_SPACE,)

    def test_compile_is_cached(self):
        assert compile_taxonomy() is compile_taxonomy()

    def test_every_valid_structure_round_trips(self):
        for ips_rank, dps_rank, kinds in valid_structures():
            signature = structural_signature(ips_rank, dps_rank, kinds)
            assert signature.ips.multiplicity.rank == ips_rank
            assert signature.dps.multiplicity.rank == dps_rank


class TestClassifyParity:
    def test_47_class_table(self):
        assert_scalar_parity([cls.signature for cls in all_classes()])

    def test_25_architecture_survey(self):
        assert_scalar_parity([rec.signature for rec in all_architectures()])

    def test_all_406_structures(self):
        signatures = [
            structural_signature(i, d, k) for i, d, k in valid_structures()
        ]
        assert_scalar_parity(signatures)

    def test_1000_random_population(self):
        signatures = generate_signatures(
            PopulationSpec(size=1000, seed=11, mode="uniform")
        )
        assert_scalar_parity(signatures)

    def test_maximal_link_universal(self):
        usp = make_signature(
            "n", "n", ip_ip="nxn", ip_dp="nxn", ip_im="nxn",
            dp_dm="nxn", dp_dp="nxn",
        )
        assert_scalar_parity([usp])

    def test_concrete_counts_survive_round_trip(self):
        morpho = make_signature(
            1, 64, ip_dp="1-64", ip_im="1-1", dp_dm="64x64", dp_dp="64x64"
        )
        batch = SignatureBatch.from_signatures([morpho])
        rebuilt = batch.signature(0)
        # Link endpoints are stored structurally (the canonical symbols),
        # but the component counts survive.
        assert rebuilt.ips == morpho.ips
        assert rebuilt.dps == morpho.dps
        assert rebuilt.link_kinds() == morpho.link_kinds()
        assert_scalar_parity([morpho, rebuilt])


@st.composite
def random_rows(draw):
    """A valid structure decorated with consistent optional counts."""
    ips_rank, dps_rank, kinds = draw(st.sampled_from(valid_structures()))
    counts = []
    for rank in (ips_rank, dps_rank):
        if rank == 2 and draw(st.booleans()):  # MANY: any concrete count >= 2
            counts.append(draw(st.integers(min_value=2, max_value=4096)))
        elif rank == 3 and draw(st.booleans()):  # VARIABLE: any size >= 1
            counts.append(draw(st.integers(min_value=1, max_value=4096)))
        else:
            counts.append(None)
    return ips_rank, dps_rank, kinds, counts[0], counts[1]


class TestHypothesisParity:
    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(random_rows(), min_size=1, max_size=8))
    def test_random_rows_match_scalar(self, rows):
        from dataclasses import replace

        from repro.core.components import ComponentCount

        signatures = []
        for ips_rank, dps_rank, kinds, iv, dv in rows:
            base = structural_signature(ips_rank, dps_rank, kinds)
            signatures.append(
                replace(
                    base,
                    ips=ComponentCount(base.ips.multiplicity, iv),
                    dps=ComponentCount(base.dps.multiplicity, dv),
                )
            )
        assert_scalar_parity(signatures)


class TestFromColumns:
    def test_round_trips_from_signatures(self):
        signatures = [cls.signature for cls in all_classes()]
        source = SignatureBatch.from_signatures(signatures)
        rebuilt = SignatureBatch.from_columns(
            source.ips_rank, source.dps_rank, source.kinds,
            source.ips_value, source.dps_value,
        )
        assert list(rebuilt.signatures()) == signatures

    def test_unconstructible_row_is_named(self):
        # An all-NONE link row with plural DPs never validates scalar-side.
        with pytest.raises(SignatureError, match="row 0"):
            SignatureBatch.from_columns(
                np.array([0]), np.array([3]), np.zeros((1, 5), dtype=int)
            )

    def test_rank_bounds_checked(self):
        with pytest.raises(SignatureError, match="0..3"):
            SignatureBatch.from_columns(
                np.array([4]), np.array([1]), np.zeros((1, 5), dtype=int)
            )

    def test_value_rank_consistency_checked(self):
        dup = make_signature(0, 1, dp_dm="1-1")
        source = SignatureBatch.from_signatures([dup])
        with pytest.raises(SignatureError, match="inconsistent"):
            SignatureBatch.from_columns(
                source.ips_rank, source.dps_rank, source.kinds,
                source.ips_value, np.array([9]),
            )

    def test_shape_mismatch_checked(self):
        with pytest.raises(SignatureError, match="shapes disagree"):
            SignatureBatch.from_columns(
                np.array([0, 0]), np.array([1]), np.zeros((1, 5), dtype=int)
            )

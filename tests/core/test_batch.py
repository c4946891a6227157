"""Parity tests for the compiled taxonomy table.

The contract of :mod:`repro.core.batch` is exactness: every table entry
a batch row looks up — class, implementability and the flexibility
breakdown — must equal (``==``, not ``approx``) what the scalar
classifier returns for the same signature. These tests enforce that
over all 406 constructible structures, the 47-class table, the
25-architecture survey and hypothesis-random populations.
"""

import itertools
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch import (
    STRUCT_SPACE,
    SignatureBatch,
    classify_batch,
    compile_taxonomy,
    struct_index,
    structure_of,
    structural_signature,
    valid_structures,
)
from repro.core.classify import canonical_class, classify
from repro.core.components import ComponentCount
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
    assert len(classified) == len(signatures)
    for row, signature in enumerate(signatures):
        expected_class = canonical_class(signature)
        expected_score = score_signature(signature)
        result = classified.classification(row, signature)
        assert result.taxonomy_class is expected_class
        assert result.implementable == expected_class.implementable
        assert result.flexibility == expected_score.total
        assert result.score == expected_score
        assert result == classify(signature)


def _all_structures():
    """Every point of the structural space, in index order."""
    return [
        (ips_rank, dps_rank, kinds)
        for ips_rank, dps_rank in itertools.product(range(4), repeat=2)
        for kinds in itertools.product(range(3), repeat=5)
    ]


class TestCompiledTables:
    def test_valid_structure_count(self):
        table = compile_taxonomy()
        assert len(table) == STRUCT_SPACE == 3888
        assert sum(entry is not None for entry in table) == 406
        assert len(valid_structures()) == 406

    def test_compile_is_cached(self):
        assert compile_taxonomy() is compile_taxonomy()

    def test_every_valid_structure_round_trips(self):
        for ips_rank, dps_rank, kinds in valid_structures():
            signature = structural_signature(ips_rank, dps_rank, kinds)
            assert signature.ips.multiplicity.rank == ips_rank
            assert signature.dps.multiplicity.rank == dps_rank
            assert structure_of(signature) == (ips_rank, dps_rank, kinds)

    def test_index_order_matches_struct_index(self):
        structures = _all_structures()
        assert [struct_index(*s) for s in structures] == list(range(STRUCT_SPACE))

    def test_every_unconstructible_index_is_rejected_by_the_scalar_validator(self):
        table = compile_taxonomy()
        for index, structure in enumerate(_all_structures()):
            if table[index] is None:
                with pytest.raises(SignatureError):
                    structural_signature(*structure)
            else:
                signature = structural_signature(*structure)
                assert table[index] == (
                    canonical_class(signature),
                    score_signature(signature),
                )


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
        # The batch keeps the signature itself, concrete counts and all.
        assert batch[0] is morpho
        assert classify_batch(batch).classification(0, morpho).signature is morpho
        assert_scalar_parity([morpho])


class TestClassifyBatch:
    def test_unconstructible_row_is_named(self):
        # A stand-in whose ranks encode 0 IPs and variable DPs with no
        # links at all, which the scalar constructor never builds.
        def cell(rank):
            return SimpleNamespace(
                multiplicity=SimpleNamespace(rank=rank), kind=SimpleNamespace(rank=rank)
            )

        bogus = SimpleNamespace(
            ips=cell(0), dps=cell(3), ip_ip=cell(0), ip_dp=cell(0),
            ip_im=cell(0), dp_dm=cell(0), dp_dp=cell(0),
        )
        good = all_classes()[0].signature
        with pytest.raises(SignatureError, match="batch row 1"):
            classify_batch(SignatureBatch.from_signatures([good, bogus, good]))

    def test_entries_are_shared(self):
        signatures = [cls.signature for cls in all_classes()] * 2
        classified = classify_batch(SignatureBatch.from_signatures(signatures))
        assert classified[0] is classified[47]


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

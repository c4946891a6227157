"""Tests for the seeded synthetic-population generator."""

import pytest

from repro.core.classify import canonical_class
from repro.core.errors import ReproError
from repro.registry.populations import (
    POPULATION_MODES,
    PopulationSpec,
    class_occupancy,
    describe_population,
    generate_signatures,
)
from repro.core.taxonomy import all_classes


class TestDeterminism:
    def test_same_spec_same_population(self):
        spec = PopulationSpec(size=300, seed=42)
        assert generate_signatures(spec) == generate_signatures(spec)

    def test_uniform_mode_is_deterministic_too(self):
        spec = PopulationSpec(size=300, seed=42, mode="uniform")
        assert generate_signatures(spec) == generate_signatures(spec)

    def test_different_seeds_differ(self):
        a = generate_signatures(PopulationSpec(size=300, seed=1))
        b = generate_signatures(PopulationSpec(size=300, seed=2))
        assert a != b


class TestStratification:
    def test_stratified_covers_every_class_structure(self):
        signatures = generate_signatures(PopulationSpec(size=1000, seed=0))
        serials = {canonical_class(s).serial for s in signatures}
        assert serials == {cls.serial for cls in all_classes()}

    def test_stratified_shares_are_balanced(self):
        occupancy = class_occupancy(
            generate_signatures(PopulationSpec(size=470, seed=9))
        )
        assert max(occupancy.values()) - min(occupancy.values()) <= 1

    def test_uniform_draws_beyond_class_structures(self):
        # 406 valid structures vs 47 class signatures: a large uniform
        # draw must touch structures no class signature uses.
        signatures = generate_signatures(
            PopulationSpec(size=2000, seed=5, mode="uniform")
        )
        class_structures = {
            (s.ips.multiplicity, s.dps.multiplicity, s.link_kinds())
            for s in (cls.signature for cls in all_classes())
        }
        drawn = {
            (s.ips.multiplicity, s.dps.multiplicity, s.link_kinds())
            for s in signatures
        }
        assert drawn - class_structures

    def test_max_n_bounds_decorated_counts(self):
        signatures = generate_signatures(
            PopulationSpec(size=500, seed=6, max_n=32)
        )
        for signature in signatures:
            for count in (signature.ips, signature.dps):
                if count.value is not None:
                    assert count.value <= 32


class TestValidation:
    def test_modes_are_published(self):
        assert POPULATION_MODES == ("stratified", "uniform")

    def test_bad_mode_rejected(self):
        with pytest.raises(ReproError):
            PopulationSpec(size=10, mode="gaussian")

    def test_negative_size_rejected(self):
        with pytest.raises(ReproError):
            PopulationSpec(size=-1)

    def test_bad_max_n_rejected(self):
        with pytest.raises(ReproError):
            PopulationSpec(size=10, max_n=1)


class TestDescribe:
    def test_table_lists_every_drawn_class(self):
        signatures = generate_signatures(PopulationSpec(size=100, seed=4))
        text = describe_population(signatures)
        assert "Serial" in text and "Share" in text
        assert str(len(signatures)) in text

    def test_occupancy_sums_to_population(self):
        signatures = generate_signatures(PopulationSpec(size=123, seed=8))
        assert sum(class_occupancy(signatures).values()) == 123

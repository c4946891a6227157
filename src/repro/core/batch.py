"""Batch classification: the taxonomy compiled to one lookup table.

Every decision :func:`repro.core.classify.canonical_class` and
:func:`repro.core.flexibility.score_signature` make depends on exactly
seven small integers — the IP and DP multiplicity ranks (0..3) and the
five link-kind ranks (0..2) in Table-I column order. That makes the
whole 47-class decision logic a function over a **structural space** of
``4 x 4 x 3^5 = 3888`` combinations, 406 of which the signature
validator accepts. :func:`compile_taxonomy` enumerates that space once,
runs the *scalar* classifier over every constructible combination, and
keeps its answers in a tuple indexed by :func:`struct_index`;
classifying a row is then one index computation and one lookup.

Populations travel as :class:`SignatureBatch` (the signatures in row
order) and :func:`classify_batch` returns each row's Table-I class and
Table-II flexibility breakdown.

**Parity contract.** The table is built by the scalar classifier
itself, so a lookup equals the scalar answer by construction.
``tests/core/test_batch.py`` enforces ``==`` over all 406 constructible
structures, the 47 classes, the 25-architecture survey and
hypothesis-random signatures.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from repro.core.classify import Classification, canonical_class
from repro.core.components import ComponentCount, Granularity, Multiplicity
from repro.core.connectivity import LINK_SITES, Link, LinkKind, LinkSite
from repro.core.errors import SignatureError
from repro.core.flexibility import FlexibilityScore, score_signature
from repro.core.signature import Signature
from repro.core.taxonomy import TaxonomyClass

__all__ = [
    "STRUCT_SPACE",
    "compile_taxonomy",
    "SignatureBatch",
    "BatchClassification",
    "classify_batch",
    "struct_index",
    "structure_of",
    "structural_signature",
    "valid_structures",
]

#: Size of the structural space: 4 IP ranks x 4 DP ranks x 3^5 link kinds.
STRUCT_SPACE: int = 4 * 4 * 3**5

#: One table entry: the shared class and score of a constructible structure.
Entry = tuple[TaxonomyClass, FlexibilityScore]

_MULTIPLICITIES: tuple[Multiplicity, ...] = (
    Multiplicity.ZERO,
    Multiplicity.ONE,
    Multiplicity.MANY,
    Multiplicity.VARIABLE,
)
_KINDS: tuple[LinkKind, ...] = (LinkKind.NONE, LinkKind.DIRECT, LinkKind.SWITCHED)

#: Which population each link-site endpoint renders from (True = IPs).
_SITE_ENDPOINTS: dict[LinkSite, tuple[bool, bool]] = {
    LinkSite.IP_IP: (True, True),
    LinkSite.IP_DP: (True, False),
    LinkSite.IP_IM: (True, True),
    LinkSite.DP_DM: (False, False),
    LinkSite.DP_DP: (False, False),
}


def struct_index(ips_rank: int, dps_rank: int, kinds: Sequence[int]) -> int:
    """Flatten (IP rank, DP rank, five link-kind ranks) into a table index."""
    index = ips_rank * 4 + dps_rank
    for kind in kinds:
        index = index * 3 + kind
    return index


def structure_of(signature: Signature) -> tuple[int, int, tuple[int, ...]]:
    """Project a signature onto its structural-space coordinates.

    The link kinds come in Table-I column order (:data:`LINK_SITES`).
    """
    return (
        signature.ips.multiplicity.rank,
        signature.dps.multiplicity.rank,
        (
            signature.ip_ip.kind.rank,
            signature.ip_dp.kind.rank,
            signature.ip_im.kind.rank,
            signature.dp_dm.kind.rank,
            signature.dp_dp.kind.rank,
        ),
    )


def structural_signature(
    ips_rank: int, dps_rank: int, kinds: Sequence[int]
) -> Signature:
    """Build the canonical :class:`Signature` of one structural combination.

    Granularity is implied (the validator forces FINE exactly when a
    population is variable), endpoint symbols are the multiplicity
    letters, and no concrete counts are attached. Raises
    :class:`SignatureError` for combinations the validator rejects.
    """
    ips = _MULTIPLICITIES[ips_rank]
    dps = _MULTIPLICITIES[dps_rank]
    granularity = (
        Granularity.FINE
        if Multiplicity.VARIABLE in (ips, dps)
        else Granularity.COARSE
    )
    links: dict[str, Link] = {}
    for site, kind_rank in zip(LINK_SITES, kinds):
        kind = _KINDS[kind_rank]
        if kind is LinkKind.NONE:
            link = Link.none()
        else:
            left_is_ip, right_is_ip = _SITE_ENDPOINTS[site]
            link = Link(
                kind,
                (ips if left_is_ip else dps).value,
                (ips if right_is_ip else dps).value,
            )
        links[site.label.lower().replace("-", "_")] = link
    return Signature(
        granularity=granularity,
        ips=ComponentCount(ips),
        dps=ComponentCount(dps),
        **links,
    )


def _iter_structures() -> Iterator[tuple[int, int, tuple[int, ...]]]:
    """Yield ``(ips_rank, dps_rank, kinds)`` over the space, in index order."""
    for ips_rank in range(4):
        for dps_rank in range(4):
            for kinds in itertools.product(range(3), repeat=5):
                yield ips_rank, dps_rank, kinds


@lru_cache(maxsize=1)
def compile_taxonomy() -> "tuple[Entry | None, ...]":
    """Enumerate the structural space once and freeze the scalar answers.

    Entry ``i`` belongs to the structure whose :func:`struct_index` is
    ``i``: ``None`` when the scalar validator rejects it, else the
    ``(TaxonomyClass, FlexibilityScore)`` pair
    :func:`~repro.core.classify.canonical_class` and
    :func:`~repro.core.flexibility.score_signature` return for it. The
    table is cached for the process lifetime.
    """
    table: "list[Entry | None]" = []
    for ips_rank, dps_rank, kinds in _iter_structures():
        try:
            signature = structural_signature(ips_rank, dps_rank, kinds)
        except SignatureError:
            table.append(None)
            continue
        table.append((canonical_class(signature), score_signature(signature)))
    return tuple(table)


@lru_cache(maxsize=1)
def valid_structures() -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """Every constructible ``(ips_rank, dps_rank, kinds)``, in index order.

    The sample space of the synthetic population generator.
    """
    return tuple(
        structure
        for structure, entry in zip(_iter_structures(), compile_taxonomy())
        if entry is not None
    )


class SignatureBatch(tuple):
    """A population of signatures, in row order."""

    __slots__ = ()

    @classmethod
    def from_signatures(cls, signatures: Iterable[Signature]) -> "SignatureBatch":
        """Collect scalar :class:`Signature` objects into a batch."""
        return cls(signatures)


class BatchClassification(tuple):
    """Each row's ``(TaxonomyClass, FlexibilityScore)`` table entry."""

    __slots__ = ()

    def classification(self, row: int, signature: Signature) -> Classification:
        """The scalar :class:`~repro.core.classify.Classification` of one row."""
        taxonomy_class, score = self[row]
        return Classification(
            signature=signature, taxonomy_class=taxonomy_class, score=score
        )


def classify_batch(batch: SignatureBatch) -> BatchClassification:
    """Classify and flexibility-score a batch, one table lookup per row."""
    table = compile_taxonomy()
    entries = []
    for row, signature in enumerate(batch):
        entry = table[struct_index(*structure_of(signature))]
        if entry is None:
            raise SignatureError(
                f"batch row {row} encodes an unconstructible structure"
            )
        entries.append(entry)
    return BatchClassification(entries)

"""Columnar batch classification: the taxonomy compiled to flat tables.

Every decision :func:`repro.core.classify.canonical_class` and
:func:`repro.core.flexibility.score_signature` make depends on exactly
seven small integers — the IP and DP multiplicity ranks (0..3) and the
five link-kind ranks (0..2) in Table-I column order. That makes the
whole 47-class decision logic a function over a **structural space** of
``4 x 4 x 3^5 = 3888`` combinations, most of which the signature
validator rejects. :func:`compile_taxonomy` enumerates that space once,
runs the *scalar* classifier over every constructible combination, and
stores the answers in flat NumPy tables; classifying a population is
then one gather per column instead of a Python branch tree per machine.

Populations travel as :class:`SignatureBatch` — structure-of-arrays
columns (multiplicity ranks, link kinds, optional concrete counts) —
and :func:`classify_batch` produces the Table-I serial,
implementability and the full Table-II flexibility breakdown for every
row.

**Parity contract.** The pass is bit-exact against the scalar path,
not merely close: classification and flexibility come out of tables
*built by the scalar classifier itself*. ``tests/core/test_batch.py``
enforces ``==`` over all 406 constructible structures, the 47 classes,
the 25-architecture survey and hypothesis-random signatures.

Eq. 1 / Eq. 2 pricing is not vectorized: the paper's analyses price
at most a few dozen signatures, where calling the scalar models
directly is faster than building columns.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.core.components import ComponentCount, Granularity, Multiplicity
from repro.core.connectivity import LINK_SITES, Link, LinkKind, LinkSite
from repro.core.errors import ClassificationError, SignatureError
from repro.core.flexibility import FlexibilityScore
from repro.core.naming import MachineType
from repro.core.signature import Signature
from repro.core.taxonomy import TaxonomyClass, class_by_serial

__all__ = [
    "STRUCT_SPACE",
    "CompiledTaxonomy",
    "compile_taxonomy",
    "SignatureBatch",
    "BatchClassification",
    "classify_batch",
    "structural_signature",
    "valid_structures",
]

#: Size of the structural space: 4 IP ranks x 4 DP ranks x 3^5 link kinds.
STRUCT_SPACE: int = 4 * 4 * 3**5

_MULTIPLICITIES: tuple[Multiplicity, ...] = (
    Multiplicity.ZERO,
    Multiplicity.ONE,
    Multiplicity.MANY,
    Multiplicity.VARIABLE,
)
_KINDS: tuple[LinkKind, ...] = (LinkKind.NONE, LinkKind.DIRECT, LinkKind.SWITCHED)

#: Machine-type codes used in the compiled tables (index = code).
_MACHINE_TYPES: tuple[MachineType, ...] = (
    MachineType.DATA_FLOW,
    MachineType.INSTRUCTION_FLOW,
    MachineType.UNIVERSAL_FLOW,
)
_MACHINE_CODE = {machine: code for code, machine in enumerate(_MACHINE_TYPES)}

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


def _iter_structures() -> Iterator[tuple[int, int, int, tuple[int, ...]]]:
    """Yield ``(index, ips_rank, dps_rank, kinds)`` over the whole space."""
    for ips_rank in range(4):
        for dps_rank in range(4):
            for kinds in itertools.product(range(3), repeat=5):
                yield struct_index(ips_rank, dps_rank, kinds), ips_rank, dps_rank, kinds


@lru_cache(maxsize=1)
def valid_structures() -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """Every constructible ``(ips_rank, dps_rank, kinds)`` combination.

    Pure Python — this is the sample space of the synthetic population
    generator as well as the row set of the compiled tables.
    """
    valid: list[tuple[int, int, tuple[int, ...]]] = []
    for _, ips_rank, dps_rank, kinds in _iter_structures():
        try:
            structural_signature(ips_rank, dps_rank, kinds)
        except SignatureError:
            continue
        valid.append((ips_rank, dps_rank, kinds))
    return tuple(valid)


@dataclass(frozen=True)
class CompiledTaxonomy:
    """The 47-class decision logic lowered to flat per-structure tables.

    Every array has :data:`STRUCT_SPACE` entries, indexed by
    :func:`struct_index`. Invalid structures carry ``valid=False`` and
    zeros elsewhere. The tables are *derived from the scalar
    classifier* at compile time, which is what makes table lookups
    bit-exact by construction.
    """

    valid: "object"
    serial: "object"
    implementable: "object"
    multiplicity_points: "object"
    switch_points: "object"
    universal_bonus: "object"
    machine_code: "object"
    switched_mask: "object"

    @property
    def flexibility(self) -> "object":
        """Total Table-II flexibility per structure (sum of the three terms)."""
        return (
            self.multiplicity_points.astype(np.int16)
            + self.switch_points
            + self.universal_bonus
        )


@lru_cache(maxsize=1)
def compile_taxonomy() -> CompiledTaxonomy:
    """Enumerate the structural space once and freeze the scalar answers.

    For each of the 3888 combinations the scalar validator decides
    constructibility, then :func:`~repro.core.classify.canonical_class`
    and :func:`~repro.core.flexibility.score_signature` fill the row.
    The result is cached for the process lifetime.
    """
    from repro.core.classify import canonical_class
    from repro.core.flexibility import score_signature

    valid = np.zeros(STRUCT_SPACE, dtype=bool)
    serial = np.zeros(STRUCT_SPACE, dtype=np.int16)
    implementable = np.zeros(STRUCT_SPACE, dtype=bool)
    mult_points = np.zeros(STRUCT_SPACE, dtype=np.uint8)
    switch_points = np.zeros(STRUCT_SPACE, dtype=np.uint8)
    universal = np.zeros(STRUCT_SPACE, dtype=np.uint8)
    machine = np.zeros(STRUCT_SPACE, dtype=np.uint8)
    switched_mask = np.zeros(STRUCT_SPACE, dtype=np.uint8)

    for index, ips_rank, dps_rank, kinds in _iter_structures():
        try:
            signature = structural_signature(ips_rank, dps_rank, kinds)
            taxonomy_class = canonical_class(signature)
        except (SignatureError, ClassificationError):
            continue
        score = score_signature(signature)
        valid[index] = True
        serial[index] = taxonomy_class.serial
        implementable[index] = taxonomy_class.implementable
        mult_points[index] = score.multiplicity_points
        switch_points[index] = score.switch_points
        universal[index] = score.universal_bonus
        machine[index] = _MACHINE_CODE[score.machine_type]
        mask = 0
        for bit, site in enumerate(LINK_SITES):
            if site in score.switched_sites:
                mask |= 1 << bit
        switched_mask[index] = mask

    return CompiledTaxonomy(
        valid=valid,
        serial=serial,
        implementable=implementable,
        multiplicity_points=mult_points,
        switch_points=switch_points,
        universal_bonus=universal,
        machine_code=machine,
        switched_mask=switched_mask,
    )


@dataclass(frozen=True)
class SignatureBatch:
    """A population of signatures as structure-of-arrays columns.

    Columns (all length N): ``ips_rank``/``dps_rank`` are multiplicity
    ranks (uint8, 0..3), ``kinds`` is an ``(N, 5)`` uint8 matrix of
    link-kind ranks in Table-I column order, and ``ips_value`` /
    ``dps_value`` hold concrete populations as int64 with ``-1``
    meaning "symbolic" (no concrete count).
    """

    ips_rank: "object"
    dps_rank: "object"
    kinds: "object"
    ips_value: "object"
    dps_value: "object"

    def __len__(self) -> int:
        return int(self.ips_rank.shape[0])

    @classmethod
    def from_signatures(cls, signatures: Iterable[Signature]) -> "SignatureBatch":
        """Columnize scalar :class:`Signature` objects (always valid rows)."""
        rows = list(signatures)
        count = len(rows)
        ips_rank = np.empty(count, dtype=np.uint8)
        dps_rank = np.empty(count, dtype=np.uint8)
        kinds = np.empty((count, 5), dtype=np.uint8)
        ips_value = np.empty(count, dtype=np.int64)
        dps_value = np.empty(count, dtype=np.int64)
        for row, signature in enumerate(rows):
            ips_rank[row] = signature.ips.multiplicity.rank
            dps_rank[row] = signature.dps.multiplicity.rank
            for column, site in enumerate(LINK_SITES):
                kinds[row, column] = signature.link(site).kind.rank
            ips_value[row] = -1 if signature.ips.value is None else signature.ips.value
            dps_value[row] = -1 if signature.dps.value is None else signature.dps.value
        return cls(
            ips_rank=ips_rank,
            dps_rank=dps_rank,
            kinds=kinds,
            ips_value=ips_value,
            dps_value=dps_value,
        )

    @classmethod
    def from_columns(
        cls,
        ips_rank: "object",
        dps_rank: "object",
        kinds: "object",
        ips_value: "object | None" = None,
        dps_value: "object | None" = None,
    ) -> "SignatureBatch":
        """Build a batch from raw columns, validating every row.

        Rank bounds, kind bounds, structural validity (against the
        compiled tables) and value/multiplicity consistency are all
        checked; a bad row raises :class:`SignatureError` naming its
        index, mirroring what the scalar constructor would have raised.
        """
        ips = np.ascontiguousarray(ips_rank, dtype=np.int64)
        dps = np.ascontiguousarray(dps_rank, dtype=np.int64)
        kind_matrix = np.ascontiguousarray(kinds, dtype=np.int64)
        count = ips.shape[0]
        if dps.shape != (count,) or kind_matrix.shape != (count, 5):
            raise SignatureError(
                "column shapes disagree: expected ips_rank (N,), dps_rank (N,), kinds (N, 5)"
            )
        iv = (
            np.full(count, -1, dtype=np.int64)
            if ips_value is None
            else np.ascontiguousarray(ips_value, dtype=np.int64)
        )
        dv = (
            np.full(count, -1, dtype=np.int64)
            if dps_value is None
            else np.ascontiguousarray(dps_value, dtype=np.int64)
        )
        if iv.shape != (count,) or dv.shape != (count,):
            raise SignatureError("value columns must have shape (N,)")
        if count and (
            ips.min() < 0 or ips.max() > 3 or dps.min() < 0 or dps.max() > 3
        ):
            raise SignatureError("multiplicity ranks must lie in 0..3")
        if count and (kind_matrix.min() < 0 or kind_matrix.max() > 2):
            raise SignatureError("link-kind ranks must lie in 0..2")
        batch = cls(
            ips_rank=ips.astype(np.uint8),
            dps_rank=dps.astype(np.uint8),
            kinds=kind_matrix.astype(np.uint8),
            ips_value=iv,
            dps_value=dv,
        )
        tables = compile_taxonomy()
        bad = np.nonzero(~tables.valid[batch.struct_index()])[0]
        if bad.size:
            row = int(bad[0])
            raise SignatureError(
                f"row {row} encodes an unconstructible structure "
                f"(ips rank {int(ips[row])}, dps rank {int(dps[row])}, "
                f"kinds {kind_matrix[row].tolist()})"
            )
        for label, ranks, values in (("ips", ips, iv), ("dps", dps, dv)):
            concrete = values >= 0
            expected = np.minimum(values, 2)  # 0->0, 1->1, >=2 -> MANY rank
            mismatched = concrete & (ranks != 3) & (ranks != expected)
            if mismatched.any():
                row = int(np.nonzero(mismatched)[0][0])
                raise SignatureError(
                    f"row {row}: {label} count {int(values[row])} is inconsistent "
                    f"with multiplicity rank {int(ranks[row])}"
                )
        return batch

    def struct_index(self) -> "object":
        """Per-row :func:`struct_index` into the compiled tables (int64)."""
        index = self.ips_rank.astype(np.int64) * 4 + self.dps_rank
        for column in range(5):
            index = index * 3 + self.kinds[:, column]
        return index

    def signature(self, row: int) -> Signature:
        """Reconstruct the scalar :class:`Signature` of one row."""
        ips = _MULTIPLICITIES[int(self.ips_rank[row])]
        dps = _MULTIPLICITIES[int(self.dps_rank[row])]
        base = structural_signature(
            int(self.ips_rank[row]),
            int(self.dps_rank[row]),
            [int(k) for k in self.kinds[row]],
        )
        iv = int(self.ips_value[row])
        dv = int(self.dps_value[row])
        if iv < 0 and dv < 0:
            return base
        from dataclasses import replace

        return replace(
            base,
            ips=ComponentCount(ips, None if iv < 0 else iv),
            dps=ComponentCount(dps, None if dv < 0 else dv),
        )

    def signatures(self) -> Iterator[Signature]:
        """Iterate the batch back out as scalar signatures (row order)."""
        for row in range(len(self)):
            yield self.signature(row)


@dataclass(frozen=True)
class BatchClassification:
    """Vectorized classification results for one :class:`SignatureBatch`.

    Arrays are row-aligned with the batch. The scalar accessors
    (:meth:`score`, :meth:`taxonomy_class`, :meth:`classification`)
    rebuild the exact objects the scalar path would have produced —
    same cached :class:`~repro.core.taxonomy.TaxonomyClass` instances,
    field-identical :class:`~repro.core.flexibility.FlexibilityScore`.
    """

    serial: "object"
    implementable: "object"
    multiplicity_points: "object"
    switch_points: "object"
    universal_bonus: "object"
    machine_code: "object"
    switched_mask: "object"

    def __len__(self) -> int:
        return int(self.serial.shape[0])

    @property
    def flexibility(self) -> "object":
        """Total Table-II flexibility per row (int16)."""
        return (
            self.multiplicity_points.astype(np.int16)
            + self.switch_points
            + self.universal_bonus
        )

    def machine_type(self, row: int) -> MachineType:
        """The row's machine type as the enum the scalar path uses."""
        return _MACHINE_TYPES[int(self.machine_code[row])]

    def switched_sites(self, row: int) -> tuple[LinkSite, ...]:
        """The row's switched sites in Table-I column order."""
        mask = int(self.switched_mask[row])
        return tuple(site for bit, site in enumerate(LINK_SITES) if mask & (1 << bit))

    def score(self, row: int) -> FlexibilityScore:
        """The row's :class:`FlexibilityScore`, field-identical to scalar."""
        return FlexibilityScore(
            multiplicity_points=int(self.multiplicity_points[row]),
            switch_points=int(self.switch_points[row]),
            universal_bonus=int(self.universal_bonus[row]),
            switched_sites=self.switched_sites(row),
            machine_type=self.machine_type(row),
        )

    def taxonomy_class(self, row: int) -> TaxonomyClass:
        """The row's Table-I class (the shared cached instance)."""
        return class_by_serial(int(self.serial[row]))

    def classification(self, row: int, signature: Signature) -> "object":
        """A scalar :class:`~repro.core.classify.Classification` for one row."""
        from repro.core.classify import Classification

        return Classification(
            signature=signature,
            taxonomy_class=self.taxonomy_class(row),
            score=self.score(row),
        )


def classify_batch(batch: SignatureBatch) -> BatchClassification:
    """Classify and flexibility-score a whole batch via table gathers."""
    tables = compile_taxonomy()
    index = batch.struct_index()
    invalid = np.nonzero(~tables.valid[index])[0]
    if invalid.size:
        raise SignatureError(
            f"batch row {int(invalid[0])} encodes an unconstructible structure"
        )
    return BatchClassification(
        serial=tables.serial[index],
        implementable=tables.implementable[index],
        multiplicity_points=tables.multiplicity_points[index],
        switch_points=tables.switch_points[index],
        universal_bonus=tables.universal_bonus[index],
        machine_code=tables.machine_code[index],
        switched_mask=tables.switched_mask[index],
    )

"""Inverse construction: from a tetragonal cover back to a tower.

The six unordered pairs of the four sheets carry an induced action,
and complementation of pairs is a fixed-point-free involution
commuting with it; its three orbits are the pair partitions
``{12|34}``, ``{13|24}``, ``{14|23}``, which underlie a degree-3
cover.  Pairs are indexed lexicographically and partitions by the
pair holding sheet 1, so the complement swaps pair indices 1/6, 2/5,
3/4 (the constant ``groups.COMPLEMENT``) and the partitions are the
blocks (1,6), (2,5), (3,4).  The pairs cover and the partition cover
are the images of the input under S4's pairs and partition
homomorphisms, made by one ``groups.derive`` pass over its entries
from the S4 table's image columns.

A fibre of the tetragonal cover has a type 1-5 by its cycle type, a
column of the S4 table (``groups.classify_fiber``).  A
``TetragonalCover`` looks each entry's index up once and keeps the
indices: its stratum and ``fiber_types`` read columns at them.  Types 4 and 5 are exactly the
fibres where the pairs cover, a tower over the partitions, ramifies
over the partition cover, and it does so in two points.
``_glue_flips`` glues them, and their cycles of pairs upstairs, as it
glues a twisted tower's flip points in ``expected_inverse``: one rule
for both directions.

Node markers stay side-band data on the normalizations, which is what
lets the smooth machinery keep running underneath.

One ``roundtrip`` serves towers of every mode: it inverts a tower's
tetragonal quotient and compares the result with ``expected_inverse``,
the tower twisted by its orientation cover and glued over its flip
labels (Donagi, "The fibers of the Prym map", 1992).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .covers import (
    BranchedCover,
    CoverPoint,
    NodalCoverModel,
    arithmetic_genus,
    genus as cover_genus,
    iter_isomorphisms,
    nodal_isomorphisms,
)
from .forward import construct
from .groups import (
    COMPLEMENT,
    FIBER_DOUBLE_DOUBLE,
    FIBER_QUADRUPLE,
    FIBER_TYPE,
    FLIPS,
    PAIR_IMAGE,
    PARTITION_BLOCKS,
    PARTITION_IMAGE,
    block_table,
    derive,
    symmetric_table,
)
from .permutation import Permutation, compose, orbits
from .report import CheckReport, CheckResult
from .towers import (
    ETALE,
    BlockSystem,
    Tower,
    TowerValidationError,
    flip_weights,
    validate_tower,
)

STRATUM_M0 = "m0"
STRATUM_M1 = "m1"
STRATUM_M2 = "m2"
STRATUM_OTHER = "other"


@dataclass(frozen=True)
class TetragonalCover:
    """A connected degree-4 cover together with its stratum.

    The stratum counts labels of type (2,2): none is ``m0``, one is
    ``m1``, two is ``m2`` if S4 acts transitively on the three pair
    partitions (the partition curve is connected), anything else (or
    any 4-cycle label) is ``other``.
    """

    cover: BranchedCover
    stratum: str = field(init=False)
    # each entry's index in S4's table, looked up once
    _indices: list[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.cover.degree != 4:
            raise ValueError(f"tetragonal cover must have degree 4, got {self.cover.degree}")
        if not self.cover.is_connected():
            raise ValueError("tetragonal cover must be connected")
        table = symmetric_table(4)
        object.__setattr__(self, "_indices", table.indices(self.cover.monodromy))
        object.__setattr__(self, "stratum", _stratum(self._indices, table.columns))

    @property
    def genus(self) -> int:
        return cover_genus(self.cover)

    def fiber_types(self) -> dict[str, int]:
        types = symmetric_table(4).columns[FIBER_TYPE]
        return {label: types[x] for label, x in zip(self.cover.labels, self._indices)}


# the strata by their number of (2,2) labels
_STRATA_BY_DOUBLES = (STRATUM_M0, STRATUM_M1, STRATUM_M2)


def _stratum(indices: list[int], columns: tuple[tuple, ...]) -> str:
    types = [columns[FIBER_TYPE][x] for x in indices]
    doubles = types.count(FIBER_DOUBLE_DOUBLE)
    if FIBER_QUADRUPLE in types or doubles >= len(_STRATA_BY_DOUBLES):
        return STRATUM_OTHER
    # two (2,2) labels can leave the monodromy in a dihedral group that
    # fixes a partition: the partition curve is then disconnected, and
    # the pairs cover is no tower
    partitions = columns[PARTITION_IMAGE]
    if doubles == 2 and len(orbits([partitions[x] for x in indices if partitions[x]], 3)) != 1:
        return STRATUM_OTHER
    return _STRATA_BY_DOUBLES[doubles]


@dataclass(frozen=True)
class InverseResult:
    source: TetragonalCover
    pairs_cover: BranchedCover
    complement: Permutation
    blocks: BlockSystem
    trigonal_cover: BranchedCover
    fiber_types: Mapping[str, int]
    trigonal_model: NodalCoverModel
    pairs_model: NodalCoverModel


def _glue_flips(
    cover: BranchedCover, trigonal: BranchedCover, blocks: BlockSystem
) -> tuple[NodalCoverModel, NodalCoverModel]:
    """``trigonal`` and ``cover`` as nodal curves, glued at the flip points.

    ``cover`` is a tower over ``blocks`` with block-action curve
    ``trigonal``.  Each label must carry 0 or 2 flip points: the two
    block cycles are glued downstairs, their upstairs cycles upstairs,
    the longer block cycle first.
    """
    table = block_table(blocks)
    column = table.columns[FLIPS]
    lower: list[tuple[CoverPoint, CoverPoint]] = []
    upper: list[tuple[CoverPoint, CoverPoint]] = []
    for label, x in zip(cover.labels, table.indices(cover.monodromy)):
        flips = column[x]
        if not flips:
            continue
        if len(flips) != 2:
            raise AssertionError(f"{len(flips)} flip points at {label!r}; a node glues two")
        (a, up_a), (b, up_b) = sorted(flips, key=lambda flip: -len(flip[0]))
        lower.append((CoverPoint(label, a), CoverPoint(label, b)))
        upper.append((CoverPoint(label, up_a), CoverPoint(label, up_b)))
    return NodalCoverModel(trigonal, tuple(lower)), NodalCoverModel(cover, tuple(upper))


def invert(tetragonal: TetragonalCover) -> InverseResult:
    """Pairs cover, partition cover and the node markers they carry.

    Every connected degree-4 cover is accepted; degenerate fibres only
    show up as node markers, never as changed permutations.
    """
    pairs_cover, trigonal_cover = derive(
        tetragonal.cover, symmetric_table(4), (PAIR_IMAGE, PARTITION_IMAGE)
    )
    trigonal_model, pairs_model = _glue_flips(pairs_cover, trigonal_cover, PARTITION_BLOCKS)
    return InverseResult(
        source=tetragonal,
        pairs_cover=pairs_cover,
        complement=COMPLEMENT,
        blocks=PARTITION_BLOCKS,
        trigonal_cover=trigonal_cover,
        fiber_types=tetragonal.fiber_types(),
        trigonal_model=trigonal_model,
        pairs_model=pairs_model,
    )


@dataclass(frozen=True)
class GluedTower:
    """A tower with the points over its flip labels glued on each level."""

    trigonal_model: NodalCoverModel
    double_model: NodalCoverModel
    blocks: BlockSystem


def expected_inverse(tower: Tower) -> GluedTower:
    """The nodal tower that ``invert`` returns for the tetragonal
    quotient of ``tower``, in every mode.

    The top curve is the tower twisted by its orientation cover O: the
    entry at each label of odd flip weight, where O is branched, is
    multiplied by the central element swapping the sheets of every
    block.  The pullback of O to the trigonal curve is branched at all
    three points over such a label, so the twisted entry flips the two
    blocks the tower does not.  Over each flip label the twisted entry
    thus flips exactly two blocks; they are glued downstairs, and their
    in-block 2-cycles, which are the blocks themselves, upstairs.  The
    twist is trivial for etale and special towers.
    """
    tau = Permutation.from_cycles(6, tower.blocks)
    weights = flip_weights(tower.flips)
    twisted = BranchedCover.from_pairs(
        6,
        (
            (label, compose(perm, tau) if weights[label] % 2 else perm)
            for label, perm in tower.cover.entries()
        ),
    )
    trigonal_model, double_model = _glue_flips(twisted, tower.trigonal, tower.blocks)
    pa = arithmetic_genus(trigonal_model)
    if pa != tower.genus + len(tower.flip_labels()):
        raise AssertionError("glued trigonal curve has the wrong arithmetic genus")
    if arithmetic_genus(double_model) != 2 * pa - 1:
        raise AssertionError("glued top curve has the wrong arithmetic genus")
    return GluedTower(trigonal_model, double_model, tower.blocks)


def _blocks_correspond(rho: Permutation, source: BlockSystem, target: BlockSystem) -> bool:
    mapped = {frozenset(rho(s) for s in block) for block in source}
    return mapped == {frozenset(block) for block in target}


def match_glued(result: InverseResult, glued: GluedTower) -> CheckReport:
    """Compare an inverse image with a glued tower, nodes included.

    The degree-6 comparison additionally requires the relabeling to
    carry complement orbits onto the glued tower's blocks.
    """
    checks: list[CheckResult] = []
    try:
        matched = next(nodal_isomorphisms(result.trigonal_model, glued.trigonal_model), None) is not None
        checks.append(
            CheckResult(
                "trigonal-curves-match",
                matched,
                "" if matched else "no relabeling aligns the glued trigonal curves and their nodes",
            )
        )
    except ValueError as err:
        checks.append(CheckResult("trigonal-curves-match", False, str(err)))

    try:
        found = any(
            _blocks_correspond(rho, result.blocks, glued.blocks)
            for rho in nodal_isomorphisms(result.pairs_model, glued.double_model)
        )
        checks.append(
            CheckResult(
                "double-covers-match",
                found,
                "" if found else "no relabeling aligns the glued top curves with nodes and blocks",
            )
        )
    except ValueError as err:
        checks.append(CheckResult("double-covers-match", False, str(err)))

    return CheckReport("glued-comparison", tuple(checks))


def roundtrip(tower: Tower) -> CheckReport:
    """Tower round trip in every mode: forward, invert the tetragonal
    quotient, compare with ``expected_inverse``."""
    title = f"roundtrip-{tower.mode}"
    flips = len(tower.flip_labels())
    checks: list[CheckResult] = []
    try:
        tetragonal = TetragonalCover(construct(tower).quotient)
    except (ValueError, AssertionError) as err:
        checks.append(CheckResult("component-extraction", False, str(err)))
        return CheckReport(title, tuple(checks))
    checks.append(CheckResult("component-extraction", True))
    checks.append(
        CheckResult(
            "component-stratum",
            tetragonal.stratum == _STRATA_BY_DOUBLES[flips],
            f"stratum {tetragonal.stratum!r}",
        )
    )
    checks.append(
        CheckResult(
            "component-genus",
            tetragonal.genus == tower.genus - 1 + flips,
            f"genus {tetragonal.genus}, expected {tower.genus - 1 + flips}",
        )
    )
    checks.extend(match_glued(invert(tetragonal), expected_inverse(tower)).checks)
    return CheckReport(title, tuple(checks))


def roundtrip_etale(tetragonal: TetragonalCover) -> CheckReport:
    """Etale round trip: invert a smooth (``m0``) tetragonal cover and
    run the forward construction; both components must recover the
    input."""
    if tetragonal.stratum != STRATUM_M0:
        raise ValueError(
            f"the etale round trip needs an m0 cover, stratum is {tetragonal.stratum!r}"
        )
    checks: list[CheckResult] = []
    inverse = invert(tetragonal)
    try:
        tower = validate_tower(inverse.pairs_cover, inverse.blocks)
        checks.append(CheckResult("inverse-validates", True))
    except TowerValidationError as err:
        checks.append(CheckResult("inverse-validates", False, str(err)))
        return CheckReport("roundtrip-etale", tuple(checks))
    checks.append(CheckResult("inverse-is-etale", tower.mode == ETALE, f"mode {tower.mode!r}"))
    checks.append(
        CheckResult(
            "inverse-genus",
            tower.genus == tetragonal.genus + 1,
            f"tower genus {tower.genus}, expected {tetragonal.genus + 1}",
        )
    )
    result = construct(tower)
    parts = result.sections.components
    checks.append(CheckResult("sections-split-in-two", len(parts) == 2, f"{len(parts)} components"))
    if len(parts) == 2:
        for which, part in zip(("first", "second"), parts):
            try:
                rho = next(iter_isomorphisms(part.cover, tetragonal.cover), None)
                checks.append(
                    CheckResult(
                        f"{which}-component-recovers-input",
                        rho is not None,
                        "" if rho is not None else "no relabeling matches the component",
                    )
                )
            except ValueError as err:
                checks.append(CheckResult(f"{which}-component-recovers-input", False, str(err)))
    return CheckReport("roundtrip-etale", tuple(checks))

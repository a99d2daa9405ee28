"""Forward construction: from a tower to its curve of sections.

A section of the in-block double cover over a point of the line picks
one sheet in each of the three blocks, so there are eight of them; the
tower's monodromy acts on these transversals and the resulting
degree-8 cover is the curve of sections.  Exchanging every choice at
once is a fixed-point-free involution; its quotient is a degree-4
(tetragonal) cover, and the parity of the number of exchanged choices
gives a further degree-2 orientation cover.

Transversals are indexed as ``groups`` sets out
(``groups.transversal_sheets`` lists them in that order): index 1 is
the transversal of all smaller sheets, complementing every choice
sends ``t`` to ``9 - t``, and the parity classes of the orientation
cover are counted relative to index 1.  So the involution and both sheet maps are the same for every
tower: ``construct`` returns the ``groups`` constants.  The sections,
quotient and orientation covers are the tower's images under three of
the block group's homomorphisms, made by one ``groups.derive`` pass
over the tower's entries from the block table's image columns.

``verify_predictions`` looks each tower entry's index up once and
reads the same columns: the cycle counts give the involution-free
criterion, and the result's three covers must equal the columns'
images entry by entry, whose squares with the result's sheet maps are
checked once per element index and pair of sheet maps.
"""
from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass

from .covers import (
    BranchedCover,
    Component,
    CoverPoint,
    NodalCoverModel,
    arithmetic_genus,
    genus,
    iter_isomorphisms,
    label_cycles,
)
from .groups import (
    CANONICAL_BLOCKS,
    CYCLE_COUNTS,
    FIBER_DOUBLE_DOUBLE,
    FIBER_QUADRUPLE,
    FIBER_TYPE,
    INVOLUTION,
    ORIENTATION,
    QUOTIENT,
    SECTION_COUNT,
    SECTIONS,
    TO_ORIENTATION,
    TO_QUOTIENT,
    block_table,
    derive,
    symmetric_table,
    transversal_sheets,
)
from .permutation import MEMO_SIZE, Permutation, conjugate
from .report import CheckReport, CheckResult
from .towers import ETALE, GENERAL, SPECIAL, Tower, flip_weights


@dataclass(frozen=True)
class NodeMarkers:
    """Node data a Special tower imposes on the three derived covers."""

    sections: NodalCoverModel
    quotient: NodalCoverModel
    orientation: NodalCoverModel


@dataclass(frozen=True)
class ForwardResult:
    tower: Tower
    sections: BranchedCover
    involution: Permutation
    quotient: BranchedCover
    orientation: BranchedCover
    to_quotient: tuple[int, ...]
    to_orientation: tuple[int, ...]
    nodes: NodeMarkers | None


def construct(tower: Tower) -> ForwardResult:
    """Build the sections cover, its involution, and both quotients.

    Labels with trivial induced action are dropped from each derived
    cover (the orientation cover in particular keeps only labels of odd
    flip weight); the sheet maps keep the full correspondence either
    way.  Special towers get their node markers attached.
    """
    sections, quotient, orientation = derive(
        tower.cover, block_table(tower.blocks), (SECTIONS, QUOTIENT, ORIENTATION)
    )
    result = ForwardResult(
        tower=tower,
        sections=sections,
        involution=INVOLUTION,
        quotient=quotient,
        orientation=orientation,
        to_quotient=TO_QUOTIENT,
        to_orientation=TO_ORIENTATION,
        nodes=None,
    )
    if tower.mode == SPECIAL:
        result = dataclasses.replace(result, nodes=special_nodes(tower, result))
    return result


def special_nodes(tower: Tower, result: ForwardResult) -> NodeMarkers:
    """Node markers for a Special tower.

    Over the one flip label the sections cover ramifies in four double
    points; the two transversal pairs agreeing on the unflipped block
    are glued, and likewise for the disagreeing two, giving two nodes
    exchanged by the involution.  Ordering follows transversal
    indexing: the node containing transversal 1 comes first.  The
    tetragonal quotient picks up the common image as a single node, and
    the orientation cover's two halves are glued over the same label.
    """
    if tower.mode != SPECIAL:
        raise ValueError(f"special nodes exist only for special towers, mode is {tower.mode!r}")
    label = tower.flips[0].label
    (spare,) = set(range(1, 4)) - {p.cycle[0] for p in tower.flips}  # 1-based block indices
    smaller = tower.blocks[spare - 1][0]
    sheets = transversal_sheets(tower.blocks)  # transversal t at position t - 1

    # orbits of the section action at the flip label, grouped by the
    # choice made on the unflipped block
    by_choice: dict[bool, list[tuple[int, ...]]] = {True: [], False: []}
    for cycle in result.sections.perm_at(label).cycles():
        by_choice[sheets[cycle[0] - 1][spare - 1] == smaller].append(cycle)

    node_pairs = []
    for choice in (True, False):
        first, second = by_choice[choice]
        node_pairs.append((CoverPoint(label, first), CoverPoint(label, second)))

    quotient_cycles = label_cycles(result.quotient, label)
    if len(quotient_cycles) != 2:
        raise AssertionError("special flip label must leave exactly two quotient points")

    return NodeMarkers(
        sections=NodalCoverModel(result.sections, tuple(node_pairs)),
        quotient=NodalCoverModel(
            result.quotient,
            ((CoverPoint(label, quotient_cycles[0]), CoverPoint(label, quotient_cycles[1])),),
        ),
        orientation=NodalCoverModel(
            result.orientation,
            ((CoverPoint(label, (1,)), CoverPoint(label, (2,))),),
        ),
    )


def component_tetragonal(result: ForwardResult) -> BranchedCover:
    """First component of a split sections cover, as a degree-4 cover.

    Only Etale and Special towers split the sections cover in two; the
    involution is required to carry one component onto the other, and
    that certificate is checked before the component is returned.
    """
    parts = result.sections.components
    if len(parts) != 2:
        raise ValueError(f"sections cover has {len(parts)} component(s); expected a split into 2")
    first, second = parts
    if first.cover.degree != 4 or second.cover.degree != 4:
        raise ValueError("sections cover does not split into two degree-4 components")
    if sorted(result.involution(s) for s in first.sheets) != list(second.sheets):
        raise AssertionError("involution does not exchange the two components")
    if first.cover.labels != second.cover.labels:
        raise AssertionError("split components are branched over different labels")
    relabel = Permutation(
        tuple(second.from_parent(result.involution(first.to_parent(i))) for i in range(1, 5))
    )
    for pa, pb in zip(first.cover.monodromy, second.cover.monodromy):
        if conjugate(pa, relabel) != pb:
            raise AssertionError("involution fails to intertwine the two components")
    return first.cover


def verify_predictions(tower: Tower, result: ForwardResult) -> CheckReport:
    """Per-mode structural expectations for the derived covers.

    Every failed expectation is reported individually; nothing stops at
    the first failure.
    """
    g = tower.genus
    free = all(result.involution(t) != t for t in range(1, SECTION_COUNT + 1))
    checks = _shared_checks(result, free)

    def add(name: str, passed: bool, detail: str = "") -> None:
        checks.append(CheckResult(name, passed, detail))

    top_genus = genus(tower.cover)
    add(
        "prym-dimension-match",
        top_genus - g == (g if tower.flips else g - 1),
        f"double cover genus {top_genus} over base genus {g}",
    )

    parts = result.sections.components

    if tower.mode == GENERAL:
        add("sections-connected", len(parts) == 1, f"{len(parts)} components")
        if len(parts) == 1:
            gy = genus(result.sections)
            add("sections-genus", gy == 2 * g + 1, f"genus {gy}, expected {2 * g + 1}")
            ram = result.sections.total_ramification()
            add("sections-total-ramification", ram == 4 * g + 16, f"{ram} vs {4 * g + 16}")
            gx = genus(result.quotient)
            add("quotient-genus", gx == g + 1, f"genus {gx}, expected {g + 1}")
            add(
                "prym-of-quotient-match",
                gy - gx == g,
                f"sections genus {gy} minus quotient genus {gx} should be {g}",
            )
            go = genus(result.orientation)
            add(
                "orientation-rational",
                go == 0 and result.orientation.is_connected(),
                f"genus {go}",
            )
            s4 = symmetric_table(4)
            entries = zip(result.quotient.labels, s4.indices(result.quotient.monodromy))
            fibers = {label: s4.columns[FIBER_TYPE][x] for label, x in entries}
            double_double = [label for label, fiber in fibers.items() if fiber == FIBER_DOUBLE_DOUBLE]
            add(
                "quotient-two-double-double-labels",
                len(double_double) == 2 and FIBER_QUADRUPLE not in fibers.values(),
                f"(2,2) at {double_double!r}",
            )
    elif tower.mode == SPECIAL:
        checks.extend(_split_checks(result, parts, expected_genus=g, expected_ram=2 * g + 6))
        nodes = result.nodes
        if nodes is None:
            add("node-markers-attached", False, "special tower without node markers")
        else:
            add("node-count", len(nodes.sections.nodes) == 2, f"{len(nodes.sections.nodes)} nodes")
            swapped = False
            if len(nodes.sections.nodes) == 2:
                first, second = nodes.sections.nodes
                swapped = frozenset(p.mapped(result.involution) for p in first) == frozenset(second)
            add("nodes-swapped-by-involution", swapped)
            pa_sections = arithmetic_genus(nodes.sections)
            add("sections-arithmetic-genus", pa_sections == 2 * g + 1, f"{pa_sections} vs {2 * g + 1}")
            pa_quotient = arithmetic_genus(nodes.quotient)
            add("quotient-arithmetic-genus", pa_quotient == g + 1, f"{pa_quotient} vs {g + 1}")
            crosswise = len(parts) == 2 and all(
                {_component_of(parts, p.cycle[0]) for p in pair} == {0, 1}
                for pair in nodes.sections.nodes
            )
            add(
                "wirtinger-gluing",
                crosswise and swapped and free,
                "two copies glued crosswise at two points exchanged by a free involution",
            )
            pa_orientation = arithmetic_genus(nodes.orientation)
            add("orientation-arithmetic-genus", pa_orientation == 0, f"{pa_orientation}")
        add("orientation-unbranched", not result.orientation.labels)
    elif tower.mode == ETALE:
        checks.extend(_split_checks(result, parts, expected_genus=g - 1, expected_ram=2 * g + 4))
        add("orientation-unbranched", not result.orientation.labels)
    else:
        add("known-mode", False, f"unrecognized mode {tower.mode!r}")

    return CheckReport(f"forward-predictions[{tower.mode}, g={g}]", tuple(checks))


def _shared_checks(result: ForwardResult, free: bool) -> list[CheckResult]:
    """The checks of every mode, from one index lookup per tower entry.

    The cycle-count column gives the involution-free criterion.  The
    result's three covers must be the image columns' covers of the
    tower, entry by entry, or ``diagram-commutes`` fails; its squares
    are then checked on those images under the result's sheet maps.
    """
    tower = result.tower
    table = block_table(tower.blocks)
    derived = [
        (name, getattr(result, name), table.columns[column], [], [])
        for name, column in (("sections", SECTIONS), ("quotient", QUOTIENT), ("orientation", ORIENTATION))
    ]
    freeness = []
    diagram = []
    for label, perm in zip(tower.cover.labels, tower.cover.monodromy):
        x = table.index[perm.images]
        up, down = table.columns[CYCLE_COUNTS][x]
        if up != 2 * down:
            freeness.append(f"{label}: {up} vs {down}")
        for _, _, column, labels, images in derived:
            if column[x] is not None:
                labels.append(label)
                images.append(column[x])
        for square, t in _square_breaks(x, result.to_quotient, result.to_orientation):
            diagram.append(f"{square} square breaks at {label}/{t}")
    mismatched = [
        f"{name} cover is not the tower's image"
        for name, cover, _, labels, images in derived
        if cover.labels != tuple(labels) or cover.monodromy != tuple(images)
    ]

    checks = [
        CheckResult(
            "involution-free-criterion",
            not freeness,
            "; ".join(freeness) or "section cycles double the quotient cycles at every label",
        ),
        CheckResult("involution-fixed-point-free", free),
        CheckResult(
            "diagram-commutes", not (mismatched or diagram), "; ".join((mismatched + diagram)[:4])
        ),
    ]

    odd_weight = {label for label, weight in flip_weights(tower.flips).items() if weight % 2}
    checks.append(
        CheckResult(
            "orientation-branching",
            set(result.orientation.labels) == odd_weight,
            f"branched over {sorted(result.orientation.labels)!r}, odd flip weight at {sorted(odd_weight)!r}",
        )
    )
    return checks


@functools.lru_cache(maxsize=MEMO_SIZE)
def _square_breaks(
    x: int, to_quotient: tuple[int, ...], to_orientation: tuple[int, ...]
) -> tuple[tuple[str, int], ...]:
    """The transversals ``t`` at which the sheet maps fail to carry the
    section action of block-group element ``x`` onto its quotient or
    orientation action, as ``(square, t)``, quotient first.  Every block
    system shares these columns, and an instance's sheet maps are nearly
    always the ``groups`` constants, so each element is checked once."""
    table = block_table(CANONICAL_BLOCKS)
    action, quotient, orientation = (
        table.columns[c][x] or Permutation.identity(table.degrees[c])
        for c in (SECTIONS, QUOTIENT, ORIENTATION)
    )
    breaks = []
    for t in range(1, SECTION_COUNT + 1):
        if to_quotient[action(t) - 1] != quotient(to_quotient[t - 1]):
            breaks.append(("quotient", t))
        if to_orientation[action(t) - 1] != orientation(to_orientation[t - 1]):
            breaks.append(("orientation", t))
    return tuple(breaks)


def _component_of(parts: tuple[Component, ...], parent_sheet: int) -> int:
    for i, part in enumerate(parts):
        if parent_sheet in part.sheets:
            return i
    raise ValueError(f"sheet {parent_sheet} in no component")


def _split_checks(
    result: ForwardResult, parts: tuple[Component, ...], expected_genus: int, expected_ram: int
) -> list[CheckResult]:
    checks = [CheckResult("sections-split-in-two", len(parts) == 2, f"{len(parts)} components")]
    if len(parts) != 2:
        return checks
    genera = [genus(p.cover) for p in parts]
    rams = [p.cover.total_ramification() for p in parts]
    checks.append(
        CheckResult(
            "component-genus",
            genera == [expected_genus, expected_genus],
            f"component genera {genera}, expected {expected_genus}",
        )
    )
    checks.append(
        CheckResult(
            "component-total-ramification",
            rams == [expected_ram, expected_ram],
            f"{rams} vs {expected_ram}",
        )
    )
    checks.append(
        CheckResult(
            "components-swapped-by-involution",
            sorted(result.involution(s) for s in parts[0].sheets) == list(parts[1].sheets),
        )
    )
    try:
        iso = next(iter_isomorphisms(parts[0].cover, parts[1].cover), None)
        checks.append(CheckResult("components-isomorphic", iso is not None))
    except ValueError as err:
        checks.append(CheckResult("components-isomorphic", False, str(err)))
    return checks

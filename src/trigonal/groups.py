"""The block group and the S4 side, with their images as table rows.

A tower's monodromy lies in W(B3), the 48 permutations of the six
sheets that carry the three blocks of a ``BlockSystem`` onto blocks.
Each cover derived from a tower is its image under a fixed
homomorphism out of that group:

  BLOCK        the action on the three blocks (the trigonal curve), to S3
  SECTIONS     the action on the eight transversals (the sections curve), to S8
  QUOTIENT     that action on the involution classes {t, 9 - t}, to S4
  ORIENTATION  that action on the two parity classes, to S2

On the inverse side S4 acts on the six sheet pairs, to S6, and through
them on the three pair partitions, to S3.  A fibre of a tetragonal
(degree-4) cover has a type fixed by the cycle type of its entry:

  1. unbranched            - never stored, identity entries are dropped
  2. one transposition     - simple ramification downstairs and upstairs
  3. one 3-cycle           - one point of multiplicity three on each level
  4. two transpositions    - two fixed partitions each carry a 2-cycle
                             of pairs: a node plus a smooth point
  5. one 4-cycle           - a transposed partition pair under a 4-cycle
                             of pairs, and a fixed partition under a
                             2-cycle: a node with one ramified branch

Transversals are indexed
lexicographically: blocks in order of their smallest sheet, each block
ascending, transversal ``t`` choosing the larger sheet where the bit
triple of ``t - 1`` is set.  So complementing every choice sends ``t``
to ``9 - t``, and parity counts larger sheets chosen.  Pairs are
indexed lexicographically and partitions by the pair holding sheet 1, so
the partitions are the blocks (1,6), (2,5), (3,4) of pair indices.

The involution t -> 9 - t, the sheet maps onto the involution and
parity classes, and the pair complement are constants beside the
classes that are their orbits or fibres.

A row holds one group element's images, ``None`` standing for an
identity image, then facts about the element that are no images and
sit outside ``Rows.degrees``, so ``derive`` and the homomorphism tests
never read them.  A block row holds the element's flip pattern and its
``(sections, quotient)`` cycle counts, fixed sheets included (the
involution acts freely over a label exactly when the first is twice
the second); an S4 row holds the element's fibre type.  So a
per-instance check reads each fact once per entry instead of
recounting cycles.  Rows are keyed by the element's image tuple, in
one table per block system (so documents with any blocks work) and one
for S4.  A row is built on a miss through ``induced_action``, so each
image is validated when first built; a build that raises stores
nothing, so a table holds at most its group's order of rows.

A ``GroupTable`` holds a whole group as indices: its elements in a
fixed order, the index of each image tuple, and the product and
inverse of indices.  ``symmetric_table`` gives S3 and S4,
``block_table`` the block group of a ``BlockSystem``; the samplers
draw and multiply indices through them, not ``Permutation`` objects.
Each table is built on first use, its elements validated once through
``Permutation`` and its products by plain tuple arithmetic, so a table
adds nothing to the kernel's memos.  Neither a table nor a row is
built at import.

``derive`` emits a cover's derived covers in one pass over its entries,
through ``BranchedCover._derived``, which skips the cover checks: for a
homomorphism phi, phi(s1)...phi(sn) = phi(s1...sn) = phi(1) = 1, and
identity images are dropped by construction.  That every column is a
homomorphism is checked once over the whole group by the exhaustive
tests (all 48^2 products per block system and column, all 24^2 for
S4), not per cover.
"""
from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .covers import BranchedCover
from .permutation import Permutation, induced_action


@dataclass(frozen=True)
class BlockSystem:
    """Three disjoint pairs partitioning the six sheets, ordered by their
    smallest sheet; each pair is stored ascending."""

    blocks: tuple[tuple[int, int], tuple[int, int], tuple[int, int]]

    def __post_init__(self) -> None:
        flat = [s for b in self.blocks for s in b]
        if sorted(flat) != list(range(1, 7)):
            raise ValueError(f"blocks must partition 1..6 into three pairs: {self.blocks!r}")
        canonical = tuple(sorted((tuple(sorted(b)) for b in self.blocks), key=min))
        object.__setattr__(self, "blocks", canonical)

    @classmethod
    def from_pairs(cls, pairs: Iterable[Sequence[int]]) -> "BlockSystem":
        pairs = tuple(tuple(p) for p in pairs)
        if len(pairs) != 3 or any(len(p) != 2 for p in pairs):
            raise ValueError(f"expected three pairs, got {pairs!r}")
        return cls(pairs)  # type: ignore[arg-type]

    def __iter__(self):
        return iter(self.blocks)

    def __getitem__(self, i: int) -> tuple[int, int]:
        return self.blocks[i]


SECTION_COUNT = 8
# involution classes {t, 9 - t}, numbered by their smaller member
QUOTIENT_CLASSES = tuple((t, 9 - t) for t in range(1, 5))
# parity classes: an even, then an odd number of larger sheets chosen
PARITY_CLASSES = tuple(
    tuple(t for t in range(1, SECTION_COUNT + 1) if bin(t - 1).count("1") % 2 == p) for p in (0, 1)
)
INVOLUTION = Permutation.from_cycles(SECTION_COUNT, QUOTIENT_CLASSES)
# the sheet maps to the quotient and orientation covers: each transversal's class
TO_QUOTIENT, TO_ORIENTATION = (
    tuple(c for t in range(1, SECTION_COUNT + 1) for c, cls in enumerate(classes, start=1) if t in cls)
    for classes in (QUOTIENT_CLASSES, PARITY_CLASSES)
)
PAIRS: tuple[tuple[int, int], ...] = tuple(itertools.combinations(range(1, 5), 2))
PARTITION_BLOCKS = BlockSystem.from_pairs([(1, 6), (2, 5), (3, 4)])
COMPLEMENT = Permutation.from_cycles(len(PAIRS), PARTITION_BLOCKS)


def transversal_sheets(blocks: BlockSystem) -> tuple[tuple[int, int, int], ...]:
    """The sheet triples of the eight transversals, in index order."""
    return tuple(itertools.product(*blocks))  # type: ignore[arg-type]


def block_action(perm: Permutation, blocks: BlockSystem) -> Permutation:
    """The induced permutation of the three blocks.

    Raises if ``perm`` does not map blocks to blocks.
    """
    if perm.degree != 6:
        raise ValueError("block action is defined for degree-6 permutations")
    return induced_action(perm, blocks.blocks)


def sections_action(perm: Permutation, blocks: BlockSystem) -> Permutation:
    """The induced permutation of the eight transversals."""
    if perm.degree != 6:
        raise ValueError("sections are defined for degree-6 permutations")
    return induced_action(perm, transversal_sheets(blocks))


def quotient_action(sections: Permutation) -> Permutation:
    """Induced permutation of the four involution classes; raises unless
    ``sections`` commutes with the involution."""
    return induced_action(sections, QUOTIENT_CLASSES)


def orientation_action(sections: Permutation) -> Permutation:
    """Induced permutation of the two parity classes."""
    return induced_action(sections, PARITY_CLASSES)


def pairs_action(perm: Permutation) -> Permutation:
    """Induced permutation of the six unordered sheet pairs."""
    if perm.degree != 4:
        raise ValueError("pairs are formed from degree-4 permutations")
    return induced_action(perm, PAIRS)


def partition_action(perm: Permutation) -> Permutation:
    """Induced permutation of the three pair partitions."""
    return block_action(pairs_action(perm), PARTITION_BLOCKS)


class GroupTable:
    """A small permutation group as tables over element indices.

    ``elements`` lists the group in a fixed order, ``index`` maps an
    image tuple to its element's index, ``mul[a][b]`` is the index of
    ``compose(elements[a], elements[b])`` (``a`` applied first),
    ``inv[a]`` that of the inverse and ``identity`` that of the identity.
    """

    def __init__(self, images: Iterable[tuple[int, ...]]):
        self.elements = tuple(map(Permutation, images))
        rows = [p.images for p in self.elements]
        self.index = {row: i for i, row in enumerate(rows)}
        lookup = self.index.__getitem__
        self.mul = tuple(
            tuple(map(lookup, map(operator.itemgetter(*[x - 1 for x in a]), rows))) for a in rows
        )
        self.identity = lookup(tuple(range(1, len(rows[0]) + 1)))
        self.inv = tuple(products.index(self.identity) for products in self.mul)

    def indices(self, perms: Iterable[Permutation]) -> tuple[int, ...]:
        return tuple(self.index[p.images] for p in perms)


_TABLES: dict[int | BlockSystem, GroupTable] = {}


def symmetric_table(degree: int) -> GroupTable:
    """The table of the symmetric group of ``degree``, elements in
    lexicographic order of their image tuples; built on first use."""
    table = _TABLES.get(degree)
    if table is None:
        table = _TABLES[degree] = GroupTable(itertools.permutations(range(1, degree + 1)))
    return table


def block_table(blocks: BlockSystem) -> GroupTable:
    """The table of the block group of ``blocks``; built on first use.

    Element ``8 * a + v`` carries block ``j`` onto block ``p(j)``, where
    ``p`` is element ``a`` of S3's table, sending the smaller sheet of
    block ``j`` to the larger one of block ``p(j)`` exactly when bit
    ``3 - j`` of ``v`` is set (block 1 is the high bit).
    """
    table = _TABLES.get(blocks)
    if table is None:
        elements = []
        for action in itertools.permutations(range(3)):
            for v in range(8):
                images = [0] * 6
                for j, target in enumerate(action):
                    flip = (v >> (2 - j)) & 1
                    for pos in range(2):
                        images[blocks[j][pos] - 1] = blocks[target][pos ^ flip]
                elements.append(tuple(images))
        table = _TABLES[blocks] = GroupTable(elements)
    return table


FIBER_SIMPLE = 2
FIBER_TRIPLE = 3
FIBER_DOUBLE_DOUBLE = 4
FIBER_QUADRUPLE = 5

_TYPE_BY_CYCLES = {
    (1, 1, 1, 1): 1,
    (2, 1, 1): FIBER_SIMPLE,
    (3, 1): FIBER_TRIPLE,
    (2, 2): FIBER_DOUBLE_DOUBLE,
    (4,): FIBER_QUADRUPLE,
}


class Rows(dict):
    """Image tuple of a group element -> its row, built by ``build`` on a
    miss; ``degrees`` are the target degrees of the leading columns."""

    def __init__(self, degrees: tuple[int, ...], build: Callable[[Permutation], tuple]):
        super().__init__()
        self.degrees = degrees
        self._build = build

    def __missing__(self, images: tuple[int, ...]) -> tuple:
        built = self._build(Permutation(images))
        n = len(self.degrees)
        row = tuple(None if p.is_identity() else p for p in built[:n]) + built[n:]
        self[images] = row
        return row


BLOCK, SECTIONS, QUOTIENT, ORIENTATION, FLIPS, CYCLE_COUNTS = range(6)
_BLOCK_DEGREES = (3, SECTION_COUNT, 4, 2)
_BLOCK_ROWS: dict[BlockSystem, Rows] = {}


def block_rows(blocks: BlockSystem) -> Rows:
    """The rows of the block group of ``blocks``: block, sections,
    quotient and orientation images, then the flip pattern and the
    sections and quotient cycle counts."""
    rows = _BLOCK_ROWS.get(blocks)
    if rows is None:
        rows = _BLOCK_ROWS.setdefault(
            blocks, Rows(_BLOCK_DEGREES, lambda perm: _block_row(perm, blocks))
        )
    return rows


def _block_row(perm: Permutation, blocks: BlockSystem) -> tuple:
    # the block image first: an entry tearing the blocks is then reported
    # by the first block it does not carry onto one, which is the error
    # ``validate_tower`` lists for it
    block = block_action(perm, blocks)
    sections = sections_action(perm, blocks)
    flips = []
    for block_cycle in block.cycles(include_fixed=True):
        upstairs = perm.cycle_through(min(s for bi in block_cycle for s in blocks[bi - 1]))
        if len(upstairs) != len(block_cycle):
            flips.append((block_cycle, upstairs))
    quotient = quotient_action(sections)
    counts = (len(sections.cycles(include_fixed=True)), len(quotient.cycles(include_fixed=True)))
    return block, sections, quotient, orientation_action(sections), tuple(flips), counts


def _s4_row(perm: Permutation) -> tuple:
    pairs = pairs_action(perm)
    return pairs, block_action(pairs, PARTITION_BLOCKS), _TYPE_BY_CYCLES[perm.cycle_type()]


# the rows of S4: pairs and partition images, then the fibre type
S4_ROWS = Rows((6, 3), _s4_row)
FIBER_TYPE = 2


def classify_fiber(perm: Permutation) -> int:
    """Fibre type 1-5 of a degree-4 monodromy entry by cycle type, read
    from its S4 row."""
    if perm.degree != 4:
        raise ValueError("fibre types are defined for degree-4 permutations")
    return S4_ROWS[perm.images][FIBER_TYPE]


def derive(
    cover: BranchedCover, rows: Rows, columns: Sequence[int] | None = None
) -> tuple[BranchedCover, ...]:
    """The covers with entries the ``columns`` of each entry's row (all
    columns by default), in one pass over ``cover``'s entries.

    Raises ``ValueError`` naming the first label whose row cannot be
    built, that is, whose entry is not in the group.
    """
    picked = [(c, [], []) for c in (range(len(rows.degrees)) if columns is None else columns)]
    for label, perm in zip(cover.labels, cover.monodromy):
        try:
            row = rows[perm.images]
        except ValueError as err:
            raise ValueError(f"monodromy at {label!r}: {err}") from None
        for column, labels, images in picked:
            image = row[column]
            if image is not None:
                labels.append(label)
                images.append(image)
    return tuple(
        BranchedCover._derived(rows.degrees[c], tuple(labels), tuple(images))
        for c, labels, images in picked
    )

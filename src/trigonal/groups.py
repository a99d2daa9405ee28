"""The block group and the S4 side, with their images as table columns.

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

A ``GroupTable`` holds a group over indices, with one column per fact
about its elements; a caller looks each entry's index up once, then
reads columns.  S4 has its pairs and partition images and fibre types;
a block group its four images, its ``(sections, quotient)`` cycle
counts (the involution acts freely over a label exactly when the first
is twice the second) and its flip pattern.  Products and every column
but the flips are built once, over ``CANONICAL_BLOCKS``, and shared by
every block system's table.  Tables are built on first use, never at
import, by ``lru_cache`` builders like the kernel memos, so a table is
stored once complete; they add nothing to the kernel's composition memos.

``derive`` emits a cover's derived covers in one pass over its entries,
through ``BranchedCover._derived``, which skips the cover checks: for a
homomorphism phi, phi(s1)...phi(sn) = phi(s1...sn) = phi(1) = 1, and
identity images are dropped by construction.
"""
from __future__ import annotations

import copy
import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .covers import BranchedCover
from .permutation import MEMO_SIZE, Permutation, induced_action


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
# the blocks of the samplers, over which the block group's columns are built
CANONICAL_BLOCKS = BlockSystem.from_pairs([(1, 2), (3, 4), (5, 6)])


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
    ``inv[a]`` that of the inverse, ``identity`` that of the identity and
    ``generators`` those of the generators given.  ``columns`` hold
    facts about each element by index; the first ``len(degrees)`` of
    them are homomorphism images into the symmetric groups of
    ``degrees``, ``None`` for an identity image.
    """

    columns: tuple[tuple, ...] = ()
    degrees: tuple[int, ...] = ()

    def __init__(self, images: Iterable[tuple[int, ...]], generators: Iterable[tuple[int, ...]]):
        self.elements = tuple(map(Permutation, images))
        rows = [p.images for p in self.elements]
        self.index = {row: i for i, row in enumerate(rows)}
        lookup = self.index.__getitem__
        self.mul = tuple(
            tuple(map(lookup, map(operator.itemgetter(*[x - 1 for x in a]), rows))) for a in rows
        )
        self.identity = lookup(tuple(range(1, len(rows[0]) + 1)))
        self.generators = [lookup(g) for g in generators]
        self.inv = tuple(products.index(self.identity) for products in self.mul)

    def indices(self, perms: Iterable[Permutation]) -> list[int]:
        return [self.index[p.images] for p in perms]

    def homomorphism(
        self, action: Callable[[Permutation], Permutation]
    ) -> tuple[Permutation | None, ...]:
        """The column of the homomorphism agreeing with ``action`` on the
        generators: a breadth-first walk from the identity sets the image
        of ``mul[x][g]`` to that of ``x`` followed by that of ``g``, and
        raises ``ValueError`` if a revisit disagrees."""
        images = [action(self.elements[g]) for g in self.generators]
        identity = tuple(range(1, images[0].degree + 1))
        # each generator's image as a lookup of 1-based sheets
        lookups = [((0,) + image.images).__getitem__ for image in images]
        column = {self.identity: identity}
        queue = [self.identity]
        for x in queue:
            for g, lookup in zip(self.generators, lookups):
                y, value = self.mul[x][g], tuple(map(lookup, column[x]))
                if y not in column:
                    column[y] = value
                    queue.append(y)
                elif column[y] != value:
                    raise ValueError(f"the generator images {images} define no homomorphism")
        # one ``Permutation`` per distinct image, none for the identity
        perms = {value: Permutation(value) for value in set(column.values()) - {identity}}
        return tuple(perms.get(column[x]) for x in range(len(column)))


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

# the columns of S4: pairs and partition images, then the fibre type
PAIR_IMAGE, PARTITION_IMAGE, FIBER_TYPE = range(3)


@functools.lru_cache(maxsize=MEMO_SIZE)
def symmetric_table(degree: int) -> GroupTable:
    """The table of the symmetric group of ``degree``, elements in
    lexicographic order of their image tuples; built on first use.  S4's
    table carries its columns."""
    sheets = range(1, degree + 1)
    # generated by (1 2) and (1 2 ... degree)
    generators = ((2, 1, *sheets[2:]), (*sheets[1:], 1))
    table = GroupTable(itertools.permutations(sheets), generators)
    if degree == 4:
        table.columns = (
            table.homomorphism(pairs_action),
            table.homomorphism(partition_action),
            tuple(_TYPE_BY_CYCLES[p.cycle_type()] for p in table.elements),
        )
        table.degrees = (len(PAIRS), 3)
    return table


# the columns of a block group: its four images, the cycle counts of the
# sections and quotient images, then the flip pattern
BLOCK, SECTIONS, QUOTIENT, ORIENTATION, CYCLE_COUNTS, FLIPS = range(6)


@functools.lru_cache(maxsize=MEMO_SIZE)
def block_table(blocks: BlockSystem) -> GroupTable:
    """The table of the block group of ``blocks``; built on first use.

    Element ``8 * a + v`` carries block ``j`` onto block ``p(j)``, where
    ``p`` is element ``a`` of S3's table, sending the smaller sheet of
    block ``j`` to the larger one of block ``p(j)`` exactly when bit
    ``3 - j`` of ``v`` is set (block 1 is the high bit).  Over
    ``CANONICAL_BLOCKS`` it is generated by the block transposition
    (1 3)(2 4), the block 3-cycle (1 3 5)(2 4 6) and the flip (1 2);
    every other table is the canonical one relabelled.
    """
    if blocks == CANONICAL_BLOCKS:
        # sheet s + 1 lies in block s // 2 at position s % 2, and goes
        # to the other position in its image block if that block's bit
        # of v is set
        table = GroupTable(
            (
                tuple(2 * a[s // 2] + (s % 2 ^ (v >> (2 - s // 2)) & 1) + 1 for s in range(6))
                for a in itertools.permutations(range(3))
                for v in range(8)
            ),
            ((3, 4, 1, 2, 5, 6), (3, 4, 5, 6, 1, 2), (2, 1, 3, 4, 5, 6)),
        )
        sections = functools.partial(sections_action, blocks=CANONICAL_BLOCKS)
        columns = (
            table.homomorphism(functools.partial(block_action, blocks=CANONICAL_BLOCKS)),
            table.homomorphism(sections),
            table.homomorphism(lambda p: quotient_action(sections(p))),
            table.homomorphism(lambda p: orientation_action(sections(p))),
        )
        counts = tuple(
            (_cycle_count(s, SECTION_COUNT), _cycle_count(q, 4))
            for s, q in zip(columns[SECTIONS], columns[QUOTIENT])
        )
        table.columns, table.degrees = columns + (counts,), (3, SECTION_COUNT, 4, 2)
    else:
        # conjugate by the sheet relabelling carrying CANONICAL_BLOCKS
        # onto ``blocks``: own elements and index, shared products
        sheets = dict(zip(itertools.chain(*CANONICAL_BLOCKS), itertools.chain(*blocks)))
        order = sorted(sheets, key=sheets.get)
        table = copy.copy(block_table(CANONICAL_BLOCKS))
        table.elements = tuple(
            Permutation(tuple(sheets[p(s)] for s in order)) for p in table.elements
        )
        table.index = {p.images: i for i, p in enumerate(table.elements)}
    table.columns = table.columns[:FLIPS] + (_flips(table, blocks),)
    return table


def _cycle_count(perm: Permutation | None, degree: int) -> int:
    return degree if perm is None else len(perm.cycles(include_fixed=True))


def _flips(table: GroupTable, blocks: BlockSystem) -> tuple:
    """Each element's flip pattern: ``(block cycle, upstairs cycle)`` for
    every block cycle whose cycle through its smallest sheet is twice as
    long (the only other length it can have is the block cycle's own)."""
    column = []
    for perm, action in zip(table.elements, table.columns[BLOCK]):
        flips = []
        for block_cycle in (action or Permutation.identity(3)).cycles(include_fixed=True):
            upstairs = perm.cycle_through(min(s for bi in block_cycle for s in blocks[bi - 1]))
            if len(upstairs) == 2 * len(block_cycle):
                flips.append((block_cycle, upstairs))
            elif len(upstairs) != len(block_cycle):
                raise ValueError(f"impossible block pattern: {upstairs!r} over {block_cycle!r}")
        column.append(tuple(flips))
    return tuple(column)


def classify_fiber(perm: Permutation) -> int:
    """Fibre type 1-5 of a degree-4 monodromy entry by cycle type, read
    from S4's fibre-type column."""
    if perm.degree != 4:
        raise ValueError("fibre types are defined for degree-4 permutations")
    table = symmetric_table(4)
    return table.columns[FIBER_TYPE][table.index[perm.images]]


def derive(
    cover: BranchedCover, table: GroupTable, columns: Sequence[int]
) -> tuple[BranchedCover, ...]:
    """The covers with entries the image ``columns`` of ``table`` at each
    entry's index, in one pass over ``cover``'s entries; ``KeyError`` if
    an entry is not in the group."""
    picked = [(table.degrees[c], table.columns[c], [], []) for c in columns]
    for label, perm in zip(cover.labels, cover.monodromy):
        x = table.index[perm.images]
        for _, column, labels, images in picked:
            image = column[x]
            if image is not None:
                labels.append(label)
                images.append(image)
    return tuple(
        BranchedCover._derived(degree, tuple(labels), tuple(images))
        for degree, _, labels, images in picked
    )

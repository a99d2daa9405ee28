"""Towers: a degree-6 cover fibred in three 2-element blocks.

The blocks are the fibres of an intermediate double cover, so a tower
packages a curve, the trigonal curve underneath it obtained by the
action on blocks, and the double cover between them.  Branch labels
where the block action is trivial but sheets swap inside a block are
the "flip" labels; the double cover is ramified exactly at the flipped
blocks.  A tower is Etale (no flips), General (two flips over distinct
labels) or Special (one label flipping two of its three blocks).
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .covers import BranchedCover, CoverPoint, genus, induced_cover
from .permutation import MEMO_SIZE, Permutation, induced_action

ETALE = "etale"
GENERAL = "general"
SPECIAL = "special"
MODES = (ETALE, GENERAL, SPECIAL)

MIN_GENUS = 3


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

    def block_index(self, sheet: int) -> int:
        """1-based index of the block containing ``sheet``."""
        for i, block in enumerate(self.blocks):
            if sheet in block:
                return i + 1
        raise ValueError(f"sheet {sheet} outside 1..6")

    def partner(self, sheet: int) -> int:
        block = self.blocks[self.block_index(sheet) - 1]
        return block[1] if sheet == block[0] else block[0]


def block_action(perm: Permutation, blocks: BlockSystem) -> Permutation:
    """The induced permutation of the three blocks.

    Raises if ``perm`` does not map blocks to blocks.
    """
    if perm.degree != 6:
        raise ValueError("block action is defined for degree-6 permutations")
    return induced_action(perm, blocks.blocks)


def flip_points(cover: BranchedCover, blocks: BlockSystem) -> tuple[CoverPoint, ...]:
    """Ramification points of the in-block double cover, as points of the
    block-action curve.

    Over a length-l cycle of the block action the 2l sheets above it
    form either a single 2l-cycle (the double cover is ramified there)
    or two l-cycles (it is not); no other pattern can occur for a
    block-preserving permutation, and any other is rejected.
    """
    out = []
    for label, perm in cover.entries():
        for block_cycle, upstairs in _flip_pattern(perm, blocks):
            if len(upstairs) != 2 * len(block_cycle):
                raise ValueError(
                    f"impossible block pattern at {label!r}: cycle {upstairs!r} over {block_cycle!r}"
                )
            out.append(CoverPoint(label, block_cycle))
    return tuple(out)


@functools.lru_cache(maxsize=MEMO_SIZE)
def _flip_pattern(
    perm: Permutation, blocks: BlockSystem
) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Each cycle of the block action whose sheets do not split into two
    cycles of its length, with the upstairs cycle through its smallest
    sheet, in block-cycle order.  Memoized on ``(perm, blocks)``: the
    block group has 48 elements."""
    out = []
    for block_cycle in block_action(perm, blocks).cycles(include_fixed=True):
        first = min(s for bi in block_cycle for s in blocks[bi - 1])
        upstairs = perm.cycle_through(first)
        if len(upstairs) != len(block_cycle):
            out.append((block_cycle, upstairs))
    return tuple(out)


@dataclass(frozen=True)
class Tower:
    cover: BranchedCover
    blocks: BlockSystem
    trigonal: BranchedCover
    genus: int
    flips: tuple[CoverPoint, ...]
    mode: str
    warnings: tuple[str, ...] = ()

    def flip_labels(self) -> tuple[str, ...]:
        seen: list[str] = []
        for p in self.flips:
            if p.label not in seen:
                seen.append(p.label)
        return tuple(seen)


class TowerValidationError(ValueError):
    """Carries the full list of violated tower invariants."""

    def __init__(self, errors: Sequence[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


def validate_tower(cover: BranchedCover, blocks: BlockSystem) -> Tower:
    """Check every tower invariant and assemble the Tower.

    All violations are collected and reported together.  A genus below
    three is accepted with a warning rather than rejected, so small
    exploratory examples stay constructible.
    """
    errors: list[str] = []
    warnings: list[str] = []

    if cover.degree != 6:
        raise TowerValidationError([f"tower cover must have degree 6, got {cover.degree}"])

    for label, perm in cover.entries():
        try:
            block_action(perm, blocks)
        except ValueError as err:
            errors.append(f"monodromy at {label!r} does not preserve the blocks: {err}")
    if errors:
        raise TowerValidationError(errors)

    trigonal = induced_cover(cover, blocks.blocks)
    if not cover.is_connected():
        errors.append("degree-6 cover is disconnected")
    if not trigonal.is_connected():
        errors.append("block action is intransitive: the trigonal curve is disconnected")
        raise TowerValidationError(errors)

    base_genus = genus(trigonal)
    if base_genus < MIN_GENUS:
        warnings.append(f"trigonal genus {base_genus} is below {MIN_GENUS}; kept for exploration")

    flips = flip_points(cover, blocks)
    trivial_action = set(cover.labels) - set(trigonal.labels)
    for p in flips:
        if p.label not in trivial_action:
            errors.append(
                f"double-cover ramification over {p.label!r} where the block action is non-trivial"
            )
    for label in sorted(trivial_action):
        weight = sum(1 for p in flips if p.label == label)
        if weight == 3:
            errors.append(f"all three blocks flip at {label!r}; at most two may")
    if len(flips) not in (0, 2):
        errors.append(f"expected 0 or 2 double-cover ramification points, found {len(flips)}")

    if errors:
        raise TowerValidationError(errors)

    flip_labels = {p.label for p in flips}
    if not flips:
        mode = ETALE
    elif len(flip_labels) == 2:
        mode = GENERAL
    else:
        mode = SPECIAL

    return Tower(
        cover=cover,
        blocks=blocks,
        trigonal=trigonal,
        genus=base_genus,
        flips=flips,
        mode=mode,
        warnings=tuple(warnings),
    )


def double_cover_genus(tower: Tower) -> int:
    """Genus of the degree-6 curve on top, checked against the double
    cover relation: 2g of the base plus one less when unramified."""
    value = genus(tower.cover)
    expected = 2 * tower.genus if tower.flips else 2 * tower.genus - 1
    if value != expected:
        raise AssertionError(
            f"double cover genus {value} does not match {expected} over genus {tower.genus}"
        )
    return value

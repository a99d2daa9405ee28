"""Towers: a degree-6 cover fibred in three 2-element blocks.

The blocks are the fibres of an intermediate double cover, so a tower
packages a curve, the trigonal curve underneath it obtained by the
action on blocks, and the double cover between them.  Branch labels
where the block action is trivial but sheets swap inside a block are
the "flip" labels; the double cover is ramified exactly at the flipped
blocks.  A tower is Etale (no flips), General (two flips over distinct
labels) or Special (one label flipping two of its three blocks).

``BlockSystem`` lives in ``groups``, with the block group's table;
the trigonal curve and the flip points are read from its columns at
each entry's index.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .covers import BranchedCover, CoverPoint, genus
from .groups import BLOCK, FLIPS, BlockSystem, block_action, block_table, derive

ETALE = "etale"
GENERAL = "general"
SPECIAL = "special"
MODES = (ETALE, GENERAL, SPECIAL)

MIN_GENUS = 3


def flip_points(cover: BranchedCover, blocks: BlockSystem) -> tuple[CoverPoint, ...]:
    """Ramification points of the in-block double cover, as points of the
    block-action curve.

    Over a length-l cycle of the block action the 2l sheets above it
    form either a single 2l-cycle (the double cover is ramified there)
    or two l-cycles (it is not); the flip-pattern column lists the first
    kind, and its build rejects any other.  Every entry must preserve
    the blocks, as ``validate_tower`` checks first.
    """
    table = block_table(blocks)
    flips = table.columns[FLIPS]
    return tuple(
        CoverPoint(label, block_cycle)
        for label, x in zip(cover.labels, table.indices(cover.monodromy))
        for block_cycle, _ in flips[x]
    )


def flip_weights(flips: Sequence[CoverPoint]) -> Counter[str]:
    """The number of blocks flipping at each label (0 where none does),
    flip labels in the order of ``flips``."""
    return Counter(p.label for p in flips)


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
        return tuple(flip_weights(self.flips))


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

    try:
        # an entry has an index exactly when it preserves the blocks
        (trigonal,) = derive(cover, block_table(blocks), (BLOCK,))
    except KeyError:
        for label, perm in cover.entries():
            try:
                block_action(perm, blocks)
            except ValueError as err:
                errors.append(f"monodromy at {label!r} does not preserve the blocks: {err}")
        raise TowerValidationError(errors) from None

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
    weights = flip_weights(flips)
    for label in sorted(trivial_action):
        if weights[label] == 3:
            errors.append(f"all three blocks flip at {label!r}; at most two may")
    if len(flips) not in (0, 2):
        errors.append(f"expected 0 or 2 double-cover ramification points, found {len(flips)}")

    if errors:
        raise TowerValidationError(errors)

    if not flips:
        mode = ETALE
    elif len(weights) == 2:
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

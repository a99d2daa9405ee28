"""Seeded rejection sampling of towers and tetragonal covers.

Randomness comes from SplitMix64, a tiny well-documented 64-bit mixer,
so identical seeds give identical draws on every platform and Python
version.  All sampling is rejection-shaped: draw a candidate from a
constrained family, run the full validator, retry on failure.  The
retry loop consumes the single seeded stream, so results stay
deterministic even though the number of attempts varies.

Tower drawing order, fixed for reproducibility:

  1. base monodromy on three sheets, one draw per label except the
     last, which is solved from the product-one relation and retried
     if its cycle type misses the requested mix;
  2. a lift vector per label (in-block pairing choices) restricted to
     the patterns that keep the in-block double cover unramified over
     branch labels of the base, the final lift again being solved;
  3. flip labels appended after the base labels: two single flips at
     fresh labels (general), one double flip (special), none (etale).

On the stream an attempt draws the base list, then the flips, then the
lift list, each draw one ``next_u64`` taken modulo its pool's length.
Draws are indices into the ``groups`` tables: S3 for a tower's base,
S4 for an m0 cover, the block group over ``CANONICAL_BLOCKS`` for flips
and lifts.  Each pool lists its elements in a fixed order:
transpositions and 3-cycles by their cycle written from its least
sheet, a block action's etale lifts (the lifts with an empty flip
pattern) by lift vector, the flips as ``_SINGLE_FLIPS`` and
``_DOUBLE_FLIPS``.  Each
list is drawn in one loop (``_draw``) that keeps the running product,
so the solved last entry is one table inverse.  Only a candidate that
passes the etale test becomes ``Permutation`` objects, the tables'
shared elements, and it is then checked in full by ``BranchedCover``
and ``validate_tower``.  Tables and pools are ``lru_cache`` builders,
built on first use, never at import.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

from .covers import BranchedCover
from .groups import CANONICAL_BLOCKS, FLIPS, GroupTable, block_table, symmetric_table
from .inverse import STRATUM_M0, TetragonalCover
from .permutation import MEMO_SIZE, Permutation, orbits
from .towers import GENERAL, MODES, SPECIAL, Tower, TowerValidationError, validate_tower

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

SAMPLE_M0 = "m0"
SAMPLE_KINDS = MODES + (SAMPLE_M0,)

# candidates a sampler draws before it gives up with ``RuntimeError``
MAX_RETRIES = 1000


class SplitMix64:
    """The SplitMix64 generator: 64-bit state, golden-ratio increment,
    two xor-multiply finalization rounds per output."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        if n <= 0:
            raise ValueError(f"need a positive bound, got {n}")
        return self.next_u64() % n

    def choice(self, seq: Sequence):
        return seq[self.below(len(seq))]


def derive_seed(master: int, index: int) -> int:
    """Stable per-instance sub-seed; independent of evaluation order."""
    return SplitMix64((master ^ ((index + 1) * _GOLDEN)) & _MASK64).next_u64()


@dataclass(frozen=True)
class SampleConfig:
    """What to sample: a tower in one of the three modes, or an ``m0``
    tetragonal cover.

    ``three_cycle_labels`` trades two units of the ramification budget
    per label away from transpositions; the default spends the whole
    budget on transpositions.
    """

    genus: int
    mode: str
    seed: int
    three_cycle_labels: int = 0

    def __post_init__(self) -> None:
        if self.mode not in SAMPLE_KINDS:
            raise ValueError(f"mode must be one of {SAMPLE_KINDS}, got {self.mode!r}")
        minimum = 2 if self.mode == SAMPLE_M0 else 3
        if self.genus < minimum:
            raise ValueError(f"genus {self.genus} below the minimum {minimum} for {self.mode!r}")
        if self.three_cycle_labels < 0:
            raise ValueError("three_cycle_labels must be non-negative")
        if self.transposition_labels < 0:
            raise ValueError(
                f"{self.three_cycle_labels} three-cycle labels overrun the "
                f"ramification budget {self.ramification_budget}"
            )

    @property
    def ramification_budget(self) -> int:
        return 2 * self.genus + (6 if self.mode == SAMPLE_M0 else 4)

    @property
    def transposition_labels(self) -> int:
        return self.ramification_budget - 2 * self.three_cycle_labels


# the flips of one block j at position j - 1, and of the two blocks
# other than block j at position j - 1
_SINGLE_FLIPS = tuple(Permutation.from_cycles(6, [block]) for block in CANONICAL_BLOCKS)
_DOUBLE_FLIPS = tuple(
    Permutation.from_cycles(6, [b for b in CANONICAL_BLOCKS if b != kept]) for kept in CANONICAL_BLOCKS
)

# index pools, built on first use: by degree, the symmetric group's table
# with the indices of its transpositions and 3-cycles; over
# ``CANONICAL_BLOCKS``, the block group's table with each block action's
# etale lifts and the indices of the single and double flips
@functools.lru_cache(maxsize=MEMO_SIZE)
def _symmetric_pools(degree: int) -> tuple[GroupTable, list[int], list[int]]:
    table = symmetric_table(degree)
    # the elements that are one cycle, in the order of that cycle
    # written from its least sheet
    cycles = sorted((p.cycles(), x) for x, p in enumerate(table.elements) if len(p.cycles()) == 1)
    return (
        table,
        [x for (cycle,), x in cycles if len(cycle) == 2],
        [x for (cycle,), x in cycles if len(cycle) == 3],
    )


@functools.lru_cache(maxsize=MEMO_SIZE)
def _lift_pools() -> tuple:
    table = block_table(CANONICAL_BLOCKS)
    flips = table.columns[FLIPS]
    return (
        table,
        # S3 element a's lifts are 8a..8a+7 in lift-vector order
        tuple(tuple(x for x in range(8 * a, 8 * a + 8) if not flips[x]) for a in range(6)),
        table.indices(_SINGLE_FLIPS),
        table.indices(_DOUBLE_FLIPS),
    )


def _draw(
    next_u64: Callable[[], int],
    pools: Sequence[Sequence[int]],
    mul: Sequence[Sequence[int]],
    acc: int,
) -> tuple[list[int], int]:
    """One index from each of ``pools`` in turn, ``pool[next_u64() %
    len(pool)]``, and the running product of ``acc`` with the draws."""
    drawn = []
    for pool in pools:
        x = pool[next_u64() % len(pool)]
        drawn.append(x)
        acc = mul[acc][x]
    return drawn, acc


def _draw_base(
    next_u64: Callable[[], int], pools: list[list[int]], table: GroupTable
) -> list[int] | None:
    """Base indices for every pool, the last solved from the product-one
    relation; ``None`` if it misses its pool or the cover is disconnected."""
    drawn, acc = _draw(next_u64, pools[:-1], table.mul, table.identity)
    last = table.inv[acc]
    if last not in pools[-1]:
        return None
    drawn.append(last)
    if len(orbits([table.elements[i] for i in set(drawn)])) != 1:
        return None
    return drawn


def _base_pools(cfg: SampleConfig, degree: int) -> tuple[GroupTable, list[list[int]]]:
    """S_degree's table and the index pool of each base label:
    transpositions, then 3-cycles."""
    table, transpositions, three_cycles = _symmetric_pools(degree)
    pools = [transpositions] * cfg.transposition_labels + [three_cycles] * cfg.three_cycle_labels
    return table, pools


@functools.lru_cache(maxsize=MEMO_SIZE)
def _labels(prefix: str, count: int) -> tuple[str, ...]:
    """The names of ``count`` base labels, numbered from 1 at one width."""
    width = max(2, len(str(count)))
    return tuple(f"{prefix}{i:0{width}d}" for i in range(1, count + 1))


def sample_tower(cfg: SampleConfig) -> Tower:
    """Draw a tower of the requested mode and genus.

    Deterministic for a fixed config; raises ``RuntimeError`` when the
    retry budget runs out.  Every returned tower has passed
    ``validate_tower``.
    """
    if cfg.mode == SAMPLE_M0:
        raise ValueError("m0 configs sample tetragonal covers; use sample_tetragonal")
    next_u64 = SplitMix64(cfg.seed).next_u64
    base_table, pools = _base_pools(cfg, 3)
    table, lifts_of, single, double = _lift_pools()
    flip_pools = {GENERAL: (single, single), SPECIAL: (double,)}.get(cfg.mode, ())
    labels = _labels("h", len(pools))

    for _ in range(MAX_RETRIES):
        base = _draw_base(next_u64, pools, base_table)
        if base is None:
            continue
        flips, after = _draw(next_u64, flip_pools, table.mul, table.identity)
        lifts, before = _draw(next_u64, [lifts_of[a] for a in base[:-1]], table.mul, table.identity)
        # the block action is a homomorphism and flips act trivially on
        # blocks, so the solved lift acts on blocks as base[-1]
        last = table.inv[table.mul[after][before]]
        if last not in lifts_of[base[-1]]:
            continue
        lifts.append(last)

        elements = table.elements
        entries = [(label, elements[x]) for label, x in zip(labels, lifts)]
        entries += [(f"f{i}", elements[x]) for i, x in enumerate(flips, start=1)]
        try:
            cover = BranchedCover.from_pairs(6, entries)
            tower = validate_tower(cover, CANONICAL_BLOCKS)
        except (ValueError, TowerValidationError):
            continue
        if tower.mode != cfg.mode or tower.genus != cfg.genus:
            continue
        return tower
    raise RuntimeError(
        f"retry budget {MAX_RETRIES} exhausted sampling a {cfg.mode} tower of genus {cfg.genus}"
    )


def sample_tetragonal(cfg: SampleConfig) -> TetragonalCover:
    """Draw a connected degree-4 cover in the smooth (``m0``) stratum."""
    if cfg.mode != SAMPLE_M0:
        raise ValueError(f"tetragonal sampling needs an {SAMPLE_M0!r} config, got {cfg.mode!r}")
    next_u64 = SplitMix64(cfg.seed).next_u64
    table, pools = _base_pools(cfg, 4)
    labels = _labels("b", len(pools))
    for _ in range(MAX_RETRIES):
        base = _draw_base(next_u64, pools, table)
        if base is None:
            continue
        cover = BranchedCover(4, labels, tuple(table.elements[x] for x in base))
        tetragonal = TetragonalCover(cover)
        if tetragonal.stratum != STRATUM_M0 or tetragonal.genus != cfg.genus:
            continue
        return tetragonal
    raise RuntimeError(
        f"retry budget {MAX_RETRIES} exhausted sampling an m0 cover of genus {cfg.genus}"
    )

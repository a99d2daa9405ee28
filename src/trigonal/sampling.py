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

On the stream an attempt draws the base list, then the flips from
module constants (one ``choice`` each), then the lift list.  Each list
is drawn in one loop over ``next_u64`` (``SplitMix64.choice_each``),
the same stream as one ``choice`` call per label.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

from .covers import BranchedCover
from .inverse import STRATUM_M0, TetragonalCover
from .permutation import MEMO_SIZE, Permutation, compose, orbits, product
from .towers import (
    GENERAL,
    MODES,
    SPECIAL,
    BlockSystem,
    Tower,
    TowerValidationError,
    validate_tower,
)

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

SAMPLE_M0 = "m0"
SAMPLE_KINDS = MODES + (SAMPLE_M0,)

CANONICAL_BLOCKS = BlockSystem.from_pairs([(1, 2), (3, 4), (5, 6)])
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

    def choice_each(self, pools: Sequence[Sequence]) -> list:
        """One ``choice`` from each of ``pools`` in turn, in one loop over
        ``next_u64``: the draws and the stream that successive ``choice``
        calls make."""
        next_u64 = self.next_u64
        return [pool[next_u64() % len(pool)] for pool in pools]


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


def _transpositions(degree: int) -> tuple[Permutation, ...]:
    out = []
    for a in range(1, degree + 1):
        for b in range(a + 1, degree + 1):
            out.append(Permutation.from_cycles(degree, [(a, b)]))
    return tuple(out)


def _three_cycles(degree: int) -> tuple[Permutation, ...]:
    out = []
    for a in range(1, degree + 1):
        for b in range(1, degree + 1):
            for c in range(1, degree + 1):
                if len({a, b, c}) == 3 and a == min(a, b, c):
                    out.append(Permutation.from_cycles(degree, [(a, b, c)]))
    return tuple(out)


_BASE_TRANSPOSITIONS = _transpositions(3)
_BASE_THREE_CYCLES = _three_cycles(3)
_TET_TRANSPOSITIONS = _transpositions(4)
_TET_THREE_CYCLES = _three_cycles(4)


def _solve_last(prefix: Sequence[Permutation], suffix: Sequence[Permutation], degree: int) -> Permutation:
    """The unique permutation making prefix + [x] + suffix multiply to
    the identity, leftmost factor applied first."""
    return compose(product(tuple(suffix), degree), product(tuple(prefix), degree)).inverse()


def _base_pools(cfg: SampleConfig, degree: int) -> list[tuple[Permutation, ...]]:
    """The entry pool of each base label: transpositions, then 3-cycles."""
    transpositions = _BASE_TRANSPOSITIONS if degree == 3 else _TET_TRANSPOSITIONS
    three_cycles = _BASE_THREE_CYCLES if degree == 3 else _TET_THREE_CYCLES
    return [transpositions] * cfg.transposition_labels + [three_cycles] * cfg.three_cycle_labels


def _draw_base(
    rng: SplitMix64, pools: list[tuple[Permutation, ...]], degree: int
) -> list[Permutation] | None:
    drawn = rng.choice_each(pools[:-1])
    last = _solve_last(drawn, (), degree)
    if last not in pools[-1]:
        return None
    drawn.append(last)
    if len(orbits(drawn, degree)) != 1:
        return None
    return drawn


@functools.lru_cache(maxsize=MEMO_SIZE)
def _etale_lifts(action: Permutation) -> tuple[Permutation, ...]:
    """The lifts of a block action on ``CANONICAL_BLOCKS`` that keep the
    in-block double cover unramified over every point of the base fibre,
    ordered by lift vector ``v`` (``v[j]`` set: block ``j + 1``'s smaller
    sheet goes to the larger one of its image): those whose ``v`` sums to
    an even number around every block cycle, so is zero on fixed blocks."""
    lifts = []
    cycles = action.cycles(include_fixed=True)
    for bits in range(8):
        v = ((bits >> 2) & 1, (bits >> 1) & 1, bits & 1)
        if any(sum(v[b - 1] for b in cycle) % 2 for cycle in cycles):
            continue
        images = [0] * 6
        for j in range(3):
            for pos in range(2):
                images[CANONICAL_BLOCKS[j][pos] - 1] = CANONICAL_BLOCKS[action(j + 1) - 1][pos ^ v[j]]
        lifts.append(Permutation(tuple(images)))
    return tuple(lifts)


# the flips of one block j at position j - 1, and of the two blocks
# other than block j at position j - 1
_SINGLE_FLIPS = tuple(Permutation.from_cycles(6, [block]) for block in CANONICAL_BLOCKS)
_DOUBLE_FLIPS = tuple(
    Permutation.from_cycles(6, [b for b in CANONICAL_BLOCKS if b != kept]) for kept in CANONICAL_BLOCKS
)


def _labels(prefix: str, cfg: SampleConfig) -> tuple[str, ...]:
    """The names of the base labels, numbered from 1 at one width."""
    count = cfg.transposition_labels + cfg.three_cycle_labels
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
    rng = SplitMix64(cfg.seed)
    pools = _base_pools(cfg, 3)
    labels = _labels("h", cfg)

    for _ in range(MAX_RETRIES):
        base = _draw_base(rng, pools, 3)
        if base is None:
            continue

        if cfg.mode == GENERAL:
            flips = [rng.choice(_SINGLE_FLIPS), rng.choice(_SINGLE_FLIPS)]
        elif cfg.mode == SPECIAL:
            flips = [rng.choice(_DOUBLE_FLIPS)]
        else:
            flips = []

        lifts = rng.choice_each([_etale_lifts(action) for action in base[:-1]])
        # the block action is a homomorphism and flips act trivially on
        # blocks, so the solved lift acts on blocks as base[-1]
        last = _solve_last(lifts, flips, 6)
        if last not in _etale_lifts(base[-1]):
            continue
        lifts.append(last)

        entries = list(zip(labels, lifts))
        entries += [(f"f{i}", p) for i, p in enumerate(flips, start=1)]
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
    rng = SplitMix64(cfg.seed)
    pools = _base_pools(cfg, 4)
    labels = _labels("b", cfg)
    for _ in range(MAX_RETRIES):
        base = _draw_base(rng, pools, 4)
        if base is None:
            continue
        cover = BranchedCover(4, labels, tuple(base))
        tetragonal = TetragonalCover(cover)
        if tetragonal.stratum != STRATUM_M0 or tetragonal.genus != cfg.genus:
            continue
        return tetragonal
    raise RuntimeError(
        f"retry budget {MAX_RETRIES} exhausted sampling an m0 cover of genus {cfg.genus}"
    )

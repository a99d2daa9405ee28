"""Seeded rejection sampler: determinism, admissibility, budgets."""
import hashlib
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trigonal import (
    Permutation,
    SampleConfig,
    SplitMix64,
    derive_seed,
    genus,
    sample_tetragonal,
    sample_tower,
)
from trigonal import block_action, product, sampling
from trigonal.groups import block_table, symmetric_table
from trigonal.jsonio import cover_to_dict, dumps_canonical, tower_to_dict
from trigonal.sampling import CANONICAL_BLOCKS


def test_splitmix_reference_sequence():
    # published reference outputs for seed 0
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_splitmix_below_and_choice():
    rng = SplitMix64(123)
    draws = [rng.below(10) for _ in range(100)]
    assert all(0 <= d < 10 for d in draws)
    assert len(set(draws)) > 1
    rng2 = SplitMix64(123)
    assert [rng2.below(10) for _ in range(100)] == draws
    assert SplitMix64(5).choice(["only"]) == "only"
    with pytest.raises(ValueError):
        SplitMix64(5).below(0)


@pytest.mark.parametrize("seed", [0, 1, 101, 2**64 - 1])
def test_draw_loop_draws_what_successive_choice_calls_draw(seed):
    table = symmetric_table(4)
    pools = [tuple(range(n)) for n in (1, 2, 3, 4, 6, 8, 24)] * 4
    one_loop, successive = SplitMix64(seed), SplitMix64(seed)
    start = table.index[(2, 1, 4, 3)]
    drawn, acc = sampling._draw(one_loop.next_u64, pools, table.mul, start)
    assert drawn == [successive.choice(pool) for pool in pools]
    # the running product is the ordered product after ``start``
    elements = [table.elements[start]] + [table.elements[x] for x in drawn]
    assert table.elements[acc] == product(elements)
    assert sampling._draw(one_loop.next_u64, [], table.mul, start) == ([], start)
    # both streams stand at the same place afterwards
    assert one_loop.next_u64() == successive.next_u64()


@pytest.mark.parametrize("degree", [3, 4])
def test_base_index_pools_list_the_transpositions_and_three_cycles_in_order(degree):
    table, transpositions, three_cycles = sampling._symmetric_pools(degree)
    assert table is symmetric_table(degree)
    # (a b) for a < b, and (a b c) for a < b, c, each in lexicographic order
    pairs = itertools.combinations(range(1, degree + 1), 2)
    triples = [c for c in itertools.permutations(range(1, degree + 1), 3) if c[0] == min(c)]
    assert [table.elements[x] for x in transpositions] == [Permutation.from_cycles(degree, [c]) for c in pairs]
    assert [table.elements[x] for x in three_cycles] == [Permutation.from_cycles(degree, [c]) for c in triples]


def test_lift_pools_list_the_etale_lifts_and_flips_in_order():
    table, lifts_of, single, double = sampling._lift_pools()
    assert table is block_table(CANONICAL_BLOCKS)
    assert [table.elements[x] for x in single] == list(sampling._SINGLE_FLIPS)
    assert [table.elements[x] for x in double] == list(sampling._DOUBLE_FLIPS)

    def etale(lift):
        # over every block cycle, the sheets cycle in two cycles as long
        return all(
            len(lift.cycle_through(CANONICAL_BLOCKS[cycle[0] - 1][0])) == len(cycle)
            for cycle in block_action(lift, CANONICAL_BLOCKS).cycles(include_fixed=True)
        )

    def lift_vector(lift):
        # bit j: block j + 1's smaller sheet goes to the larger one of its image
        return tuple(int(lift(a) == max(lift(a), lift(b))) for a, b in CANONICAL_BLOCKS)

    for action, lifts in zip(symmetric_table(3).elements, lifts_of):
        # the lifts of ``action`` keeping the in-block double cover
        # unramified, ordered by lift vector
        lifting = [p for p in table.elements if block_action(p, CANONICAL_BLOCKS) == action]
        expected = sorted(filter(etale, lifting), key=lift_vector)
        assert [table.elements[x] for x in lifts] == expected
    assert sorted(map(len, lifts_of)) == [1, 2, 2, 2, 4, 4]


def test_derive_seed_is_stable_and_spread():
    seeds = [derive_seed(7, i) for i in range(50)]
    assert seeds == [derive_seed(7, i) for i in range(50)]
    assert len(set(seeds)) == 50
    assert derive_seed(7, 0) != derive_seed(8, 0)


def test_config_validation():
    with pytest.raises(ValueError):
        SampleConfig(genus=2, mode="general", seed=0)
    with pytest.raises(ValueError):
        SampleConfig(genus=1, mode="m0", seed=0)
    with pytest.raises(ValueError):
        SampleConfig(genus=3, mode="nonsense", seed=0)
    with pytest.raises(ValueError):
        SampleConfig(genus=3, mode="etale", seed=0, three_cycle_labels=99)
    # m0 allows genus 2, towers start at 3
    SampleConfig(genus=2, mode="m0", seed=0)
    SampleConfig(genus=3, mode="special", seed=0)


def test_sampling_is_deterministic():
    cfg = SampleConfig(genus=4, mode="general", seed=2024)
    assert sample_tower(cfg) == sample_tower(cfg)
    other = sample_tower(SampleConfig(genus=4, mode="general", seed=2025))
    assert other != sample_tower(cfg)


def test_sampled_towers_have_the_requested_shape():
    for mode, flips in (("etale", 0), ("general", 2), ("special", 1)):
        for g in (3, 5):
            tower = sample_tower(SampleConfig(genus=g, mode=mode, seed=g * 100))
            assert tower.mode == mode
            assert tower.genus == g
            assert len(tower.flip_labels()) == flips
            assert genus(tower.trigonal) == g
            assert tower.trigonal.total_ramification() == 2 * g + 4


def test_sampled_m0_covers():
    for g in (2, 4, 6):
        tet = sample_tetragonal(SampleConfig(genus=g, mode="m0", seed=g))
        assert tet.stratum == "m0"
        assert tet.genus == g
        assert tet.cover.total_ramification() == 2 * g + 6


def test_mode_to_sampler_pairing_is_enforced():
    with pytest.raises(ValueError):
        sample_tower(SampleConfig(genus=2, mode="m0", seed=0))
    with pytest.raises(ValueError):
        sample_tetragonal(SampleConfig(genus=3, mode="general", seed=0))


def test_retry_budget_exhaustion_raises(monkeypatch):
    tower_cfg = SampleConfig(genus=3, mode="general", seed=0)
    m0_cfg = SampleConfig(genus=2, mode="m0", seed=1)
    # both succeed within the default budget and need more than one candidate
    sample_tower(tower_cfg)
    sample_tetragonal(m0_cfg)
    monkeypatch.setattr(sampling, "MAX_RETRIES", 1)
    with pytest.raises(RuntimeError, match="retry budget 1 exhausted sampling a general tower"):
        sample_tower(tower_cfg)
    with pytest.raises(RuntimeError, match="retry budget 1 exhausted sampling an m0 cover"):
        sample_tetragonal(m0_cfg)


# sha256 of the canonical list of sampled towers (every mode) and m0
# covers at g 3..6 with one and two three-cycle labels, seeds derived
# from master seed 101.  No suite reaches this path; a change that moves
# the digest must say why in CHANGES.md.
PINNED_THREE_CYCLE_DIGEST = "c049c2d6e88ce48f83e108a7789a78621c4eec53ed0e9bf39217a4b4af506914"


def test_three_cycle_samples_are_pinned():
    docs = []
    for g in range(3, 7):
        for k in (1, 2):
            for mode in ("etale", "general", "m0", "special"):
                seed = derive_seed(101, len(docs))
                cfg = SampleConfig(genus=g, mode=mode, seed=seed, three_cycle_labels=k)
                if mode == "m0":
                    docs.append(cover_to_dict(sample_tetragonal(cfg).cover))
                else:
                    docs.append(tower_to_dict(sample_tower(cfg)))
    digest = hashlib.sha256(dumps_canonical(docs).encode()).hexdigest()
    assert digest == PINNED_THREE_CYCLE_DIGEST


def test_three_cycle_labels_opt_in():
    cfg = SampleConfig(genus=4, mode="etale", seed=31, three_cycle_labels=1)
    tower = sample_tower(cfg)
    profiles = [tower.trigonal.perm_at(lb).cycle_type() for lb in tower.trigonal.labels]
    assert profiles.count((3,)) == 1
    cfg = SampleConfig(genus=3, mode="m0", seed=8, three_cycle_labels=2)
    tet = sample_tetragonal(cfg)
    types = list(tet.fiber_types().values())
    assert types.count(3) == 2


@settings(max_examples=12)
@given(
    st.integers(3, 6),
    st.sampled_from(["etale", "general", "special"]),
    st.integers(0, 10_000),
)
def test_every_sampled_tower_validates(g, mode, seed):
    tower = sample_tower(SampleConfig(genus=g, mode=mode, seed=seed))
    assert tower.mode == mode and tower.genus == g

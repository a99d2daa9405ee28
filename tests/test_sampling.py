"""Seeded rejection sampler: determinism, admissibility, budgets."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trigonal import (
    SampleConfig,
    SplitMix64,
    derive_seed,
    genus,
    sample_tetragonal,
    sample_tower,
)
from trigonal import sampling


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
def test_choice_each_draws_what_successive_choice_calls_draw(seed):
    pools = [tuple(range(n)) for n in (1, 2, 3, 4, 6, 8)] * 4
    one_loop, successive = SplitMix64(seed), SplitMix64(seed)
    assert one_loop.choice_each(pools) == [successive.choice(pool) for pool in pools]
    assert one_loop.choice_each([]) == []
    # both streams stand at the same place afterwards
    assert one_loop.next_u64() == successive.next_u64()


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
    monkeypatch.setattr(sampling, "MAX_RETRIES", 1)
    with pytest.raises(RuntimeError):
        sample_tower(SampleConfig(genus=3, mode="general", seed=0))


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

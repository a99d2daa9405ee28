import functools
import importlib
import itertools
import json
import pkgutil
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from trigonal import (
    Permutation,
    compose,
    conjugate,
    induced_action,
    orbits,
    product,
)
import trigonal
from trigonal import covers, forward, groups, jsonio, sampling
from trigonal.batch import SUITES, run_batch, spread_configs
from trigonal.permutation import (
    MEMO_SIZE,
    _compose,
    _cycles,
    _identity,
    _inverse,
    _orbits,
)

from conftest import BLOCK_GROUP, CANONICAL_BLOCKS, S4, permutations


def test_identity():
    e = Permutation.identity(4)
    assert e.images == (1, 2, 3, 4)
    assert e.is_identity()
    assert e(3) == 3


def test_rejects_non_bijections():
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))
    with pytest.raises(ValueError):
        Permutation((0, 1, 2))
    with pytest.raises(ValueError):
        Permutation(())


@pytest.mark.parametrize("images", [(2.0, 1.0), (True, 2), (1, 2.0, 3), ("1",)])
def test_rejects_images_that_are_not_ints(images):
    # equal-but-not-int tuples would share memo entries with int ones
    with pytest.raises(ValueError, match="images must be integers"):
        Permutation(images)


def test_from_cycles():
    p = Permutation.from_cycles(5, [(1, 3), (2, 4, 5)])
    assert p.images == (3, 4, 1, 5, 2)
    with pytest.raises(ValueError):
        Permutation.from_cycles(3, [(1, 2), (2, 3)])  # overlapping support
    with pytest.raises(ValueError):
        Permutation.from_cycles(3, [(1, 4)])


def test_compose_applies_left_factor_first():
    # apply (1 2) then (2 3): 1 -> 2 -> 3
    p = Permutation.from_cycles(3, [(1, 2)])
    q = Permutation.from_cycles(3, [(2, 3)])
    assert compose(p, q).images == (3, 1, 2)
    assert compose(q, p).images == (2, 3, 1)


def test_product_left_to_right():
    p = Permutation.from_cycles(3, [(1, 2)])
    q = Permutation.from_cycles(3, [(2, 3)])
    assert product([p, q], 3) == compose(p, q)
    assert product([], 3).is_identity()
    with pytest.raises(ValueError):
        product([])


def test_cycles_and_cycle_type():
    p = Permutation((2, 1, 3, 5, 4, 6))
    assert p.cycles() == ((1, 2), (4, 5))
    assert p.cycles(include_fixed=True) == ((1, 2), (3,), (4, 5), (6,))
    assert p.cycle_type() == (2, 2, 1, 1)
    assert str(p) == "(1 2)(4 5)"
    assert str(Permutation.identity(2)) == "id[2]"


def test_cycle_through():
    p = Permutation.from_cycles(6, [(2, 5, 3)])
    assert p.cycle_through(5) == (2, 5, 3)
    assert p.cycle_through(1) == (1,)


def test_orbits():
    p = Permutation.from_cycles(5, [(1, 2)])
    q = Permutation.from_cycles(5, [(2, 3)])
    assert orbits([p, q]) == ((1, 2, 3), (4,), (5,))
    assert orbits([], 3) == ((1,), (2,), (3,))
    with pytest.raises(ValueError):
        orbits([])


@given(permutations(6), permutations(6))
def test_compose_matches_pointwise_application(p, q):
    r = compose(p, q)
    for x in range(1, 7):
        assert r(x) == q(p(x))


@given(permutations(5), permutations(5), permutations(5))
def test_compose_associative(p, q, r):
    assert compose(compose(p, q), r) == compose(p, compose(q, r))


@given(permutations(7))
def test_inverse_laws(p):
    e = Permutation.identity(7)
    assert compose(p, p.inverse()) == e
    assert compose(p.inverse(), p) == e


@given(permutations(6), permutations(6))
def test_conjugation_relabels_along_rho(p, rho):
    q = conjugate(p, rho)
    for x in range(1, 7):
        assert q(rho(x)) == rho(p(x))
    assert q.cycle_type() == p.cycle_type()


@given(permutations(8))
def test_cycles_reassemble(p):
    assert Permutation.from_cycles(8, p.cycles()) == p
    assert sum(p.cycle_type()) == 8


@given(permutations(6), st.integers(1, 6))
def test_cycle_through_is_the_containing_cycle(p, x):
    cyc = p.cycle_through(x)
    assert x in cyc
    assert cyc in p.cycles(include_fixed=True)


def test_induced_action_numbers_points_from_one():
    points = ((1, 2), (3,), (4, 5))
    assert induced_action(Permutation((4, 5, 3, 2, 1)), points).images == (3, 2, 1)
    assert induced_action(Permutation((2, 1, 3, 4, 5)), points).is_identity()


def test_induced_action_failures_raise_every_time_and_are_not_memoized():
    torn = Permutation((2, 3, 1, 4, 5, 6))
    short = Permutation((2, 1, 3, 4))
    assert not hasattr(induced_action, "cache_info")
    for _ in range(2):
        with pytest.raises(ValueError, match=r"\(1, 2\) maps to \(2, 3\)"):
            induced_action(torn, CANONICAL_BLOCKS.blocks)
        with pytest.raises(ValueError, match=r"\(5, 6\) names a sheet outside 1\.\.4"):
            induced_action(short, CANONICAL_BLOCKS.blocks)


MEMOS = (
    _compose,
    _cycles,
    _identity,
    _inverse,
    _orbits,
    covers._ramification,
    covers._restriction,
    forward._square_breaks,
    groups.block_table,
    groups.symmetric_table,
    jsonio._int_lists_text,
    jsonio.perm_from_cycles,
    sampling._labels,
    sampling._lift_pools,
    sampling._symmetric_pools,
)
S6 = tuple(map(Permutation, itertools.permutations(range(1, 7))))


def _reference_cycles(images, include_fixed):
    seen, out = set(), []
    for start in range(1, len(images) + 1):
        if start not in seen:
            cycle, x = [], start
            while x not in seen:
                seen.add(x)
                cycle.append(x)
                x = images[x - 1]
            if len(cycle) > 1 or include_fixed:
                out.append(tuple(cycle))
    return tuple(out)


@pytest.mark.parametrize("group", [BLOCK_GROUP, S4], ids=["block-group", "S4"])
def test_memoized_compose_matches_the_tuple_formula_on_the_whole_group(group):
    for _ in range(2):  # the second pass reads the memo
        for p, q in itertools.product(group, repeat=2):
            r = compose(p, q)
            assert type(r) is Permutation
            assert r.images == tuple(q.images[i - 1] for i in p.images)


def test_memoized_cycle_data_matches_a_reference_on_all_of_s6():
    identity = tuple(range(1, 7))
    for _ in range(2):
        for p in S6:
            assert p.cycles() == _reference_cycles(p.images, False)
            assert p.cycles(include_fixed=True) == _reference_cycles(p.images, True)
            assert p.cycle_type() == tuple(
                sorted(map(len, _reference_cycles(p.images, True)), reverse=True)
            )
            assert p.is_identity() == (p.images == identity)


def test_memoized_inverse_matches_the_tuple_formula_on_all_of_s6():
    identity = tuple(range(1, 7))
    for _ in range(2):  # the second pass reads the memo
        for p in S6:
            inverse = p.inverse()
            assert type(inverse) is Permutation
            assert inverse.images == tuple(p.images.index(i) + 1 for i in identity)
            assert compose(p, inverse).is_identity()


def test_memos_are_every_lru_cache_in_the_package():
    found = set()
    for info in pkgutil.iter_modules(trigonal.__path__):
        module = importlib.import_module(f"trigonal.{info.name}")
        for value in vars(module).values():
            if isinstance(value, functools._lru_cache_wrapper) and value.__module__ == module.__name__:
                found.add(value)
    assert found == set(MEMOS)
    for memo in MEMOS:
        assert memo.cache_info().maxsize == MEMO_SIZE, memo.__name__


def test_orbits_ignore_repeated_and_reordered_generators():
    rng = random.Random(5)
    for _ in range(50):
        gens = rng.sample(S6, rng.randint(1, 3))
        noisy = gens * 3
        rng.shuffle(noisy)
        assert orbits(noisy, 6) == orbits(gens, 6)
    with pytest.raises(ValueError):
        orbits([Permutation.identity(3), Permutation.identity(4)] * 2)


def _reference_orbits(generators, degree):
    # a plain union-find with no memo and no deduplication
    parent = list(range(degree + 1))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for p in generators:
        for i in range(1, degree + 1):
            parent[find(i)] = find(p(i))
    classes = {}
    for i in range(1, degree + 1):
        classes.setdefault(find(i), []).append(i)
    return tuple(sorted(map(tuple, classes.values())))


@pytest.mark.parametrize("degree", [4, 6, 8], ids=["S4", "S6", "S8"])
def test_memoized_orbits_match_a_plain_union_find(degree):
    rng = random.Random(degree)
    generator_sets = [[]]
    for _ in range(150):
        generator_sets.append([])
        for _ in range(rng.randint(1, 4)):
            # shuffle a random subset of the sheets, so orbits of every size occur
            moved = rng.sample(range(1, degree + 1), rng.randint(2, degree))
            images = list(range(1, degree + 1))
            for sheet, image in zip(moved, rng.sample(moved, len(moved))):
                images[sheet - 1] = image
            generator_sets[-1].append(Permutation(tuple(images)))
    for _ in range(2):  # the second pass reads the memo
        for gens in generator_sets:
            assert orbits(gens, degree) == _reference_orbits(gens, degree)
            if gens:
                assert orbits(gens) == _reference_orbits(gens, degree)


def test_a_raising_orbits_call_leaves_no_memo_entry():
    mixed = [Permutation.identity(3), Permutation((2, 1, 3, 4))]
    before = _orbits.cache_info().currsize
    for _ in range(2):
        with pytest.raises(ValueError, match="equal degree"):
            orbits(mixed)
        with pytest.raises(ValueError, match="equal degree"):
            orbits(mixed, 4)
        with pytest.raises(ValueError, match="degree 5 does not match permutations of degree 4"):
            orbits(mixed[1:], 5)
        with pytest.raises(ValueError, match="explicit degree"):
            orbits([])
    assert _orbits.cache_info().currsize == before


def test_a_raising_compose_leaves_no_memo_entry():
    before = _compose.cache_info().currsize
    for _ in range(2):
        with pytest.raises(ValueError, match="degree mismatch: 3 vs 4"):
            compose(Permutation.identity(3), Permutation.identity(4))
    assert _compose.cache_info().currsize == before


def test_memos_stay_far_below_their_bound_over_the_five_suites():
    for memo in MEMOS:
        memo.cache_clear()
    for suite in sorted(SUITES):
        configs = spread_configs(suite, 40, 1, 3, 8)
        assert run_batch(suite, configs).passed, suite
        # the suites write no documents: write and read back each instance's
        for cfg in configs:
            if cfg.mode == sampling.SAMPLE_M0:
                text = jsonio.dumps_canonical(jsonio.cover_to_dict(sampling.sample_tetragonal(cfg).cover))
                jsonio.tetragonal_from_dict(json.loads(text))
            else:
                text = jsonio.dumps_canonical(jsonio.tower_to_dict(sampling.sample_tower(cfg)))
                jsonio.tower_from_dict(json.loads(text))
    for memo in MEMOS:
        info = memo.cache_info()
        assert info.maxsize == MEMO_SIZE
        assert 0 < info.currsize <= MEMO_SIZE // 4, (memo.__name__, info)
    # the tables' columns are bounded by the group orders instead
    for table, order in (
        (groups.block_table(CANONICAL_BLOCKS), 48),
        (groups.block_table(groups.PARTITION_BLOCKS), 48),
        (groups.symmetric_table(4), 24),
    ):
        assert table.columns and all(len(column) == order for column in table.columns), order

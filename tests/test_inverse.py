"""Pairs construction: the six-pairs cover, complement involution,
partition quotient, fibre classification and the node rules."""
import dataclasses
import hashlib

import pytest

from trigonal import (
    PAIRS,
    BranchedCover,
    NodalCoverModel,
    Permutation,
    TetragonalCover,
    block_action,
    classify_fiber,
    component_tetragonal,
    compose,
    construct,
    expected_inverse,
    iter_isomorphisms,
    flip_points,
    invert,
    match_glued,
    pairs_action,
    partition_action,
    roundtrip,
    roundtrip_etale,
    validate_tower,
)
from trigonal.towers import TowerValidationError
from trigonal.covers import CoverPoint
from trigonal.groups import (
    COMPLEMENT,
    FLIPS,
    PAIR_IMAGE,
    PARTITION_IMAGE,
    block_table,
    derive,
    symmetric_table,
)
from trigonal.inverse import PARTITION_BLOCKS, _glue_flips
from trigonal.jsonio import dumps_canonical, inverse_result_to_dict

from conftest import CANONICAL_BLOCKS, S4
from test_towers import ETALE_COVER, GENERAL_COVER, SPECIAL_COVER


def test_pairs_enumerate_lexicographically():
    assert PAIRS == ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))


def test_complement_involution_reverses_the_pair_list():
    assert COMPLEMENT.images == (6, 5, 4, 3, 2, 1)


def test_pairs_action_profiles():
    t = Permutation.from_cycles(4, [(1, 2)])
    assert pairs_action(t).cycle_type() == (2, 2, 1, 1)
    four = Permutation.from_cycles(4, [(1, 2, 3, 4)])
    assert pairs_action(four).cycle_type() == (4, 2)
    double = Permutation.from_cycles(4, [(1, 2), (3, 4)])
    assert pairs_action(double).cycle_type() == (2, 2, 1, 1)
    # the double-double fixes exactly its own pair and the complement
    fixed = [PAIRS[i - 1] for i in range(1, 7) if pairs_action(double)(i) == i]
    assert fixed == [(1, 2), (3, 4)]


def test_pairs_action_commutes_with_complement_on_all_of_s4():
    kappa = COMPLEMENT
    for p in S4:
        induced = pairs_action(p)
        assert compose(induced, kappa) == compose(kappa, induced)


def test_partition_step_rejects_a_permutation_not_commuting_with_the_complement():
    # partition_action is block_action on the complement's orbits
    kappa = COMPLEMENT
    swap = Permutation.from_cycles(6, [(1, 2)])
    assert compose(swap, kappa) != compose(kappa, swap)
    with pytest.raises(ValueError, match="not a point"):
        block_action(swap, PARTITION_BLOCKS)


def test_partition_action_profiles():
    # a transposition swaps two partitions; a 4-cycle does too
    t = Permutation.from_cycles(4, [(1, 2)])
    assert partition_action(t).cycle_type() == (2, 1)
    four = Permutation.from_cycles(4, [(1, 2, 3, 4)])
    assert partition_action(four).cycle_type() == (2, 1)
    # {13|24} is preserved by (1 2 3 4): pairs (1,3),(2,4) swap
    assert partition_action(four)(2) == 2
    three = Permutation.from_cycles(4, [(1, 2, 3)])
    assert partition_action(three).cycle_type() == (3,)


def test_classify_fiber_dictionary():
    assert classify_fiber(Permutation.identity(4)) == 1
    assert classify_fiber(Permutation.from_cycles(4, [(1, 2)])) == 2
    assert classify_fiber(Permutation.from_cycles(4, [(1, 2, 3)])) == 3
    assert classify_fiber(Permutation.from_cycles(4, [(1, 2), (3, 4)])) == 4
    assert classify_fiber(Permutation.from_cycles(4, [(1, 2, 3, 4)])) == 5
    with pytest.raises(ValueError):
        classify_fiber(Permutation.from_cycles(3, [(1, 2)]))


def test_tetragonal_strata():
    t = Permutation.from_cycles(4, [(1, 2)])
    u = Permutation.from_cycles(4, [(2, 3)])
    v = Permutation.from_cycles(4, [(3, 4)])
    d = Permutation.from_cycles(4, [(1, 2), (3, 4)])

    def cover(perms):
        return TetragonalCover(
            BranchedCover.from_pairs(4, [(f"b{i}", p) for i, p in enumerate(perms)])
        )

    assert cover([t, u, u, v, v, t]).stratum == "m0"
    assert cover([t, u, u, v, v, t, d, d]).stratum == "m2"
    q = Permutation.from_cycles(4, [(1, 2, 3, 4)])
    assert cover([q, q.inverse(), t, t]).stratum == "other"
    with pytest.raises(ValueError):
        cover([t, t])  # disconnected
    with pytest.raises(ValueError):
        TetragonalCover(BranchedCover.from_pairs(3, []))


# two (2,2) labels with monodromy in the dihedral group fixing {12|34}:
# connected, but the partition curve is not
INTRANSITIVE_M2 = tuple(
    Permutation.from_cycles(4, cycles)
    for cycles in [[(1, 2)]] * 2 + [[(3, 4)]] * 2 + [[(1, 2)]] * 2 + [[(1, 3), (2, 4)]] * 2
)


def test_two_double_labels_with_an_intransitive_partition_action_are_stratum_other():
    cover = BranchedCover.from_pairs(4, [(f"b{i:02d}", p) for i, p in enumerate(INTRANSITIVE_M2, start=1)])
    tetragonal = TetragonalCover(cover)
    assert (tetragonal.stratum, tetragonal.genus) == ("other", 2)
    # invert still accepts every connected cover; its pairs cover is no tower
    result = invert(tetragonal)
    assert result.trigonal_cover.orbits == ((1,), (2, 3))
    with pytest.raises(TowerValidationError) as err:
        validate_tower(result.pairs_cover, result.blocks)
    assert err.value.errors == [
        "degree-6 cover is disconnected",
        "block action is intransitive: the trigonal curve is disconnected",
    ]


def test_invert_m0_gives_an_etale_tower():
    result = construct(validate_tower(ETALE_COVER, CANONICAL_BLOCKS))
    tet = TetragonalCover(result.sections.components[0].cover)
    assert tet.stratum == "m0" and tet.genus == 2

    inverse = invert(tet)
    assert inverse.trigonal_model.nodes == ()
    assert inverse.pairs_model.nodes == ()
    tower = validate_tower(inverse.pairs_cover, inverse.blocks)
    assert tower.mode == "etale"
    assert tower.genus == 3  # gamma + 1


def test_invert_m1_places_one_node_per_level():
    special = validate_tower(SPECIAL_COVER, CANONICAL_BLOCKS)
    tet = TetragonalCover(component_tetragonal(construct(special)))
    assert tet.stratum == "m1"
    inverse = invert(tet)
    assert len(inverse.trigonal_model.nodes) == 1
    assert len(inverse.pairs_model.nodes) == 1
    # the node sits over the unique double-double label
    [(a, b)] = inverse.trigonal_model.nodes
    [label] = [lb for lb, t in inverse.fiber_types.items() if t == 4]
    assert a.label == label and b.label == label
    assert a.ramification_index == 1 and b.ramification_index == 1
    # upstairs both branches are double points
    [(ua, ub)] = inverse.pairs_model.nodes
    assert ua.ramification_index == 2 and ub.ramification_index == 2


def test_invert_quadruple_label_uses_the_type_five_rule():
    q = Permutation.from_cycles(4, [(1, 2, 3, 4)])
    t = Permutation.from_cycles(4, [(1, 3)])
    perms = [q, q.inverse(), t, t]
    from trigonal import product

    assert product(perms, 4).is_identity()
    tet = TetragonalCover(
        BranchedCover.from_pairs(4, [(f"b{i}", p) for i, p in enumerate(perms)])
    )
    assert tet.stratum == "other"
    inverse = invert(tet)
    quad_labels = [lb for lb, ty in inverse.fiber_types.items() if ty == 5]
    assert len(quad_labels) == 2
    node_labels = sorted(a.label for a, _ in inverse.trigonal_model.nodes)
    assert node_labels == sorted(quad_labels)
    for a, b in inverse.trigonal_model.nodes:
        if a.label in quad_labels:
            # a transposed partition pair glued to a fixed partition
            assert sorted((a.ramification_index, b.ramification_index)) == [1, 2]
    for a, b in inverse.pairs_model.nodes:
        if a.label in quad_labels:
            assert sorted((a.ramification_index, b.ramification_index)) == [2, 4]


def _per_type_nodes(label, perm):
    """(trigonal nodes, pairs nodes) over one label by the rules written
    per fibre type, kept here as the reference for the one gluing rule."""
    induced, action = pairs_action(perm), partition_action(perm)

    def upstairs(q):
        return CoverPoint(label, induced.cycle_through(PARTITION_BLOCKS[q - 1][0]))

    fiber = classify_fiber(perm)
    if fiber == 4:
        # the partitions whose two pairs fuse into a single 2-cycle
        glued = [q for q in range(1, 4) if len(upstairs(q).cycle) == 2]
        assert len(glued) == 2
        a, b = glued
        return [(CoverPoint(label, (a,)), CoverPoint(label, (b,)))], [(upstairs(a), upstairs(b))]
    if fiber == 5:
        # the transposed partition pair, then the fixed partition
        (moved,) = action.cycles()
        (fixed,) = [q for q in range(1, 4) if action(q) == q]
        return (
            [(CoverPoint(label, moved), CoverPoint(label, (fixed,)))],
            [(upstairs(moved[0]), upstairs(fixed))],
        )
    return [], []


def test_the_pairs_cover_flips_exactly_over_types_four_and_five_on_all_of_s4():
    table = block_table(PARTITION_BLOCKS)
    for perm in S4:
        pairs = pairs_action(perm)
        # the partition cycles whose cycle of pairs through the first pair
        # of their first partition is twice as long
        doubled = [
            cycle
            for cycle in block_action(pairs, PARTITION_BLOCKS).cycles(include_fixed=True)
            if len(pairs.cycle_through(PARTITION_BLOCKS[cycle[0] - 1][0])) == 2 * len(cycle)
        ]
        assert len(doubled) == (2 if perm.cycle_type() in ((2, 2), (4,)) else 0), perm
        flips = table.columns[FLIPS][table.index[pairs.images]]
        assert [cycle for cycle, _ in flips] == doubled, perm


def test_gluing_the_flip_points_gives_the_per_type_nodes_on_all_of_s4():
    for perm in S4:
        if perm.is_identity():
            continue
        cover = BranchedCover.from_pairs(4, [("a", perm), ("b", perm.inverse())])
        s4 = symmetric_table(4)
        pairs, trigonal = derive(cover, s4, (PAIR_IMAGE, PARTITION_IMAGE))
        trigonal_model, pairs_model = _glue_flips(pairs, trigonal, PARTITION_BLOCKS)
        expected = [_per_type_nodes(label, p) for label, p in cover.entries()]
        # points, upstairs cycles and their order, node by node
        assert list(trigonal_model.nodes) == [n for lower, _ in expected for n in lower], perm
        assert list(pairs_model.nodes) == [n for _, upper in expected for n in upper], perm


def test_invert_output_for_a_four_cycle_fixing_the_first_partition():
    # (1 3 2 4) fixes {12|34}, so its flip points come fixed partition
    # first; the transposed pair must still lead the node
    q = Permutation.from_cycles(4, [(1, 3, 2, 4)])
    t = Permutation.from_cycles(4, [(1, 2)])
    tet = TetragonalCover(
        BranchedCover.from_pairs(4, [("q", q), ("r", q.inverse()), ("s", t), ("u", t)])
    )
    document = inverse_result_to_dict(invert(tet))
    nodes = [[["q", 2], ["q", 1]], [["r", 2], ["r", 1]]]
    assert document["trigonal_nodes"] == document["pairs_nodes"] == nodes
    digest = hashlib.sha256(dumps_canonical(document).encode()).hexdigest()
    assert digest == "f3b916667b52f71ecb5830c8d3c6351a6fe09018b92318390a7c6abedb4b0371"


def test_expected_inverse_matches_inverse_of_component():
    special = validate_tower(SPECIAL_COVER, CANONICAL_BLOCKS)
    glued = expected_inverse(special)
    assert len(glued.trigonal_model.nodes) == 1
    assert len(glued.double_model.nodes) == 1
    inverse = invert(TetragonalCover(component_tetragonal(construct(special))))
    report = match_glued(inverse, glued)
    assert report.passed, report.failures()


def test_match_glued_fails_cleanly_on_relabeled_input():
    special = validate_tower(SPECIAL_COVER, CANONICAL_BLOCKS)
    glued = expected_inverse(special)
    tet = component_tetragonal(construct(special))
    renamed = BranchedCover.from_pairs(
        4, [(f"x{label}", perm) for label, perm in tet.entries()]
    )
    report = match_glued(invert(TetragonalCover(renamed)), glued)
    assert not report.passed
    assert any("label" in c.detail for c in report.failures())


def test_roundtrip_special_fixture():
    report = roundtrip(validate_tower(SPECIAL_COVER, CANONICAL_BLOCKS))
    assert report.passed, report.failures()


def test_twist_flips_the_other_two_blocks_of_a_general_tower():
    general = validate_tower(GENERAL_COVER, CANONICAL_BLOCKS)
    twisted = expected_inverse(general).double_model.normalization
    assert len(general.flips) == 2
    assert len(flip_points(twisted, general.blocks)) == 4
    special = validate_tower(SPECIAL_COVER, CANONICAL_BLOCKS)
    assert expected_inverse(special).double_model.normalization == special.cover


def test_untwisted_general_tower_fails_the_double_cover_match():
    general = validate_tower(GENERAL_COVER, CANONICAL_BLOCKS)
    inverse = invert(TetragonalCover(construct(general).quotient))
    expected = expected_inverse(general)
    assert match_glued(inverse, expected).passed
    # the untwisted top curve has no in-block 2-cycles over the unflipped
    # blocks, so there is nothing to glue upstairs
    untwisted = dataclasses.replace(expected, double_model=NodalCoverModel(general.cover))
    report = match_glued(inverse, untwisted)
    assert [c.name for c in report.checks if c.passed] == ["trigonal-curves-match"]
    assert [c.name for c in report.failures()] == ["double-covers-match"]
    # the normalizations already differ, whatever the nodes
    assert next(iter_isomorphisms(inverse.pairs_cover, general.cover), None) is None


def test_roundtrip_etale_fixture():
    result = construct(validate_tower(ETALE_COVER, CANONICAL_BLOCKS))
    tet = TetragonalCover(result.sections.components[0].cover)
    report = roundtrip_etale(tet)
    assert report.passed, report.failures()


def test_roundtrip_etale_rejects_marked_strata():
    special = validate_tower(SPECIAL_COVER, CANONICAL_BLOCKS)
    tet = TetragonalCover(component_tetragonal(construct(special)))
    with pytest.raises(ValueError):
        roundtrip_etale(tet)

import pytest
from hypothesis import given

from trigonal import (
    BlockSystem,
    BranchedCover,
    CoverPoint,
    Permutation,
    TowerValidationError,
    block_action,
    flip_points,
    genus,
    validate_tower,
)

from conftest import BLOCK_SYSTEMS, CANONICAL_BLOCKS, block_group, block_preserving_permutations

A = Permutation((3, 4, 1, 2, 5, 6))
A2 = Permutation((4, 3, 2, 1, 5, 6))
C = Permutation((5, 6, 3, 4, 1, 2))
F = Permutation((2, 1, 4, 3, 5, 6))
F1 = Permutation((2, 1, 3, 4, 5, 6))
F2 = Permutation((1, 2, 4, 3, 5, 6))


def tower_cover(h_perms, flip_perms):
    labels = [f"h{i:02d}" for i in range(1, len(h_perms) + 1)]
    labels += [f"f{i}" for i in range(1, len(flip_perms) + 1)]
    return BranchedCover.from_pairs(6, list(zip(labels, h_perms + flip_perms)))


ETALE_COVER = tower_cover([A, A2, A, A2, A, A, A, A, C, C], [])
SPECIAL_COVER = tower_cover([A, A2, A, A, A, A, A, A, C, C], [F])
GENERAL_COVER = tower_cover([A, A2, A, A, A, A, A, A, C, C], [F1, F2])


def test_block_system_canonicalizes():
    blocks = BlockSystem.from_pairs([(6, 5), (2, 1), (4, 3)])
    assert blocks.blocks == ((1, 2), (3, 4), (5, 6))
    with pytest.raises(ValueError):
        BlockSystem.from_pairs([(1, 2), (2, 3), (4, 5)])
    with pytest.raises(ValueError):
        BlockSystem.from_pairs([(1, 2), (3, 4)])


def test_block_action_projects_and_rejects_torn_blocks():
    assert block_action(A, CANONICAL_BLOCKS).images == (2, 1, 3)
    assert block_action(C, CANONICAL_BLOCKS).images == (3, 2, 1)
    assert block_action(F, CANONICAL_BLOCKS).is_identity()
    torn = Permutation((3, 4, 2, 1, 5, 6))  # 1 -> 3 but 2 -> 4 lands fine; 3 -> 2, 4 -> 1 tears
    with pytest.raises(ValueError):
        block_action(Permutation((2, 3, 1, 4, 5, 6)), CANONICAL_BLOCKS)
    assert block_action(torn, CANONICAL_BLOCKS).images == (2, 1, 3)


def test_validate_tower_classifies_the_three_fixtures():
    etale = validate_tower(ETALE_COVER, CANONICAL_BLOCKS)
    special = validate_tower(SPECIAL_COVER, CANONICAL_BLOCKS)
    general = validate_tower(GENERAL_COVER, CANONICAL_BLOCKS)
    assert (etale.mode, special.mode, general.mode) == ("etale", "special", "general")
    assert etale.genus == special.genus == general.genus == 3
    assert etale.flip_labels() == ()
    assert special.flip_labels() == ("f1",)
    assert sorted(general.flip_labels()) == ["f1", "f2"]
    for tower in (etale, special, general):
        assert genus(tower.trigonal) == 3
        assert tower.warnings == ()


def test_trigonal_projection_entries():
    special = validate_tower(SPECIAL_COVER, CANONICAL_BLOCKS)
    assert special.trigonal.degree == 3
    # flip labels act trivially downstairs and are dropped there
    assert "f1" not in special.trigonal.labels
    assert special.trigonal.perm_at("h01").images == (2, 1, 3)
    assert special.trigonal.perm_at("h09").images == (3, 2, 1)


def test_validate_rejects_wrong_degree():
    cover = BranchedCover.from_pairs(2, [("a", Permutation((2, 1))), ("b", Permutation((2, 1)))])
    with pytest.raises(TowerValidationError):
        validate_tower(cover, CANONICAL_BLOCKS)


def test_validate_rejects_torn_blocks():
    with pytest.raises(TowerValidationError) as err:
        validate_tower(ETALE_COVER, BlockSystem.from_pairs([(1, 3), (2, 4), (5, 6)]))
    assert any("block" in line for line in err.value.errors)


def test_validate_rejects_four_single_flips():
    cover = tower_cover([A, A2, A, A2, A, A, A, A, C, C], [F1, F1, F2, F2])
    with pytest.raises(TowerValidationError) as err:
        validate_tower(cover, CANONICAL_BLOCKS)
    assert any("0 or 2" in line for line in err.value.errors)


def test_validate_rejects_full_weight_flip():
    # weight-3 flip labels (all three blocks flipped at once)
    W3 = Permutation((2, 1, 4, 3, 6, 5))
    cover = tower_cover([A, A2, A, A2, A, A, A, A, C, C], [W3, W3])
    with pytest.raises(TowerValidationError):
        validate_tower(cover, CANONICAL_BLOCKS)


def test_validate_rejects_disconnected_levels():
    # h-entries generate only a proper subgroup downstairs
    cover = tower_cover([A, A2, A, A2, A, A, A, A], [])
    with pytest.raises(TowerValidationError) as err:
        validate_tower(cover, CANONICAL_BLOCKS)
    assert any("connect" in line for line in err.value.errors)


def test_low_genus_warns_but_validates():
    cover = tower_cover([A, A2, A, A2, C, C], [])
    tower = validate_tower(cover, CANONICAL_BLOCKS)
    assert tower.genus == 1
    assert tower.mode == "etale"
    assert tower.warnings and any("genus" in w for w in tower.warnings)


def test_flip_points_mark_the_flipped_blocks_downstairs():
    special = validate_tower(SPECIAL_COVER, CANONICAL_BLOCKS)
    points = flip_points(special.cover, special.blocks)
    # the weight-2 flip swaps inside blocks 1 and 2; downstairs these are
    # unramified points of the block-action curve over the flip label
    assert [(p.label, p.cycle) for p in points] == [("f1", (1,)), ("f1", (2,))]
    etale = validate_tower(ETALE_COVER, CANONICAL_BLOCKS)
    assert flip_points(etale.cover, etale.blocks) == ()


def _reference_flip_points(cover, blocks):
    # flip_points as one loop over the entries, with no memo
    out = []
    for label, perm in cover.entries():
        for block_cycle in block_action(perm, blocks).cycles(include_fixed=True):
            sheets = {s for bi in block_cycle for s in blocks[bi - 1]}
            upstairs = perm.cycle_through(min(sheets))
            if len(upstairs) == 2 * len(block_cycle):
                out.append(CoverPoint(label, block_cycle))
            elif len(upstairs) != len(block_cycle):
                raise ValueError(f"impossible block pattern at {label!r}")
    return tuple(out)


def test_memoized_flip_points_match_the_loop_on_the_whole_block_group():
    for blocks in BLOCK_SYSTEMS:
        group = block_group(blocks)
        assert len(group) == 48
        for _ in range(2):  # the second pass reads the built table
            for p in group:
                if p.is_identity():
                    continue
                cover = BranchedCover.from_pairs(6, [("a", p), ("b", p.inverse())])
                assert flip_points(cover, blocks) == _reference_flip_points(cover, blocks)


@given(block_preserving_permutations(), block_preserving_permutations())
def test_block_action_is_a_homomorphism(p, q):
    from trigonal import compose

    assert block_action(compose(p, q), CANONICAL_BLOCKS) == compose(
        block_action(p, CANONICAL_BLOCKS), block_action(q, CANONICAL_BLOCKS)
    )

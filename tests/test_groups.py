"""The block-group and S4 table columns: homomorphisms on the whole
group, equal to the induced actions and the per-cover induced covers
they replace, and shared by every block system's table."""
import itertools
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from trigonal import (
    BlockSystem,
    BranchedCover,
    Permutation,
    TetragonalCover,
    TowerValidationError,
    block_action,
    classify_fiber,
    compose,
    construct,
    invert,
    pairs_action,
    partition_action,
    sample_tetragonal,
    sample_tower,
    sections_action,
    validate_tower,
)
from trigonal.batch import SUITE_MODES, spread_configs
from trigonal.cli import main
from trigonal.forward import _square_breaks
from trigonal.groups import (
    BLOCK,
    CYCLE_COUNTS,
    FIBER_TYPE,
    FLIPS,
    INVOLUTION,
    ORIENTATION,
    PAIR_IMAGE,
    PAIRS,
    PARITY_CLASSES,
    PARTITION_BLOCKS,
    PARTITION_IMAGE,
    QUOTIENT,
    QUOTIENT_CLASSES,
    SECTIONS,
    TO_ORIENTATION,
    TO_QUOTIENT,
    GroupTable,
    block_table,
    orientation_action,
    quotient_action,
    symmetric_table,
    transversal_sheets,
)
from trigonal import permutation
from trigonal.jsonio import (
    cover_from_dict,
    cover_with_blocks_to_dict,
    tetragonal_from_dict,
    tower_from_dict,
)
from trigonal.sampling import SAMPLE_M0, SampleConfig

from conftest import (
    BLOCK_SYSTEMS,
    CANONICAL_BLOCKS,
    FIXTURES,
    S4,
    S6,
    block_group,
    induced_cover,
    product_one_tuples,
)


def _images(entry, degree):
    return tuple(range(1, degree + 1)) if entry is None else entry.images


def _compose(a, b):
    # apply a first, then b
    return tuple(b[i - 1] for i in a)


def _preserves(perm, blocks):
    return {frozenset(map(perm, b)) for b in blocks} == {frozenset(b) for b in blocks}


def test_there_are_fifteen_block_systems():
    assert len(set(BLOCK_SYSTEMS)) == 15


def _is_homomorphism_column(table, column, degree):
    # all products of two elements, against the composed images
    for a, b in itertools.product(range(len(table.elements)), repeat=2):
        assert _images(column[table.mul[a][b]], degree) == _compose(
            _images(column[a], degree), _images(column[b], degree)
        )


def _oracle(image):
    return None if image.is_identity() else image


@pytest.mark.parametrize("blocks", BLOCK_SYSTEMS, ids=lambda b: str(b.blocks))
def test_block_rows_are_homomorphisms_on_the_whole_group(blocks):
    # an element's row is its entry in every column
    table = block_table(blocks)
    for p in S6:  # exactly the members have an index
        assert (p.images in table.index) == _preserves(p, blocks)
    assert len(table.elements) == 48
    for p, *row in zip(table.elements, *table.columns[:CYCLE_COUNTS]):
        sections = sections_action(p, blocks)
        assert row == [
            _oracle(block_action(p, blocks)),
            _oracle(sections),
            _oracle(quotient_action(sections)),
            _oracle(orientation_action(sections)),
        ]
    assert table.degrees == (3, 8, 4, 2)
    for column, degree in zip(table.columns, table.degrees):
        _is_homomorphism_column(table, column, degree)


def test_s4_rows_are_homomorphisms_on_the_whole_group():
    table = symmetric_table(4)
    assert sorted(table.elements, key=lambda p: p.images) == sorted(S4, key=lambda p: p.images)
    columns = zip(table.elements, table.columns[PAIR_IMAGE], table.columns[PARTITION_IMAGE])
    for p, pairs, partition in columns:
        assert (pairs, partition) == (_oracle(pairs_action(p)), _oracle(partition_action(p)))
    assert table.degrees == (6, 3)
    for column, degree in zip(table.columns, table.degrees):
        _is_homomorphism_column(table, column, degree)
    for wrong in (Permutation((2, 1, 3)), Permutation((2, 1, 3, 4, 5))):
        assert wrong.images not in table.index


def test_a_column_build_raises_on_generator_images_that_define_no_homomorphism():
    table = symmetric_table(4)
    assert [table.elements[g].images for g in table.generators] == [(2, 1, 3, 4), (2, 3, 4, 1)]
    swap = Permutation((2, 1))
    # the sign character builds; a transposition in the kernel with a
    # 4-cycle outside it does not
    sign = table.homomorphism(lambda p: swap)
    assert [p is None for p in sign] == [
        p.cycle_type() in ((1, 1, 1, 1), (3, 1), (2, 2)) for p in table.elements
    ]
    with pytest.raises(ValueError, match="define no homomorphism"):
        table.homomorphism(lambda p: swap if p.images == (2, 3, 4, 1) else Permutation.identity(2))
    # a flip sent to a 3-cycle: its square is the identity, the image's not
    with pytest.raises(ValueError, match="define no homomorphism"):
        block_table(CANONICAL_BLOCKS).homomorphism(lambda p: Permutation((2, 3, 1)))


@pytest.mark.parametrize("blocks", BLOCK_SYSTEMS, ids=lambda b: str(b.blocks))
def test_block_rows_hold_the_cycle_counts_and_break_no_square(blocks):
    table = block_table(blocks)
    for x, p in enumerate(table.elements):
        sections, quotient, orientation = (
            Permutation(_images(table.columns[column][x], degree))
            for column, degree in ((SECTIONS, 8), (QUOTIENT, 4), (ORIENTATION, 2))
        )
        counts = (len(sections.cycles(include_fixed=True)), len(quotient.cycles(include_fixed=True)))
        assert table.columns[CYCLE_COUNTS][x] == counts
        # the quotient counts the involution's orbits on the section
        # cycles, so the sections count doubles it exactly when the
        # involution carries no cycle onto itself
        fixed = [c for c in sections.cycles(include_fixed=True) if set(map(INVOLUTION, c)) == set(c)]
        assert (counts[0] == 2 * counts[1]) == (not fixed)
        # which holds for every entry a tower can carry: a flip-free lift,
        # or a flip of one or two blocks over a trivial block action
        flips = table.columns[FLIPS][x]
        if not flips or (table.columns[BLOCK][x] is None and len(flips) < 3):
            assert counts[0] == 2 * counts[1]
        for t in range(1, 9):
            assert TO_QUOTIENT[sections(t) - 1] == quotient(TO_QUOTIENT[t - 1])
            assert TO_ORIENTATION[sections(t) - 1] == orientation(TO_ORIENTATION[t - 1])
        assert _square_breaks(x, TO_QUOTIENT, TO_ORIENTATION) == ()


# fibre type by cycle type, longest cycle first: the table of the paper's
# five local pictures over a point of the line
REFERENCE_FIBER_TYPES = {(1, 1, 1, 1): 1, (2, 1, 1): 2, (3, 1): 3, (2, 2): 4, (4,): 5}


def test_s4_rows_hold_the_fibre_type_of_each_cycle_type():
    table = symmetric_table(4)
    for p, fiber in zip(table.elements, table.columns[FIBER_TYPE]):
        lengths = tuple(sorted((len(c) for c in p.cycles(include_fixed=True)), reverse=True))
        assert fiber == classify_fiber(p) == REFERENCE_FIBER_TYPES[lengths]
    for wrong in (Permutation((2, 1, 3)), Permutation.identity(5), Permutation((2, 1, 4, 3, 6, 5))):
        with pytest.raises(ValueError, match="degree-4"):
            classify_fiber(wrong)


# -- derived covers equal the fully checked induced covers ---------------------

def _same(derived, reference):
    """``reference`` came through ``BranchedCover(...)``; the derived cover
    equals it and passes the same checks when rebuilt through them."""
    assert derived == reference
    assert BranchedCover(derived.degree, derived.labels, derived.monodromy) == derived


def _check_components(cover):
    parts = cover.components
    assert tuple(p.sheets for p in parts) == cover.orbits
    for part in parts:
        _same(part.cover, induced_cover(cover, tuple((s,) for s in part.sheets)))
    assert cover.components is parts


@pytest.mark.parametrize(
    "table, group",
    [
        (lambda: symmetric_table(3), tuple(map(Permutation, itertools.permutations(range(1, 4))))),
        (lambda: symmetric_table(4), S4),
        (lambda: block_table(CANONICAL_BLOCKS), block_group(CANONICAL_BLOCKS)),
    ],
    ids=["S3", "S4", "block-group"],
)
def test_group_tables_multiply_and_invert_as_the_kernel_does(table, group):
    table = table()
    assert sorted(table.elements, key=lambda p: p.images) == sorted(group, key=lambda p: p.images)
    assert all(table.index[p.images] == i for i, p in enumerate(table.elements))
    assert table.elements[table.identity].is_identity()
    for a, p in enumerate(table.elements):
        assert table.elements[table.inv[a]] == p.inverse()
        for b, q in enumerate(table.elements):
            assert table.elements[table.mul[a][b]] == compose(p, q)


def test_block_table_lists_each_block_action_with_its_lift_vectors():
    actions = symmetric_table(3).elements
    canonical = block_table(CANONICAL_BLOCKS)
    for blocks in BLOCK_SYSTEMS:
        table = block_table(blocks)
        assert len(table.elements) == 48
        # the canonical table relabelled: the same products and image
        # columns, its own elements, index and flip pattern
        assert table.mul is canonical.mul and table.inv is canonical.inv
        assert table.identity == canonical.identity
        assert all(a is b for a, b in zip(table.columns[:FLIPS], canonical.columns[:FLIPS]))
        assert table.degrees == canonical.degrees
        assert all(table.index[p.images] == i for i, p in enumerate(table.elements))
        for i, p in enumerate(table.elements):
            a, v = divmod(i, 8)
            assert block_action(p, blocks) == actions[a]
            # bit 3 - j of v: block j's smaller sheet goes to the larger one of its image
            assert v == sum(int(p(lo) == max(p(lo), p(hi))) << (2 - j) for j, (lo, hi) in enumerate(blocks))


def test_building_a_table_adds_nothing_to_the_kernel_memos():
    memos = (permutation._compose, permutation._inverse)
    before = [memo.cache_info().currsize for memo in memos]
    fresh = GroupTable(itertools.permutations(range(1, 5)), [(2, 1, 3, 4), (2, 3, 4, 1)])
    assert fresh.mul == symmetric_table(4).mul
    assert [memo.cache_info().currsize for memo in memos] == before


@given(product_one_tuples(3, 3), product_one_tuples(3, 4), st.permutations(range(1, 8)))
def test_components_equal_induced_covers_on_disjoint_unions(left, right, sheets):
    # each entry moves the sheets of one part only, so every component
    # drops the labels of the other
    def place(perm, part):
        images = list(range(1, 8))
        for i, image in enumerate(perm.images):
            images[part[i] - 1] = part[image - 1]
        return Permutation(tuple(images))

    entries = [(f"a{i}", place(p, sheets[:3])) for i, p in enumerate(left)]
    entries += [(f"b{i}", place(p, sheets[3:])) for i, p in enumerate(right)]
    cover = BranchedCover.from_pairs(7, sorted(entries, key=lambda e: e[0][1:]))
    _check_components(cover)


def _check_tetragonal(tetragonal):
    result = invert(tetragonal)
    pairs = induced_cover(tetragonal.cover, PAIRS)
    _same(result.pairs_cover, pairs)
    _same(result.trigonal_cover, induced_cover(pairs, PARTITION_BLOCKS.blocks))
    return result


def _check_tower(tower):
    _same(tower.trigonal, induced_cover(tower.cover, tower.blocks.blocks))
    result = construct(tower)
    sections = induced_cover(tower.cover, transversal_sheets(tower.blocks))
    _same(result.sections, sections)
    _same(result.quotient, induced_cover(sections, QUOTIENT_CLASSES))
    _same(result.orientation, induced_cover(sections, PARITY_CLASSES))
    for cover in (tower.cover, tower.trigonal, result.sections, result.quotient):
        _check_components(cover)
    _check_tetragonal(TetragonalCover(result.quotient))


def _check_m0(tetragonal):
    result = _check_tetragonal(tetragonal)
    _check_tower(validate_tower(result.pairs_cover, PARTITION_BLOCKS))


@pytest.mark.parametrize("suite", sorted(SUITE_MODES))
def test_derived_covers_equal_induced_covers_over_the_suites(suite):
    for cfg in spread_configs(suite, 60, 11, 3, 8):
        if cfg.mode == SAMPLE_M0:
            _check_m0(sample_tetragonal(cfg))
        else:
            _check_tower(sample_tower(cfg))


def _fixture(name):
    return json.loads((FIXTURES / name).read_text())


def test_derived_covers_equal_induced_covers_on_the_fixtures():
    for name in ("tower_etale_g3.json", "tower_general_g3.json", "tower_special_g3.json"):
        _check_tower(tower_from_dict(_fixture(name)))
    _check_m0(tetragonal_from_dict(_fixture("tetragonal_m0_g2.json")))

    forward = _fixture("forward_special_g3.json")
    tower = tower_from_dict(forward["tower"])
    _check_tower(tower)
    result = construct(tower)
    for field, cover in (
        ("sections_cover", result.sections),
        ("quotient_cover", result.quotient),
        ("orientation_cover", result.orientation),
    ):
        _same(cover, cover_from_dict(forward[field]))

    inverse = _fixture("inverse_m0_g2.json")
    result = invert(tetragonal_from_dict(inverse["source"]))
    _same(result.pairs_cover, cover_from_dict(inverse["pairs_cover"]))
    _same(result.trigonal_cover, cover_from_dict(inverse["trigonal_cover"]))
    _check_tower(validate_tower(result.pairs_cover, BlockSystem.from_pairs(inverse["blocks"])))

    pinned = _fixture("batch_pinned.json")
    for instance in pinned["instances"]:
        cfg = SampleConfig(genus=instance["genus"], mode=instance["mode"], seed=instance["seed"])
        _check_tower(sample_tower(cfg))


def test_derived_covers_equal_induced_covers_for_other_block_systems():
    special = _fixture("tower_special_g3.json")
    special["blocks"] = [[2, 1], [4, 3], [6, 5]]
    tower = tower_from_dict(special)
    assert tower.blocks == CANONICAL_BLOCKS
    _check_tower(tower)
    # the same towers relabelled onto every other pairing of the sheets
    for name in ("tower_etale_g3.json", "tower_general_g3.json", "tower_special_g3.json"):
        tower = tower_from_dict(_fixture(name))
        for blocks in BLOCK_SYSTEMS:
            rho = dict(zip(itertools.chain(*CANONICAL_BLOCKS), itertools.chain(*blocks)))
            moved = BranchedCover.from_pairs(
                6,
                (
                    (label, Permutation(tuple(rho[p(s)] for s in sorted(rho, key=rho.get))))
                    for label, p in tower.cover.entries()
                ),
            )
            relabelled = validate_tower(moved, blocks)
            assert (relabelled.mode, relabelled.genus) == (tower.mode, tower.genus)
            _check_tower(relabelled)


# -- a cover outside the group still lists every failing label ------------------

SWAP_23 = Permutation((1, 3, 2, 4, 5, 6))  # tears the blocks (1,2) and (3,4)
TORN_ERRORS = [
    "monodromy at 'h03' does not preserve the blocks: point (1, 2) maps to (1, 3), which is not a point",
    "monodromy at 'h04' does not preserve the blocks: point (1, 2) maps to (1, 3), which is not a point",
]


def _torn_document():
    """The etale fixture with two adjacent block-tearing entries, which
    multiply to the identity, after its second entry."""
    entries = [p for _, p in tower_from_dict(_fixture("tower_etale_g3.json")).cover.entries()]
    entries[2:2] = [SWAP_23, SWAP_23]
    return BranchedCover.from_pairs(6, ((f"h{i:02d}", p) for i, p in enumerate(entries, start=1)))


def test_entries_outside_the_block_group_are_all_listed_in_label_order():
    cover = _torn_document()
    for _ in range(2):
        with pytest.raises(TowerValidationError) as err:
            validate_tower(cover, CANONICAL_BLOCKS)
        assert err.value.errors == TORN_ERRORS


def test_validate_prints_every_torn_label_and_exits_1(tmp_path, capsys):
    doc = tmp_path / "torn.json"
    doc.write_text(json.dumps(cover_with_blocks_to_dict(_torn_document(), CANONICAL_BLOCKS)))
    assert main(["validate", "--in", str(doc)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "".join(f"invalid: {line}\n" for line in TORN_ERRORS)

"""The sections construction: eight transversals, the complementing
involution, and the two quotients, checked against the hand fixtures
and against the local monodromy dictionary."""
import dataclasses

import pytest

from trigonal import (
    BranchedCover,
    Permutation,
    TetragonalCover,
    arithmetic_genus,
    component_tetragonal,
    compose,
    conjugate,
    construct,
    genus,
    sections_action,
    validate_tower,
    verify_predictions,
)
from trigonal.groups import transversal_sheets

from conftest import BLOCK_GROUP, CANONICAL_BLOCKS
from test_towers import ETALE_COVER, GENERAL_COVER, SPECIAL_COVER

ETALE = validate_tower(ETALE_COVER, CANONICAL_BLOCKS)
SPECIAL = validate_tower(SPECIAL_COVER, CANONICAL_BLOCKS)
GENERAL = validate_tower(GENERAL_COVER, CANONICAL_BLOCKS)


def test_transversals_enumerate_lexicographically():
    # transversal t is the one at position t - 1
    ts = transversal_sheets(CANONICAL_BLOCKS)
    assert len(set(ts)) == 8
    assert list(ts) == sorted(ts)
    assert ts[0] == (1, 3, 5)
    assert ts[1] == (1, 3, 6)
    assert ts[6] == (2, 4, 5)
    assert ts[7] == (2, 4, 6)


# -- the local dictionary (one entry per local type) -------------------------

def test_block_transposition_lifts_to_two_double_points():
    # etale lift of a block transposition: profile (2,2,1,1,1,1) upstairs
    action = sections_action(Permutation((3, 4, 1, 2, 5, 6)), CANONICAL_BLOCKS)
    assert action.cycle_type() == (2, 2, 1, 1, 1, 1)


def test_block_three_cycle_lifts_to_two_triple_points():
    # etale lift of a block 3-cycle: profile (3,3,1,1)
    action = sections_action(Permutation((3, 4, 5, 6, 1, 2)), CANONICAL_BLOCKS)
    assert action.cycle_type() == (3, 3, 1, 1)


def test_single_flip_acts_freely_on_transversals():
    # weight-1 flip: profile (2,2,2,2) upstairs, (2,2) on the quotient
    from trigonal.groups import quotient_action

    action = sections_action(Permutation((2, 1, 3, 4, 5, 6)), CANONICAL_BLOCKS)
    assert action.cycle_type() == (2, 2, 2, 2)
    assert quotient_action(action).cycle_type() == (2, 2)


def test_weight_two_flip_acts_freely_and_survives_the_quotient():
    from trigonal.groups import quotient_action

    action = sections_action(Permutation((2, 1, 4, 3, 5, 6)), CANONICAL_BLOCKS)
    assert action.cycle_type() == (2, 2, 2, 2)
    assert quotient_action(action).cycle_type() == (2, 2)


def test_weight_three_flip_is_the_involution():
    from trigonal.groups import quotient_action

    action = sections_action(Permutation((2, 1, 4, 3, 6, 5)), CANONICAL_BLOCKS)
    assert action.images == (8, 7, 6, 5, 4, 3, 2, 1)
    assert quotient_action(action).is_identity()


def test_sections_action_is_a_homomorphism_on_the_fixture():
    assert len(BLOCK_GROUP) == 48
    assert set(SPECIAL_COVER.monodromy) <= set(BLOCK_GROUP)
    for p in BLOCK_GROUP:
        for q in BLOCK_GROUP:
            assert sections_action(compose(p, q), CANONICAL_BLOCKS) == compose(
                sections_action(p, CANONICAL_BLOCKS), sections_action(q, CANONICAL_BLOCKS)
            )


def test_sections_action_commutes_with_the_involution_on_the_block_group():
    from trigonal.groups import INVOLUTION as involution

    for p in BLOCK_GROUP:
        action = sections_action(p, CANONICAL_BLOCKS)
        assert compose(action, involution) == compose(involution, action)


def test_quotient_action_rejects_a_permutation_not_commuting_with_the_involution():
    from trigonal.groups import INVOLUTION as involution
    from trigonal.groups import quotient_action

    swap = Permutation.from_cycles(8, [(1, 2)])
    assert compose(swap, involution) != compose(involution, swap)
    with pytest.raises(ValueError, match="not a point"):
        quotient_action(swap)


def test_sections_action_moves_transversals_as_sheet_sets():
    ts = list(enumerate(transversal_sheets(CANONICAL_BLOCKS), start=1))
    by_set = {frozenset(sheets): t for t, sheets in ts}
    for p in BLOCK_GROUP:
        action = sections_action(p, CANONICAL_BLOCKS)
        assert all(action(t) == by_set[frozenset(map(p, sheets))] for t, sheets in ts)


# -- the three fixture constructions -----------------------------------------

def test_involution_complements_and_commutes():
    result = construct(GENERAL)
    assert result.involution.images == (8, 7, 6, 5, 4, 3, 2, 1)
    assert all(result.involution(t) != t for t in range(1, 9))
    for label in result.sections.labels:
        perm = result.sections.perm_at(label)
        assert compose(result.involution, perm) == compose(perm, result.involution)


def test_general_fixture_numbers():
    result = construct(GENERAL)
    assert genus(result.sections) == 7  # 2g+1
    assert result.sections.total_ramification() == 28  # 4g+16
    assert genus(result.quotient) == 4  # g+1
    assert genus(result.orientation) == 0
    assert result.nodes is None
    report = verify_predictions(GENERAL, result)
    assert report.passed, report.failures()


def test_special_fixture_numbers():
    result = construct(SPECIAL)
    parts = result.sections.components
    assert len(parts) == 2
    assert [genus(p.cover) for p in parts] == [3, 3]
    assert [p.cover.total_ramification() for p in parts] == [12, 12]  # 2g+6
    assert result.nodes is not None
    assert len(result.nodes.sections.nodes) == 2
    assert len(result.nodes.quotient.nodes) == 1
    assert len(result.nodes.orientation.nodes) == 1
    assert arithmetic_genus(result.nodes.sections) == 7  # 2g+1
    assert arithmetic_genus(result.nodes.quotient) == 4  # g+1
    assert arithmetic_genus(result.nodes.orientation) == 0
    report = verify_predictions(SPECIAL, result)
    assert report.passed, report.failures()


def test_special_nodes_are_swapped_by_the_involution():
    result = construct(SPECIAL)
    (a1, b1), (a2, b2) = result.nodes.sections.nodes
    swapped = {a1.mapped(result.involution), b1.mapped(result.involution)}
    assert swapped == {a2, b2}


def test_etale_fixture_numbers():
    result = construct(ETALE)
    parts = result.sections.components
    assert len(parts) == 2
    assert [genus(p.cover) for p in parts] == [2, 2]  # g-1
    assert result.nodes is None
    report = verify_predictions(ETALE, result)
    assert report.passed, report.failures()


def test_sheet_maps_commute_with_the_monodromy():
    result = construct(SPECIAL)
    for label in result.sections.labels:
        up = result.sections.perm_at(label)
        down = result.quotient.perm_at(label)
        for t in range(1, 9):
            assert result.to_quotient[up(t) - 1] == down(result.to_quotient[t - 1])


def test_orientation_branches_exactly_at_odd_flip_weight():
    general = construct(GENERAL)
    assert set(general.orientation.labels) == {"f1", "f2"}
    special = construct(SPECIAL)
    # the weight-2 flip has even weight: orientation cover unbranched there
    assert special.orientation.labels == ()
    etale = construct(ETALE)
    assert etale.orientation.labels == ()


def test_component_tetragonal_of_special_is_one_marked():
    result = construct(SPECIAL)
    tet = TetragonalCover(component_tetragonal(result))
    assert tet.stratum == "m1"
    assert tet.genus == 3
    profiles = [tet.cover.perm_at(label).cycle_type() for label in tet.cover.labels]
    assert profiles.count((2, 2)) == 1


def test_component_tetragonal_rejects_connected_sections():
    with pytest.raises(ValueError):
        component_tetragonal(construct(GENERAL))


def test_verify_predictions_reports_failures_without_raising():
    # run the special predictions against the etale construction: several
    # checks must fail, none may escape as an exception
    report = verify_predictions(SPECIAL, construct(ETALE))
    assert not report.passed
    assert report.failures()


@pytest.mark.parametrize(
    "entries, detail",
    [
        # one (2,2) label where a general tower's quotient has two
        (
            [
                ("f2", [(1, 2), (3, 4)]),
                ("h01", [(1, 2)]),
                ("h02", [(3, 4)]),
                ("h03", [(1, 3)]),
                ("h04", [(1, 3)]),
            ],
            "(2,2) at ['f2']",
        ),
        # two (2,2) labels, but beside a (4) label fixing no sheet
        (
            [
                ("h01", [(1, 2, 3, 4)]),
                ("f2", [(1, 2), (3, 4)]),
                ("f1", [(1, 3), (2, 4)]),
                ("h02", [(1, 3)]),
            ],
            "(2,2) at ['f2', 'f1']",
        ),
    ],
)
def test_quotient_two_double_double_labels_fails_on_a_wrong_quotient(entries, detail):
    quotient = BranchedCover.from_pairs(
        4, [(label, Permutation.from_cycles(4, cycles)) for label, cycles in entries]
    )
    result = dataclasses.replace(construct(GENERAL), quotient=quotient)
    checks = verify_predictions(GENERAL, result).checks
    (check,) = [c for c in checks if c.name == "quotient-two-double-double-labels"]
    assert not check.passed
    assert check.detail == detail


def test_diagram_commutes_names_the_first_four_broken_squares():
    # sheet maps that send transversal 1 to the wrong involution class and
    # the wrong parity class: squares break at several labels, reported in
    # label/t order, quotient before orientation, the detail keeping four
    result = dataclasses.replace(
        construct(GENERAL),
        to_quotient=(3, 2, 3, 4, 4, 3, 2, 1),
        to_orientation=(2, 2, 2, 1, 2, 1, 1, 2),
    )
    (check,) = [c for c in verify_predictions(GENERAL, result).checks if c.name == "diagram-commutes"]
    assert not check.passed
    assert check.detail == (
        "quotient square breaks at h01/1; quotient square breaks at h02/1; "
        "orientation square breaks at h02/1; quotient square breaks at h02/7"
    )


def test_diagram_commutes_fails_on_a_relabeled_sections_cover():
    # the sections cover conjugated by the sheet transposition (1 2) is
    # isomorphic to the tower's image but is not it: the squares under
    # the result's sheet maps no longer commute
    result = construct(GENERAL)
    swap = Permutation.from_cycles(8, [(1, 2)])
    sections = BranchedCover.from_pairs(
        8, [(label, conjugate(perm, swap)) for label, perm in result.sections.entries()]
    )
    result = dataclasses.replace(result, sections=sections)
    (check,) = [c for c in verify_predictions(GENERAL, result).checks if c.name == "diagram-commutes"]
    assert not check.passed

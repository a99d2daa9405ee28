"""Branched covers: genus bookkeeping, components, points, nodal models,
and the conjugation-search isomorphism test."""
import gc
import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from trigonal import (
    BranchedCover,
    CoverPoint,
    NodalCoverModel,
    Permutation,
    arithmetic_genus,
    conjugate,
    construct,
    expected_inverse,
    genus,
    iter_isomorphisms,
    label_cycles,
    nodal_isomorphisms,
)
from trigonal import covers
from trigonal.jsonio import cover_from_dict, tower_from_dict

from conftest import disconnected_covers, permutations, product_one_tuples, transitive_covers


def two_sheet_cover(transposition_count):
    flip = Permutation((2, 1))
    return BranchedCover.from_pairs(
        2, [(f"w{i}", flip) for i in range(transposition_count)]
    )


def test_cover_validation():
    flip = Permutation((2, 1))
    with pytest.raises(ValueError):
        BranchedCover.from_pairs(2, [("a", flip), ("a", flip)])  # duplicate label
    with pytest.raises(ValueError):
        BranchedCover.from_pairs(2, [("a", Permutation.identity(2))])
    with pytest.raises(ValueError):
        BranchedCover.from_pairs(3, [("a", flip)])  # degree mismatch
    with pytest.raises(ValueError):
        BranchedCover.from_pairs(2, [("a", flip), ("b", flip), ("c", flip)])  # product


def test_cached_orbits_leave_equality_and_hashing_alone():
    flip, shift = Permutation((2, 1, 3, 4)), Permutation((1, 2, 4, 3))
    entries = [("a", flip), ("b", shift), ("c", shift), ("d", flip)]
    first, second = BranchedCover.from_pairs(4, entries), BranchedCover.from_pairs(4, entries)
    assert first.orbits == ((1, 2), (3, 4))
    assert not first.is_connected()
    assert "orbits" not in vars(second)
    assert first == second and hash(first) == hash(second)
    assert [c.sheets for c in first.components] == [(1, 2), (3, 4)]
    assert first.perm_at("a") is flip
    # with every cache filled on one side only, == and hash still agree
    assert first == second and hash(first) == hash(second)
    assert first.components is first.components


def test_orbits_cache_takes_no_shared_lock():
    # orbits, components and the label dict are per-instance
    # functools.cached_property values: out of the instance dict until
    # first read, and filling one cover's caches fills no other's
    flip, shift = Permutation((2, 1, 3, 4)), Permutation((1, 2, 4, 3))
    entries = [("a", flip), ("b", shift), ("c", shift), ("d", flip)]
    first, second = BranchedCover.from_pairs(4, entries), BranchedCover.from_pairs(4, entries)
    cached = ("orbits", "components", "_by_label")
    assert not set(cached) & set(vars(first))
    first.orbits, first.components, first.perm_at("a")
    assert set(cached) <= set(vars(first))
    assert not set(cached) & set(vars(second))


def test_hyperelliptic_genus():
    # 2g+2 simple branch points on a double cover give genus g
    for g in range(0, 5):
        assert genus(two_sheet_cover(2 * g + 2)) == g


def test_trigonal_genus_from_ten_transpositions():
    t12 = Permutation.from_cycles(3, [(1, 2)])
    t13 = Permutation.from_cycles(3, [(1, 3)])
    t23 = Permutation.from_cycles(3, [(2, 3)])
    perms = [t12, t12, t13, t13, t23, t23, t12, t12, t13, t13]
    cover = BranchedCover.from_pairs(3, [(f"w{i}", p) for i, p in enumerate(perms)])
    assert cover.is_connected()
    assert cover.total_ramification() == 10
    assert genus(cover) == 3


def test_genus_demands_connected_cover():
    flip = Permutation((2, 1, 4, 3))
    cover = BranchedCover.from_pairs(4, [("a", flip), ("b", flip)])
    assert not cover.is_connected()
    with pytest.raises(ValueError):
        genus(cover)


def test_perm_at_defaults_to_identity():
    cover = two_sheet_cover(2)
    assert cover.perm_at("w0").images == (2, 1)
    assert cover.perm_at("absent").is_identity()


@given(transitive_covers(5))
def test_perm_at_agrees_with_the_label_scan_or_a_fresh_identity(cover):
    for label in cover.labels + ("p00", "absent"):
        if label in cover.labels:
            expected = cover.monodromy[cover.labels.index(label)]
        else:
            expected = Permutation(tuple(range(1, cover.degree + 1)))
        assert cover.perm_at(label) == expected
    # a label the cover is not branched over gets the one memoized identity
    assert cover.perm_at("absent") is Permutation.identity(cover.degree)


@given(transitive_covers(6))
def test_memoized_total_ramification_matches_the_cycle_count(cover):
    for _ in range(2):  # the second pass reads the memo
        assert cover.total_ramification() == sum(
            cover.degree - len(p.cycles(include_fixed=True)) for p in cover.monodromy
        )


def test_ramification_profile():
    cover = BranchedCover.from_pairs(
        4,
        [
            ("a", Permutation.from_cycles(4, [(1, 2, 3)])),
            ("b", Permutation.from_cycles(4, [(1, 3, 2)])),
        ],
    )
    assert cover.perm_at("a").cycle_type() == (3, 1)
    assert cover.perm_at("absent").cycle_type() == (1, 1, 1, 1)


def test_components_split_and_restrict():
    flip = Permutation((2, 1, 4, 3))
    other = Permutation((2, 1, 3, 4))
    cover = BranchedCover.from_pairs(
        4, [("a", flip), ("b", other), ("c", other), ("d", flip)]
    )
    parts = cover.components
    assert [part.sheets for part in parts] == [(1, 2), (3, 4)]
    first = parts[0].cover
    assert first.degree == 2 and set(first.labels) == {"a", "b", "c", "d"}
    # the second orbit sees only the (3 4) action of the flips
    second = parts[1].cover
    assert set(second.labels) == {"a", "d"}
    assert genus(second) == 0
    assert parts[1].to_parent(1) == 3 and parts[1].from_parent(4) == 2


def test_cover_points_canonicalize_rotation():
    assert CoverPoint("a", (3, 1, 2)) == CoverPoint("a", (1, 2, 3))
    assert CoverPoint("a", (2, 3, 1)).cycle == (1, 2, 3)
    assert CoverPoint("a", (5,)).ramification_index == 1
    assert CoverPoint("a", (1, 2, 3)).ramification_index == 3
    mapped = CoverPoint("a", (1, 2)).mapped(Permutation((3, 4, 1, 2)))
    assert mapped == CoverPoint("a", (3, 4))


def test_a_cover_point_is_a_validated_tuple():
    point = CoverPoint("b", [4, 2, 3])
    assert point.label == "b" and point.cycle == (2, 3, 4)
    assert point == ("b", (2, 3, 4)) and tuple(point) == ("b", (2, 3, 4))
    rotated = CoverPoint("b", (3, 4, 2))
    assert rotated == point and hash(rotated) == hash(point)
    assert repr(CoverPoint("b", (3,))) == "CoverPoint(label='b', cycle=(3,))"
    with pytest.raises(ValueError, match=r"^a cover point needs a non-empty cycle$"):
        CoverPoint("b", ())
    with pytest.raises(ValueError, match=r"^repeated sheet in cycle \(1, 2, 1\)$"):
        CoverPoint("b", (1, 2, 1))
    with pytest.raises(AttributeError):
        point.cycle = (1,)
    with pytest.raises(AttributeError):
        point.weight = 1


def test_label_cycles_and_fiber_points():
    cover = BranchedCover.from_pairs(
        3,
        [
            ("a", Permutation.from_cycles(3, [(1, 2)])),
            ("b", Permutation.from_cycles(3, [(1, 2)])),
        ],
    )
    assert label_cycles(cover, "a") == ((1, 2), (3,))
    assert label_cycles(cover, "zz") == ((1,), (2,), (3,))


def test_arithmetic_genus_counts_nodes_and_components():
    flip = Permutation((2, 1, 4, 3))
    other = Permutation((2, 1, 3, 4))
    cover = BranchedCover.from_pairs(
        4, [("a", flip), ("b", other), ("c", other), ("d", flip)]
    )
    parts = cover.components
    assert [genus(part.cover) for part in parts] == [1, 0]
    # genus-1 and genus-0 components glued at two points: p_a = 1 + 0 + 2 - 2 + 1
    nodes = (
        (CoverPoint("a", (1, 2)), CoverPoint("a", (3, 4))),
        (CoverPoint("d", (1, 2)), CoverPoint("d", (3, 4))),
    )
    model = NodalCoverModel(cover, nodes)
    assert arithmetic_genus(model) == 2
    assert arithmetic_genus(NodalCoverModel(cover, nodes[:1])) == 1
    assert arithmetic_genus(NodalCoverModel(cover, ())) == 0


def test_nodal_model_rejects_reused_points():
    cover = two_sheet_cover(4)
    p = CoverPoint("w0", (1, 2))
    q = CoverPoint("w1", (1, 2))
    r = CoverPoint("w2", (1, 2))
    with pytest.raises(ValueError):
        NodalCoverModel(cover, ((p, p),))
    with pytest.raises(ValueError):
        NodalCoverModel(cover, ((p, q), (p, r)))
    with pytest.raises(ValueError):
        NodalCoverModel(cover, ((p, CoverPoint("w9", (1, 2))),))  # label off the cover
    with pytest.raises(ValueError):
        NodalCoverModel(cover, ((p, CoverPoint("w1", (1,))),))  # not a fibre cycle


def test_nodal_model_error_messages():
    flip = Permutation((2, 1, 3, 4))
    cover = BranchedCover.from_pairs(4, [("a", flip), ("b", flip)])
    p, q, r = (CoverPoint("u", (sheet,)) for sheet in (1, 2, 3))  # over an unbranched label
    with pytest.raises(ValueError, match=r"^node endpoints over different labels: 'a', 'u'$"):
        NodalCoverModel(cover, ((CoverPoint("a", (3,)), p),))
    with pytest.raises(ValueError, match=r"^node glues a point to itself: CoverPoint\(label='u', cycle=\(1,\)\)$"):
        NodalCoverModel(cover, ((p, p),))
    with pytest.raises(
        ValueError, match=r"^CoverPoint\(label='a', cycle=\(1,\)\) is not a fibre point of the normalization$"
    ):
        NodalCoverModel(cover, ((CoverPoint("a", (1,)), CoverPoint("a", (3,))),))
    with pytest.raises(
        ValueError, match=r"^CoverPoint\(label='a', cycle=\(2,\)\) is not a fibre point of the normalization$"
    ):
        NodalCoverModel(cover, ((CoverPoint("a", (3,)), CoverPoint("a", (2,))),))  # the second end too
    with pytest.raises(ValueError, match=r"^CoverPoint\(label='u', cycle=\(1,\)\) appears in two nodes$"):
        NodalCoverModel(cover, ((p, q), (p, r)))
    assert NodalCoverModel(cover, ((p, q), (CoverPoint("a", (1, 2)), CoverPoint("a", (3,))))).node_set() == {
        frozenset((p, q)),
        frozenset((("a", (1, 2)), ("a", (3,)))),
    }


def _arithmetic_genus_by_components(model):
    parts = model.normalization.components
    return sum(genus(part.cover) for part in parts) + len(model.nodes) - len(parts) + 1


def test_arithmetic_genus_sums_component_genera_on_connected_and_split_normalizations(fixture_doc):
    nodes = construct(tower_from_dict(fixture_doc("tower_special_g3.json"))).nodes
    models = [nodes.sections, nodes.quotient, nodes.orientation]
    for mode in ("general", "special", "etale"):
        glued = expected_inverse(tower_from_dict(fixture_doc(f"tower_{mode}_g3.json")))
        models += [glued.trigonal_model, glued.double_model]
    flip, other = Permutation((2, 1, 4, 3)), Permutation((2, 1, 3, 4))
    split = BranchedCover.from_pairs(4, [("a", flip), ("b", other), ("c", other), ("d", flip)])
    models += [NodalCoverModel(split), NodalCoverModel(BranchedCover(3, (), ()))]
    assert {model.normalization.is_connected() for model in models} == {True, False}
    for model in models:
        assert arithmetic_genus(model) == _arithmetic_genus_by_components(model)
    # the special tower's split sections curve, its quotient and its orientation cover
    assert [arithmetic_genus(model) for model in models[:3]] == [7, 4, 0]


@given(transitive_covers(4))
def test_connected_cover_genus_is_a_nonnegative_integer(cover):
    assert genus(cover) >= 0


@given(transitive_covers(5), permutations(5))
def test_conjugate_covers_are_isomorphic(cover, rho):
    twisted = BranchedCover.from_pairs(
        cover.degree,
        [(label, conjugate(perm, rho)) for label, perm in zip(cover.labels, cover.monodromy)],
    )
    iso = next(iter_isomorphisms(cover, twisted), None)
    assert iso is not None
    for label in cover.labels:
        assert conjugate(cover.perm_at(label), iso) == twisted.perm_at(label)


def test_isomorphism_requires_matching_labels():
    a = two_sheet_cover(2)
    flip = Permutation((2, 1))
    b = BranchedCover.from_pairs(2, [("x", flip), ("y", flip)])
    with pytest.raises(ValueError):
        next(iter_isomorphisms(a, b), None)


def test_isomorphism_distinguishes_cycle_structure():
    t12 = Permutation.from_cycles(3, [(1, 2)])
    t13 = Permutation.from_cycles(3, [(1, 3)])
    t23 = Permutation.from_cycles(3, [(2, 3)])
    a = BranchedCover.from_pairs(3, [("u", t12), ("v", t12), ("w", t13), ("x", t13)])
    b = BranchedCover.from_pairs(3, [("u", t12), ("v", t23), ("w", t23), ("x", t12)])
    assert next(iter_isomorphisms(a, a), None) is not None
    # same labelwise profiles, but no single conjugation aligns all four
    assert next(iter_isomorphisms(a, b), None) is None


def test_nodal_isomorphism_must_respect_nodes():
    flip = Permutation((2, 1, 4, 3))
    other = Permutation((2, 1, 3, 4))
    cover = BranchedCover.from_pairs(
        4, [("a", flip), ("b", other), ("c", other), ("d", flip)]
    )
    nodes = ((CoverPoint("b", (3,)), CoverPoint("b", (4,))),)
    model = NodalCoverModel(cover, nodes)
    same = next(nodal_isomorphisms(model, model), None)
    assert same is not None
    shifted = NodalCoverModel(
        cover, ((CoverPoint("c", (3,)), CoverPoint("c", (4,))),)
    )
    assert next(nodal_isomorphisms(model, shifted), None) is None


def test_isomorphism_search_leaves_no_cyclic_garbage(fixture_doc):
    cover = cover_from_dict(fixture_doc("tetragonal_m0_g2.json"))
    gc.collect()
    gc.disable()
    try:
        assert next(iter_isomorphisms(cover, cover), None) is not None
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_first_relabeling_propagates_from_fewer_targets_than_the_degree(fixture_doc, monkeypatch):
    cover = cover_from_dict(fixture_doc("tetragonal_m0_g2.json"))
    targets = []
    propagate = covers._propagate

    def counted(pairs, start, target):
        targets.append(target)
        return propagate(pairs, start, target)

    monkeypatch.setattr(covers, "_propagate", counted)
    assert cover.is_connected() and next(iter_isomorphisms(cover, cover)).is_identity()
    assert targets == [1] and len(targets) < cover.degree
    # the full list still tries every target once, and is the brute-force list
    targets.clear()
    assert list(iter_isomorphisms(cover, cover)) == _brute_force(cover, cover)
    assert targets == list(range(1, cover.degree + 1))


def _relabel(cover, rho):
    return BranchedCover.from_pairs(
        cover.degree, [(label, conjugate(perm, rho)) for label, perm in cover.entries()]
    )


def _covers(degree):
    """Connected covers, the zero-label cover and, from degree 4 on, two
    components side by side."""
    kinds = [transitive_covers(degree), st.just(BranchedCover(degree, (), ()))]
    if degree >= 4:
        kinds.append(disconnected_covers(degree))
    return st.one_of(kinds)


@st.composite
def _cover_pairs(draw, pairing):
    degree = draw(st.integers(2, 6))
    first = draw(_covers(degree))
    if pairing == "self":
        return first, first
    if pairing == "conjugated":
        return first, _relabel(first, draw(permutations(degree)))
    # the second cover is drawn over the first's labels, so the search
    # compares covers over one label set without filtering draws
    if not first.labels:
        return first, BranchedCover(degree, (), ())
    entries = draw(product_one_tuples(degree, len(first.labels)))
    return first, BranchedCover(degree, first.labels, tuple(entries))


@st.composite
def _node_markers(draw, cover):
    """Up to three nodes over the cover's labels or the unbranched label
    ``q``, no fibre point in two."""
    nodes, used = [], set()
    for label in draw(st.lists(st.sampled_from(cover.labels + ("q",)), max_size=3)):
        points = (CoverPoint(label, cycle) for cycle in label_cycles(cover, label))
        free = [p for p in points if p not in used]
        if len(free) >= 2:
            pair = tuple(draw(st.lists(st.sampled_from(free), min_size=2, max_size=2, unique=True)))
            used.update(pair)
            nodes.append(pair)
    return NodalCoverModel(cover, tuple(nodes))


def _brute_force(first, second):
    """Every relabeling of the sheets, in lexicographic order of image
    tuples, that conjugates the first cover's entries onto the second's."""
    return [
        rho
        for rho in map(Permutation, itertools.permutations(range(1, first.degree + 1)))
        if all(conjugate(s, rho) == t for s, t in zip(first.monodromy, second.monodromy))
    ]


PAIRINGS = ("conjugated", "self", "independent")


@pytest.mark.parametrize("pairing", PAIRINGS)
@given(data=st.data())
def test_isomorphism_search_yields_the_brute_force_list_in_order(pairing, data):
    first, second = data.draw(_cover_pairs(pairing))
    assert list(iter_isomorphisms(first, second)) == _brute_force(first, second)


@pytest.mark.parametrize("degree", range(1, 7))
def test_every_relabeling_is_an_automorphism_of_the_zero_label_cover(degree):
    cover = BranchedCover(degree, (), ())
    everything = list(map(Permutation, itertools.permutations(range(1, degree + 1))))
    assert list(iter_isomorphisms(cover, cover)) == everything


@pytest.mark.parametrize("pairing", PAIRINGS)
@given(data=st.data())
def test_nodal_search_yields_the_brute_force_list_filtered_by_nodes(pairing, data):
    first, second = data.draw(_cover_pairs(pairing))
    model = data.draw(_node_markers(first))
    brute = _brute_force(first, second)
    if brute and data.draw(st.booleans()):
        # the image of the first model's nodes, so that some relabeling fits
        rho = data.draw(st.sampled_from(brute))
        other = NodalCoverModel(second, tuple((a.mapped(rho), b.mapped(rho)) for a, b in model.nodes))
    else:
        other = data.draw(_node_markers(second))
    want = other.node_set()
    expected = [
        rho
        for rho in brute
        if {frozenset(p.mapped(rho) for p in pair) for pair in model.nodes} == want
    ]
    assert list(nodal_isomorphisms(model, other)) == expected

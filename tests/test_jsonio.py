"""Canonical JSON: byte-stable fixtures, full parse/serialize cycles,
and schema conformance for every published document kind."""
import enum
import importlib.util
import json
from collections import OrderedDict
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given
from hypothesis import strategies as st
from referencing import Registry, Resource

from trigonal import (
    SampleConfig,
    TetragonalCover,
    construct,
    invert,
    run_batch,
    sample_tetragonal,
    sample_tower,
    spread_configs,
)
from trigonal import jsonio
from trigonal.covers import CoverPoint
from trigonal.sampling import SAMPLE_KINDS, SAMPLE_M0
from trigonal.jsonio import (
    batch_report_to_dict,
    check_report_to_dict,
    cover_from_dict,
    cover_to_dict,
    dumps_canonical,
    forward_result_to_dict,
    inverse_result_to_dict,
    load_schema,
    perm_from_cycles,
    point_to_ref,
    tetragonal_from_dict,
    tower_from_dict,
    tower_to_dict,
)

TOWER_FIXTURES = ["tower_etale_g3.json", "tower_special_g3.json", "tower_general_g3.json"]
ALL_FIXTURES = TOWER_FIXTURES + [
    "tetragonal_m0_g2.json",
    "forward_special_g3.json",
    "inverse_m0_g2.json",
    "batch_pinned.json",
]

SCHEMA_NAMES = ["cover", "tower", "forward_result", "inverse_result", "batch_report"]


@pytest.fixture(scope="module")
def validator():
    schemas = {name: load_schema(name) for name in SCHEMA_NAMES}
    registry = Registry().with_resources(
        (f"{name}.schema.json", Resource.from_contents(schemas[name]))
        for name in SCHEMA_NAMES
    )

    def validate(name, payload):
        jsonschema.Draft202012Validator(schemas[name], registry=registry).validate(payload)

    return validate


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_fixture_bytes_are_canonical(name, fixture_text):
    text = fixture_text(name)
    assert dumps_canonical(json.loads(text)) == text


@pytest.mark.parametrize("name", TOWER_FIXTURES)
def test_tower_fixtures_parse_and_reserialize_identically(name, fixture_text):
    text = fixture_text(name)
    tower = tower_from_dict(json.loads(text))
    assert dumps_canonical(tower_to_dict(tower)) == text


def test_tetragonal_fixture_parses_and_reserializes(fixture_text):
    text = fixture_text("tetragonal_m0_g2.json")
    tet = tetragonal_from_dict(json.loads(text))
    assert tet.stratum == "m0" and tet.genus == 2
    assert dumps_canonical(cover_to_dict(tet.cover)) == text


def test_result_fixtures_regenerate_byte_identically(fixture_text, fixture_doc):
    special = tower_from_dict(fixture_doc("tower_special_g3.json"))
    regenerated = dumps_canonical(forward_result_to_dict(construct(special)))
    assert regenerated == fixture_text("forward_special_g3.json")

    tet = tetragonal_from_dict(fixture_doc("tetragonal_m0_g2.json"))
    regenerated = dumps_canonical(inverse_result_to_dict(invert(tet)))
    assert regenerated == fixture_text("inverse_m0_g2.json")


def test_make_fixtures_regenerates_every_fixture_byte_identically(fixture_text):
    script = Path(__file__).resolve().parent.parent / "scripts" / "make_fixtures.py"
    spec = importlib.util.spec_from_file_location("make_fixtures", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    documents = module.documents()
    assert sorted(documents) == sorted(ALL_FIXTURES)
    for name, payload in documents.items():
        assert dumps_canonical(payload) == fixture_text(name), name


def test_batch_fixture_regenerates_byte_identically(fixture_text):
    report = run_batch(
        "general-props", spread_configs("general-props", 4, 20260822, 3, 6), jobs=1
    )
    assert dumps_canonical(batch_report_to_dict(report)) == fixture_text("batch_pinned.json")


def test_cover_parser_rejects_malformed_documents():
    with pytest.raises(ValueError):
        cover_from_dict({"branch_points": []})
    with pytest.raises(ValueError):
        cover_from_dict({"degree": "six", "branch_points": []})
    with pytest.raises(ValueError):
        tower_from_dict({"degree": 6, "branch_points": []})  # no blocks


@pytest.mark.parametrize(
    "key, shown",
    [
        (frozenset(), "frozenset()"),
        ((1,), "(1,)"),
        (1, "1"),
        (None, "None"),
        ("genus", '"genus"'),
        ("\u00e9", '"\\u00e9"'),
    ],
)
def test_unknown_keys_are_refused_by_repr_unless_they_are_strings(key, shown):
    with pytest.raises(ValueError) as err:
        cover_from_dict({"degree": 4, "branch_points": [], key: 1})
    assert str(err.value) == f"document: unknown key {shown}"
    point = {"label": "b1", "monodromy": [[1, 2]], key: 0}
    with pytest.raises(ValueError) as err:
        cover_from_dict({"degree": 4, "branch_points": [point]})
    assert str(err.value) == f"branch_points[0]: unknown key {shown}"


@pytest.mark.parametrize("label, cycle", [("h01", (1, 2)), ("h01", (1, 3, 5)), ("h02", (7,))])
def test_point_to_ref_rejects_a_point_not_over_its_label(fixture_doc, label, cycle):
    cover = tower_from_dict(fixture_doc("tower_special_g3.json")).cover
    point = CoverPoint(label, cycle)
    with pytest.raises(ValueError, match="is not a fibre point over") as err:
        point_to_ref(cover, point)
    assert repr(point.cycle) in str(err.value) and repr(label) in str(err.value)


def test_schema_validation_of_live_documents(validator):
    tower = sample_tower(SampleConfig(genus=3, mode="special", seed=77))
    validator("tower", tower_to_dict(tower))
    result = construct(tower)
    validator("forward_result", forward_result_to_dict(result))
    from trigonal import component_tetragonal

    tet = TetragonalCover(component_tetragonal(result))
    validator("cover", cover_to_dict(tet.cover))
    validator("inverse_result", inverse_result_to_dict(invert(tet)))
    report = run_batch("general-props", spread_configs("general-props", 2, 0, 3, 4))
    validator("batch_report", batch_report_to_dict(report))


def test_schema_validation_of_fixtures(validator, fixture_doc):
    for name in TOWER_FIXTURES:
        validator("tower", fixture_doc(name))
    validator("cover", fixture_doc("tetragonal_m0_g2.json"))
    validator("forward_result", fixture_doc("forward_special_g3.json"))
    validator("inverse_result", fixture_doc("inverse_m0_g2.json"))
    validator("batch_report", fixture_doc("batch_pinned.json"))


def test_schema_rejects_shape_violations(validator):
    with pytest.raises(jsonschema.ValidationError):
        validator("tower", {"degree": 5, "branch_points": [], "blocks": []})
    with pytest.raises(jsonschema.ValidationError):
        validator("cover", {"degree": 4})


def test_check_report_serialization():
    from trigonal import CheckReport, CheckResult

    report = CheckReport("demo", (CheckResult("a", True, ""), CheckResult("b", False, "why")))
    payload = check_report_to_dict(report)
    assert payload["passed"] is False
    assert [c["name"] for c in payload["checks"]] == ["a", "b"]
    # canonical dump is stable under parse/dump
    text = dumps_canonical(payload)
    assert dumps_canonical(json.loads(text)) == text


# -- the canonical writer against its reference -------------------------------

def reference_dumps(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def outcome(dumps, payload):
    """The text ``dumps`` writes, or the type and message it raises."""
    try:
        return dumps(payload)
    except (TypeError, ValueError) as err:
        return type(err), str(err)


TRICKY_TEXT = '"\\/\x00\x1f\x7f\u00e9\u2028\ud800\U0001f600 ab'
json_strings = st.text() | st.text(alphabet=TRICKY_TEXT)
json_scalars = (
    st.none()
    | st.booleans()
    | st.sampled_from([0, 1, -1, True, False])
    | st.integers()
    | st.integers(min_value=-(10**60), max_value=10**60)
    | st.floats(allow_nan=True, allow_infinity=True)
    | json_strings
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.lists(children)
    | st.lists(children).map(tuple)
    | st.dictionaries(json_strings, children),
    max_leaves=40,
)


@given(json_values)
def test_dumps_canonical_is_the_stdlib_indented_sorted_dump(payload):
    assert dumps_canonical(payload) == reference_dumps(payload)


class Sheet(enum.IntEnum):
    ONE = 1
    TWO = 2


class Label(str):
    pass


def self_containing_list():
    payload = [1]
    payload.append(payload)
    return payload


@pytest.mark.parametrize(
    "payload",
    [
        pytest.param({1: "a", 2: [1, 2]}, id="int-keys"),
        pytest.param({2: "a", True: "b", None: "c"}, id="int-bool-none-keys"),
        pytest.param({1: "a", "b": 2}, id="mixed-keys"),
        pytest.param({"a": {(1, 2): 3}}, id="tuple-key"),
        pytest.param([Sheet.ONE, Sheet.TWO], id="intenum-items"),
        pytest.param({"sheet": Sheet.TWO, Sheet.ONE: [Sheet.TWO]}, id="intenum-key-and-value"),
        pytest.param(OrderedDict([("b", 1), ("a", [2])]), id="ordereddict"),
        pytest.param([OrderedDict()], id="empty-ordereddict"),
        pytest.param(Label("h01"), id="str-subclass"),
        pytest.param({Label("b"): Label("x"), "a": [Label("y")]}, id="str-subclass-key"),
        pytest.param([1, 2.5, float("nan"), float("inf"), -float("inf")], id="floats"),
        pytest.param([[1, True], [0, False]], id="bools-beside-ints"),
        pytest.param(object(), id="unserializable"),
        pytest.param({"a": [1, {2, 3}]}, id="nested-set"),
        pytest.param(self_containing_list(), id="circular"),
        pytest.param(10**5000, id="int-past-digit-limit"),
        pytest.param([1, 10**5000], id="int-list-past-digit-limit"),
    ],
)
def test_dumps_canonical_matches_the_stdlib_outside_plain_json(payload):
    assert outcome(dumps_canonical, payload) == outcome(reference_dumps, payload)


def test_dumps_canonical_leaves_a_too_deep_payload_to_the_stdlib():
    deep = []
    for _ in range(5000):
        deep = [deep]
    with pytest.raises(RecursionError):
        dumps_canonical(deep)


# -- the cycles memos ---------------------------------------------------------

def sampled_documents():
    """The cover or tower document of a sampled instance of every kind."""
    for mode in SAMPLE_KINDS:
        for genus in (2, 3, 5) if mode == SAMPLE_M0 else (3, 4, 7):
            cfg = SampleConfig(genus=genus, mode=mode, seed=genus)
            if mode == SAMPLE_M0:
                yield tetragonal_from_dict, cover_to_dict(sample_tetragonal(cfg).cover)
            else:
                yield tower_from_dict, tower_to_dict(sample_tower(cfg))


def warm_memos():
    """Store ``[[1, 2]]`` in both memos, as if a document had just used it;
    the decoder's entry has the degree of the malformed documents below."""
    dumps_canonical({"a": [[1, 2]], "b": [[[1, 2]]]})
    points = [{"label": label, "monodromy": [[1, 2]]} for label in ("a", "b")]
    cover_from_dict({"degree": 4, "branch_points": points})


@pytest.mark.parametrize(
    "payload",
    [
        pytest.param([[True, 2]], id="bool-sheet"),
        pytest.param([[1.0, 2]], id="float-sheet"),
        pytest.param([[Sheet.ONE, 2]], id="intenum-sheet"),
        pytest.param([(1, 2)], id="tuple-cycle"),
        pytest.param([[1, 2], []], id="empty-cycle"),
        pytest.param({"a": [[1, 2]], "b": {"c": [[1, 2]]}}, id="two-depths"),
        pytest.param([[[1, 2]], [[True, 2]]], id="nested-bool"),
    ],
)
def test_a_warm_writer_memo_keeps_the_stdlib_bytes(payload):
    warm_memos()
    assert jsonio._int_lists_text.cache_info().currsize > 0
    assert outcome(dumps_canonical, payload) == outcome(reference_dumps, payload)


int_or_bool_lists = st.recursive(
    st.lists(st.integers(-3, 3) | st.booleans(), max_size=4),
    lambda children: st.lists(children, max_size=4),
    max_leaves=20,
)


@given(int_or_bool_lists)
def test_dumps_canonical_of_nested_int_and_bool_lists_is_the_stdlib_dump(payload):
    warm_memos()
    for value in (payload, {"a": payload}):
        assert dumps_canonical(value) == reference_dumps(value)


@pytest.mark.parametrize(
    "monodromy, message",
    [
        ([[True, 2]], "branch_points[0].monodromy: expected lists of integer sheets, got [[True, 2]]"),
        ([[1.0, 2]], "branch_points[0].monodromy: expected lists of integer sheets, got [[1.0, 2]]"),
        ([[Sheet.ONE, 2]], "branch_points[0].monodromy: expected lists of integer sheets, got [[<Sheet.ONE: 1>, 2]]"),
        ([[1]], "branch_points[0].monodromy: a cycle needs two or more sheets, got [1]"),
        ([[1, 1]], "repeated sheet inside cycle (1, 1)"),
        ([[1, 5]], "sheet 5 outside 1..4"),
        ([[1, 2], [2, 3]], "sheet 2 appears in two cycles"),
    ],
)
def test_a_warm_decoder_memo_keeps_every_error(monodromy, message):
    warm_memos()
    assert perm_from_cycles.cache_info().hits > 0
    document = {"degree": 4, "branch_points": [{"label": "b1", "monodromy": monodromy}]}
    before = perm_from_cycles.cache_info().currsize
    for _ in range(2):
        with pytest.raises(ValueError) as err:
            cover_from_dict(document)
        assert str(err.value) == message
    assert perm_from_cycles.cache_info().currsize == before


def test_decode_then_encode_is_byte_identical_with_cold_and_warm_memos():
    documents = [(decode, dumps_canonical(payload)) for decode, payload in sampled_documents()]
    for memo in (jsonio._int_lists_text, perm_from_cycles):
        memo.cache_clear()
    for _ in range(2):  # cold, then warm
        for decode, text in documents:
            decoded = decode(json.loads(text))
            payload = tower_to_dict(decoded) if decode is tower_from_dict else cover_to_dict(decoded.cover)
            assert dumps_canonical(payload) == text
    labels = sum(len(json.loads(text)["branch_points"]) for _, text in documents)
    info = perm_from_cycles.cache_info()
    # every label goes through jsonio.perm_from_cycles, which test_cli replaces
    assert info.hits + info.misses == 2 * labels
    assert info.currsize == info.misses < labels

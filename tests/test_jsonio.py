"""Canonical JSON: byte-stable fixtures, full parse/serialize cycles,
and schema conformance for every published document kind."""
import importlib.util
import json
from pathlib import Path

import jsonschema
import pytest
from referencing import Registry, Resource

from trigonal import (
    SampleConfig,
    TetragonalCover,
    construct,
    invert,
    run_batch,
    sample_tower,
    spread_configs,
)
from trigonal.covers import point_on
from trigonal.jsonio import (
    batch_report_to_dict,
    check_report_to_dict,
    cover_from_dict,
    cover_to_dict,
    dumps_canonical,
    forward_result_to_dict,
    inverse_result_to_dict,
    load_schema,
    point_from_ref,
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


def test_point_refs_roundtrip_including_unramified_labels(fixture_doc):
    special = tower_from_dict(fixture_doc("tower_special_g3.json"))
    cover = special.cover
    point = point_on(cover, "h01", (1, 3))
    ref = point_to_ref(cover, point)
    assert point_from_ref(cover, ref) == point
    # a label the cover is not branched over still addresses singletons
    ghost = point_from_ref(cover, ["h01", 3])
    assert ghost.cycle in ((2, 4), (5,), (6,))
    with pytest.raises(ValueError):
        point_from_ref(cover, ["h01", 99])


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
    validator("batch_report", batch_report_to_dict(report, include_timing=True))


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

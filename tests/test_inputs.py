"""Mutated fixture documents through every ``--in`` command: each one is
refused with exactly one stderr line and the documented exit code
(``invalid:`` and 1 for validate, ``error:`` and 2 for the others),
never with a traceback.  The decoders accept only documents their
published schemas accept."""
import contextlib
import copy
import io
import json
from unittest import mock

import jsonschema
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trigonal.cli import main
from trigonal.jsonio import load_schema, tetragonal_from_dict, tower_from_dict

from conftest import FIXTURES

DOCUMENTS = {path.name: json.loads(path.read_text()) for path in sorted(FIXTURES.glob("*.json"))}

COMMANDS = (
    (("validate",), 1, "invalid: "),
    (("construct",), 2, "error: "),
    (("invert",), 2, "error: "),
    (("classify",), 2, "error: "),
    (("roundtrip", "--mode", "special"), 2, "error: "),
    (("roundtrip", "--mode", "etale"), 2, "error: "),
)


def _paths(value, path=()):
    """Every path of keys and indices into ``value``, ``value`` itself first."""
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _paths(item, path + (i,))


def _at(doc, path):
    for step in path:
        doc = doc[step]
    return doc


def _is_int(value):
    return type(value) is int


def _pick(draw, candidates):
    assume(candidates)  # else this document has no place for the mutation
    return draw(st.sampled_from(candidates))


def _drop(draw, doc, paths):
    path = _pick(draw, [p for p in paths if p and isinstance(_at(doc, p[:-1]), dict)])
    del _at(doc, path[:-1])[path[-1]]
    return doc


def _replace(doc, path, value):
    if not path:
        return value
    _at(doc, path[:-1])[path[-1]] = value
    return doc


def _wrong_type(draw, doc, paths):
    path = draw(st.sampled_from(paths))
    old = _at(doc, path)
    value = draw(st.sampled_from([v for v in (0, "x", 1.5, None, [], {}) if type(v) is not type(old)]))
    return _replace(doc, path, value)


def _bool_for_int(draw, doc, paths):
    path = _pick(draw, [p for p in paths if _is_int(_at(doc, p))])
    return _replace(doc, path, draw(st.booleans()))


def _sheet_out_of_range(draw, doc, paths):
    sheets = [
        p for p in paths if _is_int(_at(doc, p)) and ("monodromy" in p or "blocks" in p)
    ]
    path = _pick(draw, sheets)
    return _replace(doc, path, draw(st.sampled_from([0, -1, 7, 9, 10**6])))


def _duplicate_label(draw, doc, paths):
    lists = [p for p in paths if p and p[-1] == "branch_points" and len(_at(doc, p)) >= 2]
    points = _at(doc, _pick(draw, lists))
    i, j = draw(st.lists(st.integers(0, len(points) - 1), min_size=2, max_size=2, unique=True))
    points[j]["label"] = points[i]["label"]
    return doc


def _large_degree(draw, doc, paths):
    path = _pick(draw, [p for p in paths if p and p[-1] == "degree"])
    return _replace(doc, path, draw(st.sampled_from([7, 10**6, 3_000_000, 10**12])))


def _empty_label(draw, doc, paths):
    path = _pick(draw, [p for p in paths if p and p[-1] == "label"])
    return _replace(doc, path, "")


def _unknown_key(draw, doc, paths):
    path = _pick(draw, [p for p in paths if isinstance(_at(doc, p), dict)])
    _at(doc, path)[draw(st.sampled_from(["comment", "genus", "labels", ""]))] = 1
    return doc


def _short_cycle(draw, doc, paths):
    path = _pick(draw, [p for p in paths if p and p[-1] == "monodromy"])
    _at(doc, path).append(draw(st.sampled_from([[], [1], [2]])))
    return doc


MUTATIONS = (
    _drop,
    _wrong_type,
    _bool_for_int,
    _sheet_out_of_range,
    _duplicate_label,
    _large_degree,
    _empty_label,
    _unknown_key,
    _short_cycle,
)


@st.composite
def mutated_documents(draw):
    doc = copy.deepcopy(DOCUMENTS[draw(st.sampled_from(sorted(DOCUMENTS)))])
    mutate = draw(st.sampled_from(MUTATIONS))
    return mutate(draw, doc, list(_paths(doc)))


def _run(argv, text):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(text)):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main([*argv, "--in", "-"])
    return status, out.getvalue(), err.getvalue()


@settings(max_examples=50)
@given(mutated_documents())
def test_every_in_command_refuses_a_mutated_fixture_in_one_line(doc):
    text = json.dumps(doc)
    for argv, code, prefix in COMMANDS:
        status, out, err = _run(argv, text)
        assert status == code, (argv, err)
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(prefix), (argv, err)


DECODERS = (
    (tetragonal_from_dict, jsonschema.Draft202012Validator(load_schema("cover"))),
    (tower_from_dict, jsonschema.Draft202012Validator(load_schema("tower"))),
)


@settings(max_examples=100)
@given(mutated_documents())
def test_every_document_a_decoder_accepts_meets_its_schema(doc):
    for decode, schema in DECODERS:
        try:
            decode(copy.deepcopy(doc))
        except ValueError:
            continue
        assert [e.message for e in schema.iter_errors(doc)] == [], decode.__name__

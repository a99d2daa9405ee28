"""Canonical JSON for covers, towers, results and reports.

One canonical rendering is used everywhere: two-space indent, sorted
keys, trailing newline.  Parsing then serializing a canonical document
reproduces it byte for byte, which is what makes reports comparable
across runs and machines.

``dumps_canonical`` writes exactly the bytes of
``json.dumps(payload, indent=2, sort_keys=True) + "\n"``, but builds
them with its own small writer: CPython's C encoder runs only when
``indent`` is None, so the stdlib renders an indented document with
its pure-Python generator encoder, which took about half of each
large construct or invert document (CPython 3.11).  The writer covers the plain JSON the documents
are made of (dicts with ``str`` keys, lists, tuples, ``str``, ``int``,
``bool``, ``None``); any other payload, and a circular or too-deep
one, goes to ``json.dumps`` whole, so its bytes and errors stay the
stdlib's.

A document's monodromy is drawn from tiny groups, so a few dozen
distinct cycle lists fill all of its labels.  Both directions pay once
per distinct value: a list of int lists (monodromy, blocks) is rendered
through one memo keyed on its value as a tuple of int tuples and its
indent, and ``perm_from_cycles`` is a memo keyed on the degree and that
same tuple.  The key is built only when every sheet's type is exactly
``int``, since ``True == 1`` and both hash alike; any other list takes
the uncached path.  Both memos are ``lru_cache``s bounded at
``MEMO_SIZE`` entries, and a call that raises is not stored.

Monodromy is written in cycle form, 1-based, fixed sheets unlisted.
Fibre points are written as ``[label, cycle_index]`` where the index
counts the cycles of the monodromy over that label (fixed sheets
included, ordered by smallest sheet) starting from 1; labels the cover
is not branched over fall back to the singleton listing, so points
over unbranched fibres serialize the same way.
"""
from __future__ import annotations

import functools
import json
from collections.abc import Callable, Mapping, Sequence
from typing import Any, NoReturn

from .batch import BatchReport
from .coefficients import ChainRow
from .covers import BranchedCover, CoverPoint, NodalCoverModel, label_cycles
from .forward import ForwardResult
from .inverse import InverseResult, TetragonalCover
from .permutation import MEMO_SIZE, Permutation
from .report import CheckReport
from .towers import BlockSystem, Tower, TowerValidationError, validate_tower


_escape = json.encoder.encode_basestring_ascii
_int_str = int.__repr__


def _int_lists(value: Sequence) -> tuple[tuple[int, ...], ...] | None:
    """``value`` as a tuple of int tuples if its items are lists of exact
    ``int``s, else None.  The memos keyed on it need the exact type:
    ``(True, 2) == (1, 2)`` and both hash alike, so a bool, float or
    IntEnum sheet must never reach them."""
    key = []
    for cycle in value:
        if not isinstance(cycle, list):
            return None
        cycle = tuple(cycle)
        for sheet in cycle:
            if type(sheet) is not int:
                return None
        key.append(cycle)
    return tuple(key)


@functools.lru_cache(maxsize=MEMO_SIZE)
def _int_lists_text(key: tuple[tuple[int, ...], ...], indent: str) -> str:
    """``key`` rendered by ``_write`` at ``indent``.  Its cycles are
    tuples, which ``_int_lists`` refuses, so ``_write`` renders it
    without coming back to this memo."""
    pieces: list[str] = []
    _write(key, pieces.append, indent)
    return "".join(pieces)


def _write(value: Any, out: Callable[[str], None], indent: str) -> None:
    """Pass ``value`` to ``out`` in pieces, rendered as
    ``json.dumps(indent=2, sort_keys=True)`` renders it at the nesting
    level whose line break is ``indent``."""
    kind = type(value)
    if kind is str:
        out(_escape(value))
    elif kind is int:
        out(_int_str(value))
    elif kind is list or kind is tuple:
        if not value:
            out("[]")
            return
        inner = indent + "  "
        separator = "," + inner
        if all(type(v) is int for v in value):
            # cycles and sheet maps: most of the bytes of every document
            out("[" + inner + separator.join(map(_int_str, value)) + indent + "]")
            return
        key = _int_lists(value)
        if key is not None:
            # monodromy and blocks: a document repeats a few dozen of them
            out(_int_lists_text(key, indent))
            return
        head = "[" + inner
        for v in value:
            out(head)
            _write(v, out, inner)
            head = separator
        out(indent + "]")
    elif kind is dict:
        if not value:
            out("{}")
            return
        inner = indent + "  "
        head = "{" + inner
        for k in sorted(value):
            if type(k) is not str:
                raise TypeError(f"key {k!r} is not a str")
            out(head + _escape(k) + ": ")
            _write(value[k], out, inner)
            head = "," + inner
        out(indent + "}")
    elif value is None:
        out("null")
    elif value is True:
        out("true")
    elif value is False:
        out("false")
    else:
        raise TypeError(f"{kind.__name__} is not plain JSON")


def dumps_canonical(payload: Any) -> str:
    pieces: list[str] = []
    try:
        _write(payload, pieces.append, "\n")
    except (TypeError, RecursionError):
        # a value outside plain JSON, mixed key types, or a circular or
        # too-deep payload: the stdlib's bytes, or the stdlib's error
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    pieces.append("\n")
    return "".join(pieces)


# -- permutations and covers -------------------------------------------------

def perm_to_cycles(perm: Permutation) -> list[list[int]]:
    return [list(c) for c in perm.cycles()]


@functools.lru_cache(maxsize=MEMO_SIZE)
def perm_from_cycles(degree: int, cycles: tuple[tuple[int, ...], ...]) -> Permutation:
    return Permutation.from_cycles(degree, cycles)


def cover_to_dict(cover: BranchedCover) -> dict:
    return {
        "degree": cover.degree,
        "branch_points": [
            {"label": label, "monodromy": perm_to_cycles(perm)}
            for label, perm in cover.entries()
        ],
    }


_COVER_KEYS = ("degree", "branch_points")
_POINT_KEYS = ("label", "monodromy")
_POINT_KEY_SET = frozenset(_POINT_KEYS)


def _refuse_unknown_keys(where: str, payload: Mapping, known: Sequence[str]) -> None:
    # the published schemas set additionalProperties to false: a key the
    # decoder would skip is a key its writer expects to mean something
    for key in payload:
        if key not in known:
            shown = json.dumps(key) if isinstance(key, str) else repr(key)
            raise ValueError(f"{where}: unknown key {shown}")


def _refuse_point(i: int, point: Any) -> NoReturn:
    """Raise the error for ``branch_points[i]``, which ``cover_from_dict``
    could not decode."""
    where = f"branch_points[{i}]"
    if not isinstance(point, Mapping):
        raise ValueError(f"{where}: expected an object, got {point!r}")
    for key in _POINT_KEYS:
        if key not in point:
            raise ValueError(f'{where}: missing "{key}"')
    _refuse_unknown_keys(where, point, _POINT_KEYS)
    label, cycles = point["label"], point["monodromy"]
    if not isinstance(label, str):
        raise ValueError(f"{where}.label: expected a string, got {label!r}")
    if not label:
        raise ValueError(f"{where}.label: expected a non-empty string")
    if not isinstance(cycles, list) or _int_lists(cycles) is None:
        raise ValueError(f"{where}.monodromy: expected lists of integer sheets, got {cycles!r}")
    # fixed sheets are left unlisted, as the schemas require
    cycle = next(c for c in cycles if len(c) < 2)
    raise ValueError(f"{where}.monodromy: a cycle needs two or more sheets, got {cycle!r}")


def cover_from_dict(payload: Mapping, keys: Sequence[str] = _COVER_KEYS) -> BranchedCover:
    try:
        degree = payload["degree"]
        points = payload["branch_points"]
    except (KeyError, TypeError) as err:
        raise ValueError(f"cover document needs degree and branch_points: {err}") from None
    _refuse_unknown_keys("document", payload, keys)
    if not isinstance(degree, int) or isinstance(degree, bool):
        raise ValueError(f"degree must be an integer, got {degree!r}")
    if not isinstance(points, list):
        raise ValueError(f"branch_points must be a list, got {points!r}")
    entries = []
    for i, point in enumerate(points):
        # one pass of cheap checks; _refuse_point names what failed
        if not isinstance(point, Mapping) or point.keys() != _POINT_KEY_SET:
            _refuse_point(i, point)
        label, cycles = point["label"], point["monodromy"]
        key = _int_lists(cycles) if isinstance(cycles, list) else None
        if (
            not isinstance(label, str)
            or not label
            or key is None
            or min(map(len, key), default=2) < 2
        ):
            _refuse_point(i, point)
        entries.append((label, perm_from_cycles(degree, key)))
    return BranchedCover.from_pairs(degree, entries)


# -- towers ------------------------------------------------------------------

def cover_with_blocks_to_dict(cover: BranchedCover, blocks: BlockSystem) -> dict:
    """The tower document of ``cover`` and ``blocks``, written without
    validating them as a tower."""
    payload = cover_to_dict(cover)
    payload["blocks"] = [list(b) for b in blocks]
    return payload


def tower_to_dict(tower: Tower) -> dict:
    return cover_with_blocks_to_dict(tower.cover, tower.blocks)


def _declared_degree(payload: Any) -> int:
    """The document's degree if it is an integer, else 0; the decoder
    reports a missing or ill-typed one."""
    degree = payload.get("degree") if isinstance(payload, Mapping) else None
    return degree if type(degree) is int else 0


def tower_from_dict(payload: Mapping) -> Tower:
    degree = _declared_degree(payload)
    if degree > 6:
        # refused before a permutation of that degree is built, with
        # the message ``validate_tower`` gives
        raise TowerValidationError([f"tower cover must have degree 6, got {degree}"])
    cover = cover_from_dict(payload, _COVER_KEYS + ("blocks",))
    if "blocks" not in payload:
        raise ValueError("tower document needs a blocks field")
    blocks = payload["blocks"]
    if not isinstance(blocks, list) or not all(isinstance(b, list) for b in blocks):
        raise ValueError(f"blocks: expected a list of sheet pairs, got {blocks!r}")
    for i, block in enumerate(blocks):
        for j, sheet in enumerate(block):
            if type(sheet) is not int:
                raise ValueError(f"blocks[{i}][{j}]: expected an integer sheet, got {sheet!r}")
    return validate_tower(cover, BlockSystem.from_pairs(blocks))


def tetragonal_from_dict(payload: Mapping) -> TetragonalCover:
    degree = _declared_degree(payload)
    if degree > 4:
        # as in ``tower_from_dict``, with the message ``TetragonalCover`` gives
        raise ValueError(f"tetragonal cover must have degree 4, got {degree}")
    return TetragonalCover(cover_from_dict(payload))


# -- fibre points and node markers -------------------------------------------

def point_to_ref(cover: BranchedCover, point: CoverPoint) -> list:
    cycles = label_cycles(cover, point.label)
    try:
        return [point.label, cycles.index(point.cycle) + 1]
    except ValueError:
        raise ValueError(
            f"{point.cycle!r} is not a fibre point over {point.label!r}"
        ) from None


def nodes_to_list(model: NodalCoverModel) -> list:
    return [
        [point_to_ref(model.normalization, a), point_to_ref(model.normalization, b)]
        for a, b in model.nodes
    ]


# -- construction results ----------------------------------------------------

def forward_result_to_dict(result: ForwardResult) -> dict:
    payload = {
        "tower": tower_to_dict(result.tower),
        "mode": result.tower.mode,
        "genus": result.tower.genus,
        "sections_cover": cover_to_dict(result.sections),
        "involution": list(result.involution.images),
        "quotient_cover": cover_to_dict(result.quotient),
        "orientation_cover": cover_to_dict(result.orientation),
        "to_quotient": list(result.to_quotient),
        "to_orientation": list(result.to_orientation),
        "node_markers": None,
    }
    if result.nodes is not None:
        payload["node_markers"] = {
            "sections": nodes_to_list(result.nodes.sections),
            "quotient": nodes_to_list(result.nodes.quotient),
            "orientation": nodes_to_list(result.nodes.orientation),
        }
    return payload


def inverse_result_to_dict(result: InverseResult) -> dict:
    return {
        "source": cover_to_dict(result.source.cover),
        "stratum": result.source.stratum,
        "pairs_cover": cover_to_dict(result.pairs_cover),
        "blocks": [list(b) for b in result.blocks],
        "complement_involution": list(result.complement.images),
        "trigonal_cover": cover_to_dict(result.trigonal_cover),
        "fiber_types": dict(sorted(result.fiber_types.items())),
        "trigonal_nodes": nodes_to_list(result.trigonal_model),
        "pairs_nodes": nodes_to_list(result.pairs_model),
    }


# -- reports -----------------------------------------------------------------

def check_report_to_dict(report: CheckReport) -> dict:
    return {
        "title": report.title,
        "passed": report.passed,
        "checks": [
            {"name": c.name, "passed": c.passed, "detail": c.detail} for c in report.checks
        ],
    }


def batch_report_to_dict(report: BatchReport) -> dict:
    return {
        "suite": report.suite,
        "passed": report.passed,
        "instance_count": len(report.instances),
        "aggregate": {
            name: {"pass": p, "fail": f} for name, (p, f) in report.aggregate().items()
        },
        "instances": [
            {
                "index": inst.index,
                "genus": inst.genus,
                "mode": inst.mode,
                "seed": inst.seed,
                "passed": inst.passed,
                "checks": [
                    {"name": c.name, "passed": c.passed, "detail": c.detail}
                    for c in inst.checks
                ],
            }
            for inst in report.instances
        ],
    }


def chain_rows_to_dict(rows: Sequence[ChainRow]) -> dict:
    return {
        "genus_min": rows[0].genus if rows else None,
        "genus_max": rows[-1].genus if rows else None,
        "all_chains_equal_one": all(r.chain == 1 for r in rows),
        "rows": [
            {
                "genus": r.genus,
                "reduced_identity": r.reduced,
                "chain": str(r.chain),
                "chain_terms": [str(t) for t in r.chain_terms],
                "variant_with_power_factor": str(r.variant_with_power_factor),
                "variants_agree": r.chain == r.variant_with_power_factor,
            }
            for r in rows
        ],
    }


# -- schemas -----------------------------------------------------------------

def load_schema(name: str) -> dict:
    """A published JSON schema by stem name, e.g. ``cover`` or ``tower``."""
    from importlib import resources

    path = resources.files("trigonal").joinpath("schemas", f"{name}.schema.json")
    return json.loads(path.read_text())

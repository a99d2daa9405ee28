"""Command line surface.

Commands mirror the library: validate / construct / invert / classify
for single documents, sample for generating instances, roundtrip and
batch for verification runs, verify-coefficients for the exact
identity table.  Exit status is 0 only when everything asked for
passed, 1 when a check failed, and 2 when an argument or input
document is rejected or a file cannot be read or written; a rejection
prints one ``error:`` line on stderr.  Documents go to --out (or
stdout); wall-clock timing goes to stderr so captured output stays
canonical.  ``construct`` writes its check report to stdout, or to
stderr when ``--out -`` gives stdout the result document.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from pathlib import Path

from .batch import SUITES, run_batch, spread_configs
from .coefficients import chain_report
from .forward import construct, verify_predictions
from .inverse import invert, roundtrip, roundtrip_etale
from .jsonio import (
    batch_report_to_dict,
    chain_rows_to_dict,
    check_report_to_dict,
    cover_to_dict,
    cover_with_blocks_to_dict,
    dumps_canonical,
    forward_result_to_dict,
    inverse_result_to_dict,
    tetragonal_from_dict,
    tower_from_dict,
    tower_to_dict,
)
from .report import CheckReport
from .sampling import SAMPLE_KINDS, SAMPLE_M0, SampleConfig, derive_seed, sample_tetragonal, sample_tower
from .towers import ETALE, GENERAL, SPECIAL, TowerValidationError


def _read_json(path: str) -> dict:
    text = sys.stdin.read() if path == "-" else Path(path).read_text()
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("document nested too deeply to parse") from None


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _note_elapsed(started: float) -> None:
    print(f"elapsed: {time.perf_counter() - started:.3f}s", file=sys.stderr)


def render_check_report_md(report: CheckReport) -> str:
    lines = [f"# {report.title}", ""]
    for check in report.checks:
        mark = "PASS" if check.passed else "FAIL"
        suffix = f": {check.detail}" if check.detail else ""
        lines.append(f"- [{mark}] {check.name}{suffix}")
    lines += ["", f"overall: {'PASS' if report.passed else 'FAIL'}", ""]
    return "\n".join(lines)


def render_batch_md(report) -> str:
    lines = [
        f"# suite {report.suite}",
        "",
        f"instances: {len(report.instances)}",
        f"overall: {'PASS' if report.passed else 'FAIL'}",
        "",
        "| check | pass | fail |",
        "| --- | ---: | ---: |",
    ]
    for name, (passes, fails) in report.aggregate().items():
        lines.append(f"| {name} | {passes} | {fails} |")
    failing = [inst for inst in report.instances if not inst.passed]
    if failing:
        lines.append("")
        lines.append("failing instances:")
        for inst in failing:
            bad = ", ".join(c.name for c in inst.checks if not c.passed)
            lines.append(
                f"- index {inst.index} (genus {inst.genus}, mode {inst.mode}, "
                f"seed {inst.seed}): {bad}"
            )
    lines.append("")
    return "\n".join(lines)


def _emit_report(report: CheckReport, fmt: str, out: str | None) -> int:
    if fmt == "md":
        _emit(render_check_report_md(report), out)
    else:
        _emit(dumps_canonical(check_report_to_dict(report)), out)
    return 0 if report.passed else 1


# -- commands ----------------------------------------------------------------

def _cmd_validate(args) -> int:
    try:
        tower = tower_from_dict(_read_json(args.infile))
    except TowerValidationError as err:
        for line in err.errors:
            print(f"invalid: {line}", file=sys.stderr)
        return 1
    except ValueError as err:
        print(f"invalid: {err}", file=sys.stderr)
        return 1
    payload = {
        "valid": True,
        "mode": tower.mode,
        "genus": tower.genus,
        "flip_labels": sorted(tower.flip_labels()),
        "warnings": list(tower.warnings),
    }
    _emit(dumps_canonical(payload), args.out)
    return 0


def _cmd_construct(args) -> int:
    started = time.perf_counter()
    tower = tower_from_dict(_read_json(args.infile))
    result = construct(tower)
    report = verify_predictions(tower, result)
    if args.out:
        _emit(dumps_canonical(forward_result_to_dict(result)), args.out)
    _note_elapsed(started)
    if args.out == "-":  # stdout carries the result document
        with contextlib.redirect_stdout(sys.stderr):
            return _emit_report(report, args.format, "-")
    return _emit_report(report, args.format, None)


def _cmd_invert(args) -> int:
    started = time.perf_counter()
    tetragonal = tetragonal_from_dict(_read_json(args.infile))
    result = invert(tetragonal)
    _emit(dumps_canonical(inverse_result_to_dict(result)), args.out)
    if args.tower_out:
        payload = cover_with_blocks_to_dict(result.pairs_cover, result.blocks)
        _emit(dumps_canonical(payload), args.tower_out)
    _note_elapsed(started)
    return 0


def _cmd_classify(args) -> int:
    tetragonal = tetragonal_from_dict(_read_json(args.infile))
    payload = {
        "degree": tetragonal.cover.degree,
        "genus": tetragonal.genus,
        "stratum": tetragonal.stratum,
        "fiber_types": dict(sorted(tetragonal.fiber_types().items())),
    }
    _emit(dumps_canonical(payload), args.out)
    return 0


def _cmd_sample(args) -> int:
    started = time.perf_counter()
    if args.count < 0:
        raise ValueError(f"count must be non-negative, got {args.count}")
    documents = []
    for index in range(args.count):
        cfg = SampleConfig(
            genus=args.genus,
            mode=args.mode,
            seed=derive_seed(args.seed, index) if args.count > 1 else args.seed,
            three_cycle_labels=args.three_cycles,
        )
        if args.mode == SAMPLE_M0:
            documents.append(cover_to_dict(sample_tetragonal(cfg).cover))
        else:
            documents.append(tower_to_dict(sample_tower(cfg)))
    payload = documents[0] if args.count == 1 else documents
    _emit(dumps_canonical(payload), args.out)
    _note_elapsed(started)
    return 0


def _cmd_roundtrip(args) -> int:
    started = time.perf_counter()
    if args.mode == ETALE:
        if args.infile:
            tetragonal = tetragonal_from_dict(_read_json(args.infile))
        else:
            tetragonal = sample_tetragonal(SampleConfig(genus=args.genus, mode=SAMPLE_M0, seed=args.seed))
        report = roundtrip_etale(tetragonal)
    else:
        if args.infile:
            tower = tower_from_dict(_read_json(args.infile))
            if tower.mode != args.mode:
                raise ValueError(f"round trip needs a {args.mode} tower, mode is {tower.mode!r}")
        else:
            tower = sample_tower(SampleConfig(genus=args.genus, mode=args.mode, seed=args.seed))
        report = roundtrip(tower)
    _note_elapsed(started)
    return _emit_report(report, args.format, args.out)


def _cmd_verify_coefficients(args) -> int:
    started = time.perf_counter()
    rows = chain_report(args.gmax, gmin=args.gmin)
    payload = chain_rows_to_dict(rows)
    if args.report:
        _emit(dumps_canonical(payload), args.report)
    if args.format == "md" or not args.report:
        lines = [
            "| genus | reduced | chain | variant with 2^k | agree |",
            "| ---: | ---: | ---: | ---: | :--- |",
        ]
        for row in rows:
            lines.append(
                f"| {row.genus} | {row.reduced} | {row.chain} | "
                f"{row.variant_with_power_factor} | "
                f"{'yes' if row.chain == row.variant_with_power_factor else 'no'} |"
            )
        _emit("\n".join(lines) + "\n", args.out)
    _note_elapsed(started)
    return 0 if payload["all_chains_equal_one"] else 1


def _cmd_batch(args) -> int:
    started = time.perf_counter()
    configs = spread_configs(
        args.suite, args.count, args.seed, args.genus_min, args.genus_max
    )
    report = run_batch(args.suite, configs, jobs=args.jobs)
    if args.format == "md":
        _emit(render_batch_md(report), args.out)
    else:
        _emit(dumps_canonical(batch_report_to_dict(report)), args.out)
    _note_elapsed(started)
    return 0 if report.passed else 1


# -- parser ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trigonal",
        description="Branched covers of the line: trigonal towers, their "
        "sections curves, and the tetragonal correspondence.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, infile=False, out=True, fmt=False):
        if infile:
            p.add_argument("--in", dest="infile", required=True, help="input JSON, - for stdin")
        if out:
            p.add_argument("--out", default=None, help="output path, - or absent for stdout")
        if fmt:
            p.add_argument("--format", choices=("json", "md"), default="json")

    p = sub.add_parser("validate", help="check a tower document, print mode and genus")
    add_common(p, infile=True)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("construct", help="sections curve, involution, quotient, orientation")
    add_common(p, infile=True, fmt=True)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("invert", help="tetragonal cover to trigonal tower with node markers")
    add_common(p, infile=True)
    p.add_argument("--tower-out", default=None, help="also write the bare tower document here")
    p.set_defaults(func=_cmd_invert)

    p = sub.add_parser("classify", help="stratum and fibre types of a tetragonal cover")
    add_common(p, infile=True)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("sample", help="draw random towers or tetragonal covers")
    add_common(p)
    p.add_argument("--mode", choices=SAMPLE_KINDS, required=True)
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--count", type=int, default=1,
        help="1 writes one document seeded with --seed; any other count writes a list "
        "whose i-th entry is seeded with derive_seed(seed, i), and 0 writes []",
    )
    p.add_argument("--three-cycles", type=int, default=0, help="number of 3-cycle base labels")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("roundtrip", help="inverse-then-forward consistency run")
    add_common(p, fmt=True)
    p.add_argument("--mode", choices=(GENERAL, SPECIAL, ETALE), required=True)
    p.add_argument(
        "--in", dest="infile", default=None,
        help="tower (general, special) or tetragonal cover (etale)",
    )
    p.add_argument("--genus", type=int, default=3, help="sampling genus when --in is absent")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_roundtrip)

    p = sub.add_parser("verify-coefficients", help="exact identity table for the series coefficients")
    add_common(p, fmt=True)
    p.add_argument("--gmax", type=int, required=True)
    p.add_argument("--gmin", type=int, default=3)
    p.add_argument("--report", default=None, help="write the JSON table here")
    p.set_defaults(func=_cmd_verify_coefficients)

    p = sub.add_parser("batch", help="run a named suite over many sampled instances")
    add_common(p, fmt=True)
    p.add_argument("--suite", choices=sorted(SUITES), required=True)
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--genus-min", type=int, default=3)
    p.add_argument("--genus-max", type=int, default=8)
    p.add_argument(
        "--jobs", type=int, default=1,
        help="must be positive; accepted for compatibility: instances run in order in one "
        "thread, so reports are byte-identical at any value",
    )
    p.set_defaults(func=_cmd_batch)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

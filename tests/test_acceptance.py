"""Acceptance gate: every numbered criterion as one test, exact
equality throughout, one visible pass/fail line each.

The announce lines print outside pytest capture so the verdict is
readable in any invocation; the asserts behind them carry the gate."""
import json
import time

from trigonal import (
    Permutation,
    TetragonalCover,
    classify_fiber,
    invert,
    roundtrip,
    run_batch,
    sample_tower,
    sections_action,
    spread_configs,
)
from trigonal.coefficients import chain_report
from trigonal.groups import quotient_action
from trigonal.jsonio import (
    batch_report_to_dict,
    chain_rows_to_dict,
    cover_to_dict,
    dumps_canonical,
    tetragonal_from_dict,
    tower_from_dict,
    tower_to_dict,
)

from conftest import CANONICAL_BLOCKS, FIXTURES

RUNTIME_BUDGET = 10.0


def announce(capsys, number: int, ok: bool, text: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"\n[{verdict}] criterion {number}: {text}", flush=True)


def aggregate_all_pass(report, names):
    counts = report.aggregate()
    total = len(report.instances)
    return all(counts.get(name) == (total, 0) for name in names)


def test_criterion_1_general_suite(capsys):
    started = time.perf_counter()
    configs = spread_configs("general-props", 200, 101, 3, 8)
    report = run_batch("general-props", configs, jobs=4)
    elapsed = time.perf_counter() - started

    required = [
        "sections-connected",
        "sections-genus",
        "sections-total-ramification",
        "quotient-genus",
        "orientation-rational",
        "quotient-two-double-double-labels",
        "involution-free-criterion",
        "involution-fixed-point-free",
        "orientation-branching",
        "prym-dimension-match",
        "prym-of-quotient-match",
        "diagram-commutes",
    ]
    ok = (
        report.passed
        and len(report.instances) == 200
        and {inst.genus for inst in report.instances} == set(range(3, 9))
        and aggregate_all_pass(report, required)
        and elapsed < RUNTIME_BUDGET
    )
    announce(capsys, 1, ok, f"200 general towers, g 3..8, all structural checks exact ({elapsed:.2f}s)")
    assert report.passed
    assert aggregate_all_pass(report, required)
    assert elapsed < RUNTIME_BUDGET


def test_criterion_2_special_suite(capsys):
    started = time.perf_counter()
    configs = spread_configs("special-props", 100, 202, 3, 8)
    report = run_batch("special-props", configs, jobs=4)
    elapsed = time.perf_counter() - started

    required = [
        "sections-split-in-two",
        "component-genus",
        "component-total-ramification",
        "components-swapped-by-involution",
        "node-count",
        "nodes-swapped-by-involution",
        "sections-arithmetic-genus",
        "quotient-arithmetic-genus",
        "wirtinger-gluing",
        "component-tetragonal-stratum",
        "component-tetragonal-genus",
    ]
    ok = (
        report.passed
        and len(report.instances) == 100
        and aggregate_all_pass(report, required)
        and elapsed < RUNTIME_BUDGET
    )
    announce(capsys, 2, ok, f"100 special towers, split/nodes/arithmetic genera exact ({elapsed:.2f}s)")
    assert report.passed
    assert aggregate_all_pass(report, required)
    assert elapsed < RUNTIME_BUDGET


def test_criterion_3_special_roundtrip(capsys):
    started = time.perf_counter()
    # the same master seed as criterion 2 reproduces the same 100 towers
    configs = spread_configs("special-roundtrip", 100, 202, 3, 8)
    report = run_batch("special-roundtrip", configs, jobs=4)
    elapsed = time.perf_counter() - started

    required = [
        "component-extraction",
        "component-stratum",
        "component-genus",
        "trigonal-curves-match",
        "double-covers-match",
    ]
    ok = (
        report.passed
        and len(report.instances) == 100
        and aggregate_all_pass(report, required)
        and elapsed < RUNTIME_BUDGET
    )
    announce(capsys, 3, ok, f"same 100 towers, inverse matches glued tower nodewise ({elapsed:.2f}s)")
    assert report.passed
    assert aggregate_all_pass(report, required)
    assert elapsed < RUNTIME_BUDGET


def test_criterion_4_etale_roundtrip(capsys):
    started = time.perf_counter()
    forward = run_batch("etale-forward", spread_configs("etale-forward", 100, 404, 3, 8), jobs=4)
    back = run_batch("m0-roundtrip", spread_configs("m0-roundtrip", 100, 405, 2, 7), jobs=4)
    elapsed = time.perf_counter() - started

    forward_required = ["sections-split-in-two", "component-genus", "components-isomorphic"]
    back_required = [
        "inverse-validates",
        "inverse-is-etale",
        "inverse-genus",
        "first-component-recovers-input",
        "second-component-recovers-input",
    ]
    ok = (
        forward.passed
        and back.passed
        and aggregate_all_pass(forward, forward_required)
        and aggregate_all_pass(back, back_required)
        and elapsed < RUNTIME_BUDGET
    )
    announce(capsys, 4, ok, f"100 etale splits + 100 m0 round trips, components match ({elapsed:.2f}s)")
    assert forward.passed and back.passed
    assert aggregate_all_pass(forward, forward_required)
    assert aggregate_all_pass(back, back_required)
    assert elapsed < RUNTIME_BUDGET


def test_criterion_5_fibre_dictionary(capsys):
    checks = []

    # block transposition, lifted without flips
    act = sections_action(Permutation((3, 4, 1, 2, 5, 6)), CANONICAL_BLOCKS)
    checks.append(act.cycle_type() == (2, 2, 1, 1, 1, 1))

    # block 3-cycle
    act = sections_action(Permutation((3, 4, 5, 6, 1, 2)), CANONICAL_BLOCKS)
    checks.append(act.cycle_type() == (3, 3, 1, 1))

    # weight-1 flip upstairs and on the quotient
    act = sections_action(Permutation((2, 1, 3, 4, 5, 6)), CANONICAL_BLOCKS)
    checks.append(act.cycle_type() == (2, 2, 2, 2))
    checks.append(quotient_action(act).cycle_type() == (2, 2))

    # tetragonal classification
    checks.append(classify_fiber(Permutation.from_cycles(4, [(1, 2), (3, 4)])) == 4)
    checks.append(classify_fiber(Permutation.from_cycles(4, [(1, 2, 3, 4)])) == 5)

    # type-4 node rule on the one-marked fixture image
    doc = json.loads((FIXTURES / "inverse_m0_g2.json").read_text())
    checks.append(doc["trigonal_nodes"] == [] and doc["pairs_nodes"] == [])

    special = tower_from_dict(json.loads((FIXTURES / "tower_special_g3.json").read_text()))
    from trigonal import component_tetragonal, construct

    marked = TetragonalCover(component_tetragonal(construct(special)))
    inv = invert(marked)
    [(a, b)] = inv.trigonal_model.nodes
    checks.append(a.ramification_index == 1 and b.ramification_index == 1)
    [(ua, ub)] = inv.pairs_model.nodes
    checks.append(ua.ramification_index == 2 and ub.ramification_index == 2)

    # type-5 node rule
    q = Permutation.from_cycles(4, [(1, 2, 3, 4)])
    t = Permutation.from_cycles(4, [(1, 3)])
    from trigonal import BranchedCover

    quad = TetragonalCover(
        BranchedCover.from_pairs(4, [("p1", q), ("p2", q.inverse()), ("p3", t), ("p4", t)])
    )
    inv = invert(quad)
    down = {
        tuple(sorted((a.ramification_index, b.ramification_index)))
        for a, b in inv.trigonal_model.nodes
        if inv.fiber_types[a.label] == 5
    }
    up = {
        tuple(sorted((a.ramification_index, b.ramification_index)))
        for a, b in inv.pairs_model.nodes
        if inv.fiber_types[a.label] == 5
    }
    checks.append(down == {(1, 2)} and up == {(2, 4)})

    ok = all(checks)
    announce(capsys, 5, ok, "local monodromy dictionary, all profiles exact")
    assert all(checks)


def test_criterion_6_coefficient_identities(capsys):
    started = time.perf_counter()
    rows = chain_report(200)
    elapsed = time.perf_counter() - started

    all_one = all(r.reduced == 1 and r.chain == 1 for r in rows)
    payload = chain_rows_to_dict(rows)
    variant_emitted = all("variant_with_power_factor" in row for row in payload["rows"])
    variant_diverges = (
        payload["rows"][0]["variants_agree"] is True
        and all(row["variants_agree"] is False for row in payload["rows"][1:4])
    )
    ok = all_one and variant_emitted and variant_diverges and elapsed < 1.0
    announce(capsys, 6, ok, f"reduced and chained coefficients = 1 for g 3..200 ({elapsed:.3f}s)")
    assert all_one
    assert payload["all_chains_equal_one"] is True
    assert variant_emitted and variant_diverges
    assert elapsed < 1.0


def test_criterion_7_determinism_and_formats(capsys):
    fixture_names = [
        "tower_etale_g3.json",
        "tower_special_g3.json",
        "tower_general_g3.json",
        "tetragonal_m0_g2.json",
        "forward_special_g3.json",
        "inverse_m0_g2.json",
        "batch_pinned.json",
    ]
    stable = True
    for name in fixture_names:
        text = (FIXTURES / name).read_text()
        stable = stable and dumps_canonical(json.loads(text)) == text

    for name in fixture_names[:3]:
        text = (FIXTURES / name).read_text()
        tower = tower_from_dict(json.loads(text))
        stable = stable and dumps_canonical(tower_to_dict(tower)) == text
    text = (FIXTURES / "tetragonal_m0_g2.json").read_text()
    tet = tetragonal_from_dict(json.loads(text))
    stable = stable and dumps_canonical(cover_to_dict(tet.cover)) == text

    configs = spread_configs("special-roundtrip", 6, 707, 3, 5)
    reports = {
        jobs: dumps_canonical(
            batch_report_to_dict(run_batch("special-roundtrip", configs, jobs=jobs))
        )
        for jobs in (1, 2, 4)
    }
    deterministic = reports[1] == reports[2] == reports[4]

    ok = stable and deterministic
    announce(capsys, 7, ok, "fixtures byte-stable, batch reports identical across thread counts")
    assert stable
    assert deterministic


def test_tower_roundtrip_general_and_etale():
    # the special mode runs through the special-roundtrip suite (criterion 3)
    started = time.perf_counter()
    configs = spread_configs("general-props", 100, 202, 3, 8) + spread_configs(
        "etale-forward", 100, 404, 3, 8
    )
    reports = [roundtrip(sample_tower(cfg)) for cfg in configs]
    elapsed = time.perf_counter() - started

    names = [
        "component-extraction",
        "component-stratum",
        "component-genus",
        "trigonal-curves-match",
        "double-covers-match",
    ]
    assert [r.title for r in reports] == ["roundtrip-general"] * 100 + ["roundtrip-etale"] * 100
    for cfg, report in zip(configs, reports):
        assert report.passed, (cfg, report.failures())
        assert [c.name for c in report.checks] == names
    assert elapsed < RUNTIME_BUDGET

"""The command line, driven in process through main()."""
import json

import pytest

from trigonal.cli import main

from conftest import FIXTURES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_fixture(capsys):
    code, out, _ = run(capsys, "validate", "--in", str(FIXTURES / "tower_special_g3.json"))
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "flip_labels": ["f1"],
        "genus": 3,
        "mode": "special",
        "valid": True,
        "warnings": [],
    }


def test_validate_rejects_garbage(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"degree": 6, "branch_points": [], "blocks": [[1, 2], [3, 4], [5, 6]]}))
    code, _, err = run(capsys, "validate", "--in", str(bad))
    assert code == 1
    assert "invalid" in err


def test_construct_writes_result_and_reports(tmp_path, capsys):
    out = tmp_path / "result.json"
    code, report_out, err = run(
        capsys,
        "construct",
        "--in", str(FIXTURES / "tower_special_g3.json"),
        "--out", str(out),
        "--format", "md",
    )
    assert code == 0
    assert "overall: PASS" in report_out
    assert "elapsed" in err
    written = out.read_text()
    assert written == (FIXTURES / "forward_special_g3.json").read_text()


@pytest.mark.parametrize("fmt, report_start", [("json", "{"), ("md", "# ")], ids=["json", "md"])
def test_construct_to_stdout_writes_only_the_result(tmp_path, capsys, fmt, report_start):
    tower = str(FIXTURES / "tower_special_g3.json")
    out = tmp_path / "result.json"
    assert run(capsys, "construct", "--in", tower, "--out", str(out))[0] == 0
    code, stdout, err = run(capsys, "construct", "--in", tower, "--out", "-", "--format", fmt)
    assert code == 0
    json.loads(stdout)  # one document, no report after it
    assert stdout == out.read_text()
    elapsed, report = err.split("\n", 1)
    assert elapsed.startswith("elapsed: ") and report.startswith(report_start)
    assert ("overall: PASS" in report) if fmt == "md" else json.loads(report)["passed"]


def test_invert_then_validate_chain(tmp_path, capsys):
    inv = tmp_path / "inverse.json"
    tower = tmp_path / "tower.json"
    code, _, _ = run(
        capsys,
        "invert",
        "--in", str(FIXTURES / "tetragonal_m0_g2.json"),
        "--out", str(inv),
        "--tower-out", str(tower),
    )
    assert code == 0
    assert json.loads(inv.read_text())["stratum"] == "m0"
    code, out, _ = run(capsys, "validate", "--in", str(tower))
    assert code == 0
    payload = json.loads(out)
    assert payload["mode"] == "etale" and payload["genus"] == 3


def test_tower_out_bytes_are_the_inverse_fixture_pairs_cover_and_blocks(tmp_path, capsys):
    tower = tmp_path / "tower.json"
    code, _, _ = run(
        capsys,
        "invert",
        "--in", str(FIXTURES / "tetragonal_m0_g2.json"),
        "--out", str(tmp_path / "inverse.json"),
        "--tower-out", str(tower),
    )
    assert code == 0
    inverse = json.loads((FIXTURES / "inverse_m0_g2.json").read_text())
    expected = dict(inverse["pairs_cover"], blocks=inverse["blocks"])
    assert tower.read_text() == json.dumps(expected, indent=2, sort_keys=True) + "\n"


def test_classify(capsys):
    code, out, _ = run(capsys, "classify", "--in", str(FIXTURES / "tetragonal_m0_g2.json"))
    assert code == 0
    payload = json.loads(out)
    assert payload["stratum"] == "m0"
    assert payload["genus"] == 2
    assert set(payload["fiber_types"].values()) == {2}


def test_classify_reports_two_double_labels_over_a_disconnected_partition_curve_as_other(
    tmp_path, capsys
):
    # (1 2), (1 2), (3 4), (3 4), (1 2), (1 2), (1 3)(2 4), (1 3)(2 4)
    cycles = [[[1, 2]]] * 2 + [[[3, 4]]] * 2 + [[[1, 2]]] * 2 + [[[1, 3], [2, 4]]] * 2
    doc = tmp_path / "m2.json"
    doc.write_text(json.dumps({
        "degree": 4,
        "branch_points": [{"label": f"b{i:02d}", "monodromy": c} for i, c in enumerate(cycles, start=1)],
    }))
    code, out, _ = run(capsys, "classify", "--in", str(doc))
    assert code == 0
    payload = json.loads(out)
    assert (payload["stratum"], payload["genus"]) == ("other", 2)


def test_sample_is_deterministic_per_seed(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run(
            capsys, "sample", "--mode", "general", "--genus", "4",
            "--seed", "11", "--out", str(path),
        )
        assert code == 0
    assert a.read_text() == b.read_text()
    code, _, _ = run(
        capsys, "sample", "--mode", "general", "--genus", "4",
        "--seed", "12", "--out", str(b),
    )
    assert code == 0
    assert a.read_text() != b.read_text()


def test_sample_count_emits_a_list(capsys):
    code, out, _ = run(
        capsys, "sample", "--mode", "m0", "--genus", "2", "--seed", "3", "--count", "2",
    )
    assert code == 0
    docs = json.loads(out)
    assert isinstance(docs, list) and len(docs) == 2
    assert docs[0] != docs[1]


@pytest.mark.parametrize(
    "argv",
    [
        ("sample", "--mode", "general", "--genus", "4", "--count", "-2"),
        ("batch", "--suite", "general-props", "--count", "-3"),
    ],
    ids=["sample", "batch"],
)
def test_negative_count_prints_one_error_line_and_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: count must be non-negative, got {argv[-1]}\n"


def test_roundtrip_special_from_file(capsys):
    code, out, _ = run(
        capsys, "roundtrip", "--mode", "special",
        "--in", str(FIXTURES / "tower_special_g3.json"), "--format", "md",
    )
    assert code == 0
    assert "overall: PASS" in out


def test_roundtrip_general_from_file_and_sampled(capsys):
    # the paper's own case: a general tower round-trips through an m2 cover
    code, out, _ = run(
        capsys, "roundtrip", "--mode", "general", "--in", str(FIXTURES / "tower_general_g3.json"),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["title"] == "roundtrip-general" and payload["passed"] is True
    assert {"name": "component-stratum", "passed": True, "detail": "stratum 'm2'"} in payload["checks"]
    code, out, _ = run(capsys, "roundtrip", "--mode", "general", "--genus", "5", "--seed", "2")
    assert code == 0
    assert json.loads(out)["title"] == "roundtrip-general"


def test_roundtrip_etale_sampled(capsys):
    code, out, _ = run(
        capsys, "roundtrip", "--mode", "etale", "--genus", "2", "--seed", "1",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True


def test_verify_coefficients_table_and_report(tmp_path, capsys):
    report = tmp_path / "chains.json"
    code, out, _ = run(
        capsys, "verify-coefficients", "--gmax", "6", "--report", str(report), "--format", "md",
    )
    assert code == 0
    assert "| 4 | 1 | 1 | 2 | no |" in out
    payload = json.loads(report.read_text())
    assert payload["all_chains_equal_one"] is True
    assert payload["genus_max"] == 6


def test_batch_json_and_exit_status(tmp_path, capsys):
    out = tmp_path / "batch.json"
    code, _, err = run(
        capsys, "batch", "--suite", "etale-forward", "--count", "4",
        "--seed", "6", "--genus-min", "3", "--genus-max", "4",
        "--jobs", "2", "--out", str(out),
    )
    assert code == 0
    assert "elapsed" in err
    payload = json.loads(out.read_text())
    assert payload["passed"] is True and payload["instance_count"] == 4
    assert "elapsed_seconds" not in payload


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_batch_rejects_a_non_positive_jobs_with_one_error_line(capsys, jobs):
    code, out, err = run(capsys, "batch", "--suite", "general-props", "--count", "2", "--jobs", jobs)
    assert code == 2
    assert out == ""
    assert err == "error: jobs must be positive\n"


def test_batch_bytes_do_not_depend_on_jobs(tmp_path, capsys):
    written = {}
    for jobs in ("1", "3"):
        out = tmp_path / f"jobs{jobs}.json"
        code, _, _ = run(
            capsys, "batch", "--suite", "m0-roundtrip", "--count", "5", "--seed", "8",
            "--genus-min", "2", "--genus-max", "4", "--jobs", jobs, "--out", str(out),
        )
        assert code == 0
        written[jobs] = out.read_bytes()
    assert written["1"] == written["3"]


def test_batch_md(capsys):
    code, out, _ = run(
        capsys, "batch", "--suite", "special-roundtrip", "--count", "2",
        "--seed", "4", "--genus-max", "4", "--format", "md",
    )
    assert code == 0
    assert "overall: PASS" in out
    assert "| check | pass | fail |" in out


def test_unknown_command_exits_with_usage(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_rejected_input_prints_one_error_line_and_exits_2(tmp_path, capsys):
    torn = json.loads((FIXTURES / "tower_special_g3.json").read_text())
    torn["blocks"] = [[1, 2], [3, 5], [4, 6]]
    doc = tmp_path / "torn.json"
    doc.write_text(json.dumps(torn))
    for argv in (
        ("batch", "--suite", "general-props", "--genus-min", "1"),
        ("verify-coefficients", "--gmax", "2"),
        ("construct", "--in", str(doc)),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err


@pytest.mark.parametrize(
    "document, message",
    [
        ({"degree": 4, "branch_points": [{"monodromy": [[1, 2]]}]}, 'branch_points[0]: missing "label"'),
        (
            {"degree": 4, "branch_points": [{"label": "b1", "monodromy": [["1", 2]]}]},
            "branch_points[0].monodromy",
        ),
        ({"degree": 4, "branch_points": 5}, "branch_points must be a list"),
        ({"degree": True, "branch_points": []}, "degree must be an integer"),
        ({"degree": 4, "branch_points": [], "genus": 2}, 'document: unknown key "genus"'),
        (
            {"degree": 4, "branch_points": [{"label": "b1", "monodromy": [[1, 2]], "x": 0}]},
            'branch_points[0]: unknown key "x"',
        ),
        (
            {"degree": 4, "branch_points": [{"label": "", "monodromy": [[1, 2]]}]},
            "branch_points[0].label: expected a non-empty string",
        ),
        (
            {"degree": 4, "branch_points": [{"label": "b1", "monodromy": [[1, 2], [3]]}]},
            "branch_points[0].monodromy: a cycle needs two or more sheets, got [3]",
        ),
    ],
    ids=[
        "missing-label",
        "string-sheet",
        "branch-points-not-a-list",
        "boolean-degree",
        "unknown-top-level-key",
        "unknown-branch-point-key",
        "empty-label",
        "one-sheet-cycle",
    ],
)
def test_malformed_cover_document_prints_one_error_line_and_exits_2(
    tmp_path, capsys, document, message
):
    doc = tmp_path / "bad.json"
    doc.write_text(json.dumps(document))
    for command in ("invert", "classify"):
        code, out, err = run(capsys, command, "--in", str(doc))
        assert code == 2, command
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0], err


@pytest.mark.parametrize(
    "blocks, message",
    [
        (5, "blocks: expected a list of sheet pairs"),
        ([[1, 2], [3, 4], [5, "6"]], "blocks[2][1]: expected an integer sheet"),
        ([[True, 2], [3, 4], [5, 6]], "blocks[0][0]: expected an integer sheet"),
    ],
    ids=["blocks-not-a-list", "string-sheet", "boolean-sheet"],
)
@pytest.mark.parametrize(
    "command, code, prefix",
    [("construct", 2, "error: "), ("validate", 1, "invalid: ")],
    ids=["construct", "validate"],
)
def test_malformed_blocks_print_one_line(tmp_path, capsys, blocks, message, command, code, prefix):
    document = json.loads((FIXTURES / "tower_special_g3.json").read_text())
    document["blocks"] = blocks
    doc = tmp_path / "bad.json"
    doc.write_text(json.dumps(document))
    status, out, err = run(capsys, command, "--in", str(doc))
    assert status == code
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix) and message in lines[0], err


@pytest.mark.parametrize(
    "argv",
    [
        ("validate", "--in", "{missing}"),
        ("construct", "--in", "{missing}"),
        ("sample", "--mode", "etale", "--genus", "3", "--out", "{missing_dir}"),
    ],
    ids=["validate-in", "construct-in", "sample-out"],
)
def test_unreadable_input_and_unwritable_output_print_one_error_line(tmp_path, capsys, argv):
    paths = {"missing": tmp_path / "missing.json", "missing_dir": tmp_path / "missing" / "x.json"}
    code, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "No such file" in lines[0], err


def test_roundtrip_rejects_a_tower_of_another_mode(capsys):
    code, out, err = run(
        capsys, "roundtrip", "--mode", "special", "--in", str(FIXTURES / "tower_general_g3.json"),
    )
    assert code == 2
    assert out == ""
    assert err == "error: round trip needs a special tower, mode is 'general'\n"
    code, out, err = run(
        capsys, "roundtrip", "--mode", "general", "--in", str(FIXTURES / "tower_special_g3.json"),
    )
    assert code == 2
    assert out == ""
    assert err == "error: round trip needs a general tower, mode is 'special'\n"


IN_COMMANDS = [
    ("validate", 1, "invalid: "),
    ("construct", 2, "error: "),
    ("classify", 2, "error: "),
    ("invert", 2, "error: "),
]


@pytest.mark.parametrize("command, code, prefix", IN_COMMANDS, ids=[c[0] for c in IN_COMMANDS])
def test_a_too_deeply_nested_document_prints_one_line(tmp_path, capsys, command, code, prefix):
    doc = tmp_path / "deep.json"
    doc.write_text("[" * 100_000 + "]" * 100_000)
    status, out, err = run(capsys, command, "--in", str(doc))
    assert status == code
    assert out == ""
    assert err == f"{prefix}document nested too deeply to parse\n"


@pytest.mark.parametrize(
    "fixture, commands, message",
    [
        ("tower_general_g3.json", IN_COMMANDS[:2], "tower cover must have degree 6, got 3000000"),
        ("tetragonal_m0_g2.json", IN_COMMANDS[2:], "tetragonal cover must have degree 4, got 3000000"),
    ],
    ids=["tower", "tetragonal"],
)
def test_a_large_declared_degree_is_refused_before_any_permutation(
    tmp_path, capsys, monkeypatch, fixture, commands, message
):
    def refuse(*_):
        raise AssertionError("a permutation was built")

    monkeypatch.setattr("trigonal.jsonio.perm_from_cycles", refuse)
    document = json.loads((FIXTURES / fixture).read_text())
    document["degree"] = 3_000_000
    doc = tmp_path / "large.json"
    doc.write_text(json.dumps(document))
    for command, code, prefix in commands:
        status, out, err = run(capsys, command, "--in", str(doc))
        assert (status, out, err) == (code, "", f"{prefix}{message}\n"), command


def test_verify_coefficients_at_a_large_genus(capsys):
    code, out, err = run(capsys, "verify-coefficients", "--gmin", "700", "--gmax", "700")
    assert code == 0
    assert out.splitlines()[2].startswith("| 700 | 1 | 1 | ")
    assert err.startswith("elapsed: ")


@pytest.mark.parametrize("gmin", ["2", "1", "0"])
def test_verify_coefficients_below_genus_three_names_the_genus(capsys, gmin):
    code, out, err = run(capsys, "verify-coefficients", "--gmin", gmin, "--gmax", "3")
    assert (code, out) == (2, "")
    assert err == f"error: the chain is evaluated for genus >= 3, got {gmin}\n"


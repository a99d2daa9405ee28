"""Tests of the benchmark's own code, in smoke mode:

    python3 -m pytest perfbench
"""
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import layer_metrics  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    out = subprocess.run(
        [sys.executable, str(script), "--smoke", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )
    return out.returncode, out.stdout.splitlines(), out.stderr


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(workload, trace, section):
    code, lines, stderr = bench("--workload", workload, "--trace", str(trace))
    assert code == 0, stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    text = "\n".join(lines[:-2])
    for name, unit in [("failed_ratio", "ratio"), *expected.items()]:
        assert re.search(rf"^\s+{re.escape(name)}\s+\S+ {re.escape(unit)}$", text, re.M), name


def test_injected_failure_is_counted_and_the_run_goes_on():
    code, lines, stderr = bench("--workload", "forward", "--inject-fail", "2")
    result = json.loads(lines[-1])
    info = json.loads(lines[-2])
    assert code == 1
    assert not result["correct"]
    assert result["failed"] == 1 and result["attempted"] > 2
    assert info["failed_ratio"] == 1 / result["attempted"]
    assert "injected failure" in stderr


def test_digest_depends_only_on_the_seed():
    digests = [
        json.loads(bench("--workload", "documents", "--seed", str(seed))[1][-2])["digest_sha256"]
        for seed in (3, 3, 4)
    ]
    assert digests[0] == digests[1] != digests[2]


def test_without_package_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__", "traces"))
    code, lines, stderr = bench("--workload", "forward", cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert code != 0
    assert lines == []
    assert "no package sources" in stderr


def test_self_time_share_and_unaccounted_share():
    # One item of 10 s: construct spans 1..9 and calls run_batch over 2..5;
    # 2 s of the item are in no span.
    spans = [
        (1, "batch.run_batch", 2.0, 5.0, 0, 7, 1, False, 0),
        (0, "forward.construct", 1.0, 9.0, None, 7, 1, False, 0),
    ]
    metrics = layer_metrics(spans, 10.0, 1)
    assert metrics["forward.construct.share"][0] == pytest.approx(0.5)
    assert metrics["batch.run_batch.share"][0] == pytest.approx(0.3)
    assert metrics["trace.unaccounted_share"][0] == pytest.approx(0.2)
    assert metrics["forward.construct.calls"][0] == 1
    assert metrics["inverse.invert.calls"][0] == 0  # a span that never fired

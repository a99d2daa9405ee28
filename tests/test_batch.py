"""Batch orchestration: suites, in-order determinism, failure capture."""
import hashlib
import threading

import pytest

from trigonal import SUITES, SampleConfig, run_batch, spread_configs
from trigonal.jsonio import batch_report_to_dict, dumps_canonical


def test_unknown_suite_and_bad_jobs_are_rejected():
    with pytest.raises(ValueError):
        run_batch("no-such-suite", [])
    with pytest.raises(ValueError):
        run_batch("general-props", [], jobs=0)
    with pytest.raises(ValueError):
        spread_configs("no-such-suite", 4, 0, 3, 8)
    with pytest.raises(ValueError):
        spread_configs("general-props", 4, 0, 5, 4)


# sha256 of each suite's canonical report, 12 instances at master seed
# 101 over g 3..8.  A change that moves one of these must say why in
# CHANGES.md.
PINNED_SUITE_DIGESTS = {
    "etale-forward": "d7ba6f3be54596734c2f34b45add7fefb9a66ce0aa76997f1ef7b4eb02a3db3b",
    "general-props": "7f135b83f8aeb16a8bc6c7a65c20db15372f9d3e423b71b733c194a1ebf0100e",
    "m0-roundtrip": "6eeb2cb3608f32e9c611a0e2ddb3174282e0aefbcf7bf5f3e5ec4790f074b958",
    "special-props": "deb7eab47997d3b586ea88f3a27f9440b56714a0d4929a7903befd71460a899c",
    "special-roundtrip": "85d88fcf100ef5554b828b091f25bb2c2b0f345ca76573c255dec01a759474af",
}


@pytest.mark.parametrize("suite", sorted(PINNED_SUITE_DIGESTS))
def test_suite_report_bytes_are_pinned(suite):
    report = run_batch(suite, spread_configs(suite, 12, 101, 3, 8))
    text = dumps_canonical(batch_report_to_dict(report))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_SUITE_DIGESTS[suite]


def test_empty_config_list_passes():
    report = run_batch("general-props", [])
    assert report.passed
    assert report.instances == ()
    assert report.aggregate() == {}


def test_spread_configs_cycle_genera_and_derive_seeds():
    cfgs = spread_configs("special-roundtrip", 8, 17, 3, 5)
    assert [c.genus for c in cfgs] == [3, 4, 5, 3, 4, 5, 3, 4]
    assert all(c.mode == "special" for c in cfgs)
    assert len({c.seed for c in cfgs}) == 8
    m0 = spread_configs("m0-roundtrip", 3, 17, 2, 7)
    assert all(c.mode == "m0" for c in m0)


def test_small_suites_pass():
    for suite in ("general-props", "special-props", "etale-forward"):
        report = run_batch(suite, spread_configs(suite, 4, 5, 3, 6))
        assert report.passed, (suite, [c for i in report.instances for c in i.checks if not c.passed])


def test_roundtrip_suites_pass():
    report = run_batch("special-roundtrip", spread_configs("special-roundtrip", 3, 9, 3, 5))
    assert report.passed
    report = run_batch("m0-roundtrip", spread_configs("m0-roundtrip", 3, 9, 2, 4))
    assert report.passed


def test_reports_are_byte_identical_across_thread_counts():
    cfgs = spread_configs("general-props", 10, 33, 3, 8)
    serialized = {
        jobs: dumps_canonical(batch_report_to_dict(run_batch("general-props", cfgs, jobs=jobs)))
        for jobs in (1, 2, 4)
    }
    assert serialized[1] == serialized[2] == serialized[4]


@pytest.mark.parametrize("jobs", [1, 2, 4])
def test_instances_run_in_index_order_in_the_calling_thread(monkeypatch, jobs):
    # an error run_batch does not capture reaches the caller and stops
    # the batch: no later instance runs
    cfgs = spread_configs("general-props", 5, 33, 3, 8)
    ran = []

    def runner(cfg):
        ran.append((cfgs.index(cfg), threading.get_ident()))
        if cfg == cfgs[3]:
            raise TypeError("instance 3")
        return SUITES["general-props"](cfg)

    monkeypatch.setitem(SUITES, "raising", runner)
    with pytest.raises(TypeError, match="instance 3"):
        run_batch("raising", cfgs, jobs=jobs)
    assert ran == [(index, threading.get_ident()) for index in range(4)]



@pytest.mark.parametrize("index", [0, 1, 3])
def test_an_uncaught_error_in_any_thread_share_reaches_the_caller(monkeypatch, index):
    # the calling thread is the batch's one share at any jobs value: an
    # error run_batch does not capture surfaces from whichever instance
    # raises it, and the instances after it never start
    cfgs = spread_configs("general-props", 4, 33, 3, 8)
    ran = []

    def runner(cfg):
        ran.append(cfgs.index(cfg))
        if cfg == cfgs[index]:
            raise TypeError(f"instance {index}")
        return SUITES["general-props"](cfg)

    monkeypatch.setitem(SUITES, "raising", runner)
    with pytest.raises(TypeError, match=f"instance {index}"):
        run_batch("raising", cfgs, jobs=2)
    assert ran == list(range(index + 1))

def test_instance_failure_is_captured_not_raised(monkeypatch):
    # a sampler's exhausted retry budget on one config must surface as a
    # failed check on that instance; untouched instances still pass
    bad = SampleConfig(genus=3, mode="general", seed=0)
    good = SampleConfig(genus=3, mode="general", seed=5)

    def runner(cfg):
        if cfg == bad:
            raise RuntimeError("retry budget 1 exhausted sampling a general tower of genus 3")
        return SUITES["general-props"](cfg)

    monkeypatch.setitem(SUITES, "exhausting", runner)
    report = run_batch("exhausting", [bad, good])
    assert not report.passed
    first, second = report.instances
    assert not first.passed
    assert [c.name for c in first.checks] == ["instance-runs"]
    assert second.passed
    assert report.aggregate()["instance-runs"] == (0, 1)


def test_timing_field_is_separate_from_canonical_payload():
    report = run_batch("general-props", spread_configs("general-props", 2, 1, 3, 4))
    payload = batch_report_to_dict(report)
    assert "elapsed_seconds" not in payload

"""Batch orchestration: suites, parallel determinism, failure capture."""
from concurrent.futures import Future

import pytest

from trigonal import SUITES, SampleConfig, batch, run_batch, spread_configs
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


def _check_pool(monkeypatch, count, jobs, cpus, workers, shares):
    """Run ``count`` instances at ``jobs`` on ``cpus`` CPUs with a pool
    that records the workers it is asked for and the size of each share
    it is handed, running every share in the calling thread."""
    started, submitted = [], []

    class RecordingExecutor:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            submitted.append(len(future.result()))
            return future

    cfgs = spread_configs("general-props", count, 33, 3, 8)
    expected = dumps_canonical(batch_report_to_dict(run_batch("general-props", cfgs)))
    monkeypatch.setattr(batch, "ThreadPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(batch.os, "cpu_count", lambda: cpus)
    report = run_batch("general-props", cfgs, jobs=jobs)
    assert started == ([] if workers is None else [workers])
    assert submitted == shares
    assert dumps_canonical(batch_report_to_dict(report)) == expected


@pytest.mark.parametrize(
    "count, jobs, workers, shares",
    [(3, 6, 2, [1, 1]), (3, 2, 1, [1]), (5, 3, 2, [2, 1]), (1, 4, None, []), (0, 4, None, [])],
)
def test_the_pool_starts_no_worker_without_an_instance(monkeypatch, count, jobs, workers, shares):
    _check_pool(monkeypatch, count, jobs, 8, workers, shares)


@pytest.mark.parametrize(
    "count, jobs, cpus, workers, shares",
    [
        (6, 5000, 3, 2, [2, 2]),
        (5, 5000, 2, 1, [2]),
        (4, 2, 1, None, []),
        (4, 2, None, None, []),  # os.cpu_count() may not know
    ],
)
def test_the_pool_starts_no_more_shares_than_cpus(monkeypatch, count, jobs, cpus, workers, shares):
    _check_pool(monkeypatch, count, jobs, cpus, workers, shares)


@pytest.mark.parametrize("index", [0, 1, 3])
def test_an_uncaught_error_in_any_thread_share_reaches_the_caller(monkeypatch, index):
    # with jobs=2 the calling thread runs instances 0, 2, ... and the worker
    # 1, 3, ...; an error run_batch does not capture must surface from either
    cfgs = spread_configs("general-props", 4, 33, 3, 8)

    def runner(cfg):
        if cfg == cfgs[index]:
            raise TypeError(f"instance {index}")
        return SUITES["general-props"](cfg)

    monkeypatch.setitem(SUITES, "raising", runner)
    with pytest.raises(TypeError, match=f"instance {index}"):
        run_batch("raising", cfgs, jobs=2)


def test_instance_failure_is_captured_not_raised():
    # retry budget of one exhausts on this seed; the error must surface
    # as a failed check on that instance, untouched instances still pass
    bad = SampleConfig(genus=3, mode="general", seed=0, max_retries=1)
    good = SampleConfig(genus=3, mode="general", seed=5)
    report = run_batch("general-props", [bad, good])
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
    timed = batch_report_to_dict(report, include_timing=True)
    assert timed["elapsed_seconds"] == report.elapsed_seconds

"""Batch suites: sample many instances, run a named check set on each.

Instances are pure functions of their config and run one after another
in index order in the calling thread, so a report is byte-identical
for a fixed master seed.  The work is pure Python, which CPython runs
one thread at a time, so worker threads would add only hand-offs.
A report holds no wall-clock time; the command line prints that to
stderr.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .forward import component_tetragonal, construct, verify_predictions
from .inverse import STRATUM_M1, TetragonalCover, roundtrip, roundtrip_etale
from .report import CheckReport, CheckResult
from .sampling import (
    SAMPLE_M0,
    SampleConfig,
    derive_seed,
    sample_tetragonal,
    sample_tower,
)
from .towers import ETALE, GENERAL, SPECIAL


def _forward_suite(cfg: SampleConfig) -> CheckReport:
    tower = sample_tower(cfg)
    return verify_predictions(tower, construct(tower))


def _special_props(cfg: SampleConfig) -> CheckReport:
    tower = sample_tower(cfg)
    result = construct(tower)
    report = verify_predictions(tower, result)
    checks = list(report.checks)
    try:
        tetragonal = TetragonalCover(component_tetragonal(result))
        checks.append(
            CheckResult(
                "component-tetragonal-stratum",
                tetragonal.stratum == STRATUM_M1,
                f"stratum {tetragonal.stratum!r}",
            )
        )
        checks.append(
            CheckResult(
                "component-tetragonal-genus",
                tetragonal.genus == tower.genus,
                f"genus {tetragonal.genus} vs tower genus {tower.genus}",
            )
        )
    except (ValueError, AssertionError) as err:
        checks.append(CheckResult("component-tetragonal-stratum", False, str(err)))
    return CheckReport(report.title, tuple(checks))


def _special_roundtrip(cfg: SampleConfig) -> CheckReport:
    return roundtrip(sample_tower(cfg))


def _m0_roundtrip(cfg: SampleConfig) -> CheckReport:
    return roundtrip_etale(sample_tetragonal(cfg))


SUITES: dict[str, Callable[[SampleConfig], CheckReport]] = {
    "general-props": _forward_suite,
    "special-props": _special_props,
    "etale-forward": _forward_suite,
    "special-roundtrip": _special_roundtrip,
    "m0-roundtrip": _m0_roundtrip,
}

SUITE_MODES: dict[str, str] = {
    "general-props": GENERAL,
    "special-props": SPECIAL,
    "etale-forward": ETALE,
    "special-roundtrip": SPECIAL,
    "m0-roundtrip": SAMPLE_M0,
}


def spread_configs(
    suite: str, count: int, master_seed: int, genus_lo: int, genus_hi: int
) -> list[SampleConfig]:
    """Instance configs for a suite: genera cycle through the closed
    range, per-instance seeds derive from the master seed by index."""
    if suite not in SUITE_MODES:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(SUITE_MODES)}")
    if genus_lo > genus_hi:
        raise ValueError(f"empty genus range {genus_lo}..{genus_hi}")
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    mode = SUITE_MODES[suite]
    genera = range(genus_lo, genus_hi + 1)
    return [
        SampleConfig(
            genus=genera[i % len(genera)],
            mode=mode,
            seed=derive_seed(master_seed, i),
        )
        for i in range(count)
    ]


@dataclass(frozen=True)
class InstanceResult:
    index: int
    genus: int
    mode: str
    seed: int
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


@dataclass(frozen=True)
class BatchReport:
    suite: str
    instances: tuple[InstanceResult, ...]

    @property
    def passed(self) -> bool:
        return all(inst.passed for inst in self.instances)

    def aggregate(self) -> dict[str, tuple[int, int]]:
        """Per check name: (passes, failures) over all instances."""
        counts: dict[str, list[int]] = {}
        for inst in self.instances:
            for check in inst.checks:
                bucket = counts.setdefault(check.name, [0, 0])
                bucket[0 if check.passed else 1] += 1
        return {name: (p, f) for name, (p, f) in sorted(counts.items())}


def run_batch(suite: str, configs: Sequence[SampleConfig], jobs: int = 1) -> BatchReport:
    """Run a named suite over the configs in index order in the calling
    thread.

    ``jobs`` is kept for callers that pass it and must be positive; the
    report is the same at every value.  An empty config list yields an
    empty, passing report.  Unknown suite names are rejected up front.
    An instance's ``ValueError``, ``AssertionError`` or ``RuntimeError``
    becomes its failed ``instance-runs`` check; any other error reaches
    the caller and stops the batch.
    """
    try:
        runner = SUITES[suite]
    except KeyError:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}") from None
    if jobs < 1:
        raise ValueError("jobs must be positive")

    results = []
    for index, cfg in enumerate(configs):
        try:
            checks = runner(cfg).checks
        except (ValueError, AssertionError, RuntimeError) as err:
            checks = (CheckResult("instance-runs", False, str(err)),)
        results.append(InstanceResult(index, cfg.genus, cfg.mode, cfg.seed, checks))
    return BatchReport(suite, tuple(results))

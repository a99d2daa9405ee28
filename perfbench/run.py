"""Benchmark of the trigonal package: end-to-end and per-layer metrics.

One workload per run, in a fresh process, from a seed:

    python3 perfbench/run.py --workload forward --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --smoke     # every workload, tiny counts

Items run in a closed loop with one caller for ``--seconds`` seconds,
after one untimed warm-up item.  Every item's output is checked; an item
that fails a check or raises is counted, and the run goes on.  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it runs the items once untraced and once more traced (half the time
each) and reports the per-layer metrics, writing the spans to
``perfbench/traces/``.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it holds the environment, the canonical-output digest, the failure ratio
and the raw (unscaled) times.  Exit status: 0 when every item passed, 1
when one failed, 2 when the package sources are missing.

Times are reported at reference machine speed.  Load from other tenants
of a shared host moved this machine's speed by a third within minutes,
for the package and a fixed pure-Python loop alike.  So the run times
that loop in short slices between items, and divides every time by the
speed factor (median slice time / ``REFERENCE_SLICE_S``) and multiplies
every rate by it.  Each set-up probe is scaled by the factor measured
just before it, since the probes run after the timed loop.  The raw
figures and the factor are printed beside the result.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("forward", "roundtrip", "documents", "batch-jobs2")
PROBES = 7  # fresh interpreters timed per run; setup_s is their median
SMOKE_SECONDS = 0.3
SMOKE_POOL = 4
PROBE_TIMEOUT_S = 60
SLICE_ROUNDS = 20_000
REFERENCE_SLICE_S = 0.0016  # median slice time on 2 CPUs, Python 3.11.7, host quiet
SLICE_EVERY_S = 0.1


def calibration_slice() -> float:
    """Seconds this machine takes now for a fixed pure-Python loop."""
    started = time.perf_counter()
    x = 0
    for i in range(SLICE_ROUNDS):
        x = (x * 31 + i) % 1_000_003
    return time.perf_counter() - started


def git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


class Run:
    """Runs and checks items; keeps the first output of every key below the
    workload's digest count so repeats and the digest can be checked."""

    def __init__(self, workload, inject_fail: int | None):
        self.workload = workload
        self.inject_fail = inject_fail
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.first: dict[int, object] = {}
        self.passes: Counter[int] = Counter()
        self.slices: list[float] = []

    def fail(self, i: int, key: int, why: str) -> None:
        self.failed += 1
        if self.failed <= 5:
            print(f"perfbench: {self.workload.name} item {i} (input {key}) failed: {why}", file=sys.stderr)

    def item(self, i: int) -> float:
        """Run and check item ``i``; return its latency in seconds."""
        workload = self.workload
        key = workload.key(i)
        tracer = self.tracer
        self.attempted += 1
        if tracer is not None:
            tracer.item = i
        started = time.perf_counter()
        try:
            if i == self.inject_fail:
                raise RuntimeError("injected failure")
            output = workload.run(key)
        except Exception as err:  # a failing item is counted; the run goes on
            elapsed = time.perf_counter() - started
            self.fail(i, key, f"{type(err).__name__}: {err}")
            return elapsed
        finally:
            if tracer is not None:
                tracer.item = None  # the checks below are not the item's work
        elapsed = time.perf_counter() - started
        if not workload.passed(output):
            self.fail(i, key, "a check failed")
        elif key < workload.digest_count:
            if key not in self.first:
                self.first[key] = output
            elif workload.canonical(output) != workload.canonical(self.first[key]):
                self.fail(i, key, "output differs from an earlier run of the same input")
                return elapsed
            self.passes[key] += 1
        return elapsed

    def timed(self, first: int, seconds: float) -> tuple[list[float], float]:
        """Closed loop from item ``first`` until ``seconds`` have passed and
        every digest key has run, with a calibration slice every
        ``SLICE_EVERY_S``; returns latencies and wall time without the slices."""
        latencies = []
        i = first
        started = next_slice = time.perf_counter()
        in_slices = 0.0
        while True:
            latencies.append(self.item(i))
            i += 1
            now = time.perf_counter()
            if now >= next_slice:
                self.slices.append(calibration_slice())
                in_slices += self.slices[-1]
                next_slice = now + SLICE_EVERY_S
            wall = time.perf_counter() - started - in_slices
            if wall >= seconds and i >= self.workload.digest_count:
                return latencies, wall

    def verify(self) -> str:
        """Deeper per-key checks, then the digest of the canonical outputs."""
        workload = self.workload
        for key in sorted(self.first):
            if not workload.verify(key, self.first[key]):
                self.failed += self.passes[key]
                print(f"perfbench: {workload.name} input {key} failed verification", file=sys.stderr)
        digest = hashlib.sha256()
        for key in range(workload.digest_count):
            # a key whose every item failed is already counted; it digests as empty
            digest.update(workload.canonical(self.first[key]).encode() if key in self.first else b"")
        return digest.hexdigest()


def probe_setup(workload: str, seed: int, count: int) -> tuple[list[float], list[float], list[float]]:
    """Import and set-up seconds of ``count`` fresh interpreters, and the
    speed factor measured just before each."""
    imports, setups, factors = [], [], []
    for _ in range(count):
        factors.append(statistics.median(calibration_slice() for _ in range(3)) / REFERENCE_SLICE_S)
        out = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload, str(seed)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
        )
        if out.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {out.stderr.strip()}")
        timing = json.loads(out.stdout.splitlines()[-1])
        imports.append(timing["import_s"])
        setups.append(timing["setup_s"])
    return imports, setups, factors


def peak_rss_mib() -> float:
    # ru_maxrss is in KiB on Linux; children are worker processes, if any
    # (the set-up probes start later).
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def speedup_vs_jobs1(workload, first: int, latencies: list[float]) -> float:
    """jobs=1 time over jobs=2 time for the same calls (batch-jobs2 only)."""
    jobs1 = getattr(workload, "jobs1_seconds", None)
    if not jobs1:
        return 0.0
    by_key: dict[int, list[float]] = defaultdict(list)
    for offset, latency in enumerate(latencies):
        by_key[workload.key(first + offset)].append(latency)
    keys = [k for k in jobs1 if by_key[k]]
    jobs2 = sum(statistics.median(by_key[k]) for k in keys)
    return sum(jobs1[k] for k in keys) / jobs2 if jobs2 else 0.0


def at_reference_speed(metrics: dict, factor: float) -> dict:
    scale = {"ms": 1 / factor, "s": 1 / factor, "1/s": factor}
    return {name: (value * scale.get(unit, 1), unit) for name, (value, unit) in metrics.items()}


def run_workload(args) -> int:
    if not (ROOT / "src" / "trigonal" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {ROOT / 'src' / 'trigonal'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import spans
    from workloads import WORKLOADS

    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    calibration_start = calibration_slice()
    workload = WORKLOADS[args.workload](args.seed, pool=SMOKE_POOL if args.smoke else None)
    run = Run(workload, args.inject_fail)
    run.item(0)  # warm-up: the first item belongs to setup_s and is not timed again
    latencies, wall = run.timed(1, seconds / 2 if args.trace else seconds)
    rss_mib = peak_rss_mib()
    if args.trace:
        tracer = spans.Tracer()
        run.tracer = tracer
        tracer.install()
        traced = [run.item(i) for i in range(1, 1 + len(latencies))]
        tracer.uninstall()
        run.tracer = None
    imports, setups, probe_factors = probe_setup(args.workload, args.seed, 1 if args.smoke else PROBES)
    digest = run.verify()
    calibration_end = calibration_slice()
    factor = statistics.median(run.slices) / REFERENCE_SLICE_S

    info: dict = {"workload": args.workload, "seed": args.seed, "digest_sha256": digest}
    raw = {"setup_s": statistics.median(setups), "speed_factor_at_probes": probe_factors}
    imports = [t / f for t, f in zip(imports, probe_factors)]
    setups = [t / f for t, f in zip(setups, probe_factors)]
    if args.trace:
        metrics = spans.layer_metrics(tracer.spans, sum(traced), len(traced))
        raw.update((name, value) for name, (value, _) in metrics.items())
        metrics = at_reference_speed(metrics, factor)
        metrics.update(spans.import_metrics(imports, setups))
        metrics["trace.overhead_ratio"] = (sum(traced) / sum(latencies), "ratio")
        metrics["batch.speedup_vs_jobs1"] = (speedup_vs_jobs1(workload, 1, latencies), "ratio")
        (HERE / "traces").mkdir(exist_ok=True)
        trace_path = HERE / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_path)
        info.update(trace_file=str(trace_path.relative_to(ROOT)), spans=len(tracer.spans))
    else:
        tail_value, tail_percentile = spans.tail(latencies)
        metrics = {
            "throughput_per_s": (len(latencies) / wall, "1/s"),
            "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "latency_tail_ms": (tail_value * 1e3, "ms"),
        }
        raw.update((name, value) for name, (value, _) in metrics.items())
        metrics = at_reference_speed(metrics, factor)
        metrics["setup_s"] = (statistics.median(setups), "s")
        metrics["peak_rss_mib"] = (rss_mib, "MiB")
        info.update(
            latency_tail_percentile=tail_percentile,
            latency_samples=len(latencies),
            setup_samples=len(setups),
        )
    info["raw"] = raw
    failed_ratio = run.failed / run.attempted
    info["failed_ratio"] = failed_ratio
    info["environment"] = {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(),
        "seed": args.seed,
        "calibration_start_s": calibration_start,
        "calibration_end_s": calibration_end,
        "calibration_slices": len(run.slices),
        "speed_factor": factor,
    }

    print(f"{args.workload} seed {args.seed}: {run.attempted} items, {run.failed} failed")
    print(f"  {'failed_ratio':<40} {failed_ratio:.6g} ratio")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:.6g} {unit}")
    print(json.dumps(info, sort_keys=True))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if run.failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    status = 0
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        if args.smoke:
            command.append("--smoke")
        sys.stdout.flush()
        status = max(status, subprocess.run(command).returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the trigonal package.")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help=f"{SMOKE_SECONDS}s, tiny input pools, one probe")
    parser.add_argument(
        "--inject-fail", type=int, default=None, metavar="ITEM",
        help="make item ITEM raise (tests the failure accounting)",
    )
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())

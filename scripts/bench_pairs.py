"""Paired parent/change benchmark record, written as a ``BENCH_*.json``.

Extracts two revisions of this repository with ``git archive`` and runs
``perfbench/run.py`` from each, for every workload and run length that
``BENCHMARK.json`` declares, one pair of runs per seed, alternating
which side runs first:

    python3 scripts/bench_pairs.py --parent HEAD~1 --change HEAD \\
        --seeds 101-110 --out BENCH_9.json

Each pair also times the one-shot CLI commands in ``ONE_SHOT``, each in
a fresh interpreter so every memo starts empty: the time from calling
``cli.main`` to its return, import excluded (``setup_s`` covers that),
the median of ``ONE_SHOT_REPEATS`` processes per side and pair.  A full
``gc.collect()`` runs after the import and before the clock starts, so
a change to what is imported does not move a collection into ``main``.
These are raw wall times, so the two sides' processes alternate one by one
(parent, change, parent, ...; the first side alternating by pair as for
the runs): host speed drifting over the minutes then reaches both sides
alike.

The record holds, per workload and end-to-end metric and per one-shot
command, both sides' per-pair values, medians and quartiles, the
change/parent ratio of the medians, and in how many pairs the change
was better; beside ``latency_tail_ms``, each run's tail percentile and
latency sample count; also the failed item counts, whether the
canonical-output digests agreed in every pair, the seeds, the run
length, both revisions, the CPU count and the Python version.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ONE_SHOT = {
    "construct": ["construct", "--in", "tests/fixtures/tower_general_g3.json"],
    "invert": ["invert", "--in", "tests/fixtures/tetragonal_m0_g2.json"],
    "sample": ["sample", "--mode", "general", "--genus", "8", "--seed", "1"],
}
ONE_SHOT_REPEATS = 5
TIME_MAIN = (
    "import gc, sys, time; from trigonal.cli import main; gc.collect(); "
    "t = time.perf_counter(); status = main(sys.argv[1:]); "
    "print(time.perf_counter() - t); sys.exit(status)"
)


def resolve(revision: str) -> str:
    out = subprocess.run(
        ["git", "rev-parse", "--verify", f"{revision}^{{commit}}"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return out.stdout.strip()


def extract(revision: str, into: Path) -> Path:
    archive = into / f"{revision}.tar"
    subprocess.run(["git", "archive", "--output", str(archive), revision], cwd=ROOT, check=True)
    target = into / revision
    with tarfile.open(archive) as tar:
        tar.extractall(target)
    archive.unlink()
    return target


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True,
    )
    lines = out.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} in {tree}: no result\n{out.stderr}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def one_shot_ms(tree: Path, argv: list[str], out: Path) -> float:
    """Time of ``cli.main(argv)`` in one fresh interpreter, in ms."""
    done = subprocess.run(
        [sys.executable, "-c", TIME_MAIN, *argv, "--out", str(out)],
        cwd=tree, env={**os.environ, "PYTHONPATH": "src"},
        capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{argv} in {tree}: exit {done.returncode}\n{done.stderr}")
    return 1000 * float(done.stdout.split()[-1])


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3


def compare(sides: dict[str, list[float]], unit: str, better: str) -> dict:
    higher = better == "higher"
    won = sum((c > p) if higher else (c < p) for p, c in zip(sides["parent"], sides["change"]))
    medians = {side: statistics.median(values) for side, values in sides.items()}
    return {
        "unit": unit,
        "better": better,
        **{f"{side}_values": values for side, values in sides.items()},
        **{f"{side}_median": medians[side] for side in sides},
        **{f"{side}_quartiles": quartiles(values) for side, values in sides.items()},
        "ratio_change_to_parent": medians["change"] / medians["parent"],
        "pairs_change_better": won,
    }


def summarize(spec: dict, runs: dict) -> dict:
    metrics = {
        metric["name"]: compare(
            {side: [r[1]["metrics"][metric["name"]]["value"] for r in runs[side]] for side in runs},
            metric["unit"], metric["better"],
        )
        for metric in spec["end_to_end"]
    }
    # the tail is the highest percentile with ten samples beyond it, so it
    # depends on each run's sample count: keep both beside the values
    tail = metrics["latency_tail_ms"]
    for side in runs:
        tail[f"{side}_tail_percentiles"] = [r[0]["latency_tail_percentile"] for r in runs[side]]
        tail[f"{side}_latency_samples"] = [r[0]["latency_samples"] for r in runs[side]]
    return metrics


def parse_seeds(text: str) -> list[int]:
    first, last = map(int, text.split("-"))
    return list(range(first, last + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="parent revision")
    parser.add_argument("--change", required=True, help="changed revision")
    parser.add_argument("--seeds", default="101-110", help="seed range a-b, one pair per seed")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    seeds = parse_seeds(args.seeds)
    revisions = {"parent": resolve(args.parent), "change": resolve(args.change)}
    record = {
        "parent_revision": revisions["parent"],
        "change_revision": revisions["change"],
        "command": "python3 perfbench/run.py --workload W --seed S --seconds T",
        "seconds": seconds,
        "seeds": seeds,
        "pairs": len(seeds),
        "order": (
            "per workload, seed by seed; parent runs first at even seed positions, change first "
            "at odd ones; one-shot processes alternate side by side within each pair "
            "(parent, change, parent, ... or change, parent, ...), first side as for the runs; "
            "each one-shot process runs gc.collect() after importing trigonal.cli, before its clock starts"
        ),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "one_shot_command": f"PYTHONPATH=src python3 -c '{TIME_MAIN}' ARGS --out FILE",
        "one_shot_args": ONE_SHOT,
        "one_shot_repeats": ONE_SHOT_REPEATS,
        "workloads": {},
        "one_shot": {},
    }
    with tempfile.TemporaryDirectory() as scratch:
        trees = {side: extract(rev, Path(scratch)) for side, rev in revisions.items()}
        for workload in (w["name"] for w in spec["workloads"]):
            runs: dict[str, list] = {"parent": [], "change": []}
            for i, seed in enumerate(seeds):
                for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                    runs[side].append(run_once(trees[side], workload, seed, seconds))
                    print(f"{workload} seed {seed} {side}: "
                          f"{runs[side][-1][1]['metrics']['throughput_per_s']['value']:.1f}/s",
                          file=sys.stderr)
            record["workloads"][workload] = {
                "failed": {side: sum(r[1]["failed"] for r in runs[side]) for side in runs},
                "digests_equal_every_pair": all(
                    p[0]["digest_sha256"] == c[0]["digest_sha256"]
                    for p, c in zip(runs["parent"], runs["change"])
                ),
                "metrics": summarize(spec, runs),
            }
        out = Path(scratch) / "out.json"
        for name, argv in ONE_SHOT.items():
            times: dict[str, list[float]] = {"parent": [], "change": []}
            for i in range(len(seeds)):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair: dict[str, list[float]] = {side: [] for side in order}
                for _ in range(ONE_SHOT_REPEATS):
                    for side in order:
                        pair[side].append(one_shot_ms(trees[side], argv, out))
                for side in order:
                    times[side].append(statistics.median(pair[side]))
            record["one_shot"][name] = compare(times, "ms", "lower")
    Path(args.out).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Layer spans recorded from outside the package.

A span wraps one public function at every ``trigonal.*`` module
attribute that refers to it, so calls the package makes internally are
recorded under the name their caller looks up, not only the benchmark's
own calls.  Spans are kept in memory as tuples and written out when the
run ends.  A span whose function no longer exists records zero calls.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
import statistics
import sys
import threading
import time
from collections import defaultdict


def _labels(result) -> int:
    return len(result.cover.labels)


def _chars(text: str) -> int:
    # json.dumps escapes non-ASCII by default, so characters are bytes.
    return len(text)


# (span name, module, attributes wrapped, work counted from the result)
SPANS: tuple[tuple[str, str, tuple[str, ...], object], ...] = (
    ("sampling.sample_tower", "trigonal.sampling", ("sample_tower",), _labels),
    ("sampling.sample_tetragonal", "trigonal.sampling", ("sample_tetragonal",), _labels),
    ("towers.validate_tower", "trigonal.towers", ("validate_tower",), None),
    ("forward.construct", "trigonal.forward", ("construct",), None),
    ("forward.verify_predictions", "trigonal.forward", ("verify_predictions",), None),
    ("forward.component_tetragonal", "trigonal.forward", ("component_tetragonal",), None),
    ("inverse.TetragonalCover", "trigonal.inverse", ("TetragonalCover.__post_init__",), None),
    ("inverse.invert", "trigonal.inverse", ("invert",), None),
    ("inverse.as_tower", "trigonal.inverse", ("as_tower",), None),
    ("inverse.glue_special", "trigonal.inverse", ("glue_special",), None),
    ("inverse.match_glued", "trigonal.inverse", ("match_glued",), None),
    ("covers.components", "trigonal.covers", ("components",), None),
    ("covers.are_isomorphic", "trigonal.covers", ("are_isomorphic",), None),
    ("jsonio.decode", "trigonal.jsonio", ("tower_from_dict", "tetragonal_from_dict"), _labels),
    (
        "jsonio.to_dict",
        "trigonal.jsonio",
        ("forward_result_to_dict", "inverse_result_to_dict", "check_report_to_dict", "batch_report_to_dict"),
        None,
    ),
    ("jsonio.dumps_canonical", "trigonal.jsonio", ("dumps_canonical",), _chars),
    ("batch.run_batch", "trigonal.batch", ("run_batch",), None),
)
IMPORT_SPAN = "cli.import"  # timed by the set-up probes, not wrapped
WORK_LABELS = ("sampling.sample_tower", "sampling.sample_tetragonal", "jsonio.decode")

# span tuple fields
ID, NAME, START, END, PARENT, ITEM, THREAD, ERROR, WORK = range(9)


TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)


def tail(values) -> tuple[float, float]:
    """(value, percentile) at the highest percentile of ``TAIL_LADDER``
    (nearest rank) with at least ten samples beyond it; the maximum, as
    percentile 100, when no percentile has."""
    ordered = sorted(values)
    count = len(ordered)
    for percentile in TAIL_LADDER:
        rank = math.ceil(count * percentile / 100)
        if count - rank >= 10:
            return ordered[rank - 1], percentile
    return ordered[-1], 100.0


class Tracer:
    """Records spans while installed and an item is running.  ``item`` is
    the id of the item the single caller runs; worker threads read it too."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.item: int | None = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "trigonal" or n.startswith("trigonal.")]
        for name, module, attrs, work in SPANS:
            home = sys.modules[module]
            for attr in attrs:
                owner_name, _, method = attr.rpartition(".")
                if owner_name:  # a method: patch it on its class
                    owner = getattr(home, owner_name, None)
                    original = getattr(owner, method, None)
                    if original is not None:
                        self._set(owner, method, self._wrap(name, original, work))
                    continue
                original = getattr(home, attr, None)
                if original is None:
                    continue
                wrapped = self._wrap(name, original, work)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, key, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, name: str, fn, work):
        local = self._local
        spans = self.spans
        ids = self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            item = self.item
            if item is None:  # outside an item: the benchmark's own checks
                return fn(*args, **kwargs)
            stack = local.__dict__.setdefault("stack", [])
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            result = None
            error = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                error = False
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                amount = work(result) if work is not None and not error else 0
                spans.append(
                    (span_id, name, start, end, parent, item, threading.get_ident(), error, amount)
                )

        return traced

    def write(self, path) -> None:
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def layer_metrics(spans, item_seconds: float, items: int) -> dict[str, tuple[float, str]]:
    """Per-span calls, errors, median and tail ms, and share of item time
    (self time: duration minus direct children in the same thread), plus
    exact work counts per item and the item time no span covers.  Spans in
    batch's worker threads overlap the caller's ``run_batch`` span, so on
    batch-jobs2 the shares sum past 1."""
    children: dict[int, float] = defaultdict(float)
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]] += span[END] - span[START]
    durations: dict[str, list[float]] = defaultdict(list)
    self_time: dict[str, float] = defaultdict(float)
    errors: dict[str, int] = defaultdict(int)
    work: dict[str, int] = defaultdict(int)
    intervals: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        name, duration = span[NAME], span[END] - span[START]
        durations[name].append(duration)
        self_time[name] += duration - children[span[ID]]
        errors[name] += span[ERROR]
        work[name] += span[WORK]
        intervals[span[ITEM]].append((span[START], span[END]))

    metrics: dict[str, tuple[float, str]] = {}
    for name, *_ in SPANS:
        times = durations.get(name, [])
        metrics[f"{name}.calls"] = (len(times), "count")
        metrics[f"{name}.errors"] = (errors[name], "count")
        metrics[f"{name}.ms_p50"] = (statistics.median(times) * 1e3 if times else 0.0, "ms")
        metrics[f"{name}.ms_tail"] = (tail(times)[0] * 1e3 if times else 0.0, "ms")
        metrics[f"{name}.share"] = (self_time[name] / item_seconds if item_seconds else 0.0, "ratio")

    covered = 0.0
    for pieces in intervals.values():
        pieces.sort()
        lo, hi = pieces[0]
        for start, end in pieces[1:]:
            if start > hi:
                covered += hi - lo
                lo, hi = start, end
            else:
                hi = max(hi, end)
        covered += hi - lo
    metrics["trace.unaccounted_share"] = (max(0.0, 1.0 - covered / item_seconds) if item_seconds else 0.0, "ratio")
    metrics["work.labels"] = (sum(work[n] for n in WORK_LABELS) / items if items else 0.0, "labels/item")
    metrics["jsonio.dumps_canonical.bytes"] = (
        work["jsonio.dumps_canonical"] / items if items else 0.0,
        "bytes/item",
    )
    return metrics


def import_metrics(import_seconds: list[float], setup_seconds: list[float]) -> dict[str, tuple[float, str]]:
    """The ``cli.import`` span from the set-up probes; its share is of set-up time."""
    return {
        f"{IMPORT_SPAN}.calls": (len(import_seconds), "count"),
        f"{IMPORT_SPAN}.errors": (0, "count"),
        f"{IMPORT_SPAN}.ms_p50": (statistics.median(import_seconds) * 1e3, "ms"),
        f"{IMPORT_SPAN}.ms_tail": (tail(import_seconds)[0] * 1e3, "ms"),
        f"{IMPORT_SPAN}.share": (statistics.median(import_seconds) / statistics.median(setup_seconds), "ratio"),
    }

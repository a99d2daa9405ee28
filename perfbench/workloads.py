"""The benchmark's workloads: what one item is, how its inputs follow
from the seed, and how its output is checked.

Items are numbered from 0.  ``key(i)`` names the distinct input that
item ``i`` runs; a pooled workload cycles through ``pool`` keys, so every
repeat of a key must reproduce the first output byte for byte.  The
package is reached only through its public functions, looked up as
module attributes at call time, so the tracer's wrappers see every call.

Which layer each workload exercises, as spans (see ``spans.py``), and
the end-to-end metric a change to that layer should move:

| span                                          | should move                          | on                                         |
|-----------------------------------------------|--------------------------------------|--------------------------------------------|
| sampling.sample_tower, sampling.sample_tetragonal | latency_p50_ms, throughput_per_s | forward, roundtrip (not documents)         |
| towers.validate_tower (via decode / as_tower) | latency_p50_ms                       | documents, roundtrip                       |
| forward.construct, forward.verify_predictions, forward.component_tetragonal | throughput_per_s | forward, documents; construct also roundtrip |
| inverse.TetragonalCover, inverse.invert, inverse.as_tower, inverse.glue_special, inverse.match_glued | throughput_per_s, latency_tail_ms | roundtrip, documents (m0 items) |
| covers.components, covers.are_isomorphic      | latency_p50_ms                       | roundtrip                                  |
| jsonio.decode, jsonio.to_dict, jsonio.dumps_canonical | throughput_per_s             | documents, batch-jobs2                     |
| batch.run_batch                               | throughput_per_s, latency_tail_ms    | batch-jobs2                                |
| cli.import                                    | setup_s                              | all                                        |
"""
from __future__ import annotations

import json
import time

import trigonal
from trigonal import jsonio
from trigonal.batch import SUITE_MODES
from trigonal.sampling import SAMPLE_M0


class Workload:
    """Base: unpooled, every item is a distinct input."""

    name = ""
    why = ""
    pool = 0  # 0: every item is its own key
    digest_count = 48  # the digest covers the outputs of keys 0 .. digest_count - 1

    def __init__(self, seed: int, pool: int | None = None):
        """``pool`` shrinks the key cycle (pooled workloads) and the digest
        to its first ``pool`` keys, for smoke runs and set-up probes."""
        self.seed = seed
        if pool is not None:
            self.digest_count = pool
            if self.pool:
                self.pool = pool

    def key(self, i: int) -> int:
        return i % self.pool if self.pool else i

    def run(self, key: int):
        raise NotImplementedError

    def passed(self, output) -> bool:
        return output[0]  # outputs are (passed, canonical text) unless overridden

    def canonical(self, output) -> str:
        return output[1]

    def verify(self, key: int, output) -> bool:
        """Deeper check, made once per distinct key outside the timed loop."""
        return True


class _SingleInstance(Workload):
    """One sampled instance per item, through ``run_batch(suite, [cfg], jobs=1)``."""

    plan: tuple[tuple[str, int], ...] = ()  # (suite, lowest genus), interleaved by item
    genus_span = 6

    def run(self, key: int):
        suite, genus_lo = self.plan[key % len(self.plan)]
        genus = genus_lo + (key // len(self.plan)) % self.genus_span
        cfg = trigonal.SampleConfig(
            genus=genus, mode=SUITE_MODES[suite], seed=trigonal.derive_seed(self.seed, key)
        )
        return trigonal.run_batch(suite, [cfg], jobs=1)

    def passed(self, output) -> bool:
        return output.passed and len(output.instances) == 1

    def canonical(self, output) -> str:
        return jsonio.dumps_canonical(jsonio.batch_report_to_dict(output))


class Forward(_SingleInstance):
    # The acceptance gate's main traffic.  Measured shares: sampling ~45%,
    # construct 27-33%, verify_predictions ~25%.  invert and match_glued do
    # no work here, so this workload bypasses inverse-side changes.
    name = "forward"
    why = (
        "general-props, special-props and etale-forward instances at g 3..8: the acceptance "
        "gate's main traffic; sampling, construct, verify; bypasses the inverse side"
    )
    plan = (("general-props", 3), ("special-props", 3), ("etale-forward", 3))


class Roundtrip(_SingleInstance):
    # The only workload where inverse and the isomorphism search in covers
    # run.  Shares: invert 12-18%, glue_special 11%, as_tower 16%,
    # components 7-11%.  verify_predictions does no work here, so a
    # verify-only change should not move it.
    name = "roundtrip"
    why = (
        "special-roundtrip (g 3..8) and m0-roundtrip (g 2..7): the only workload running "
        "invert and the isomorphism search; verify_predictions idle"
    )
    plan = (("special-roundtrip", 3), ("m0-roundtrip", 2))


DOCUMENT_MODES = (trigonal.GENERAL, trigonal.SPECIAL, trigonal.ETALE, SAMPLE_M0)
DOCUMENT_GENERA = range(12, 33)


class Documents(Workload):
    # Covers with 28-68 labels instead of 10-20, so per-label kernel cost
    # outweighs per-instance overhead.  jsonio is ~40% of the time
    # (dumps_canonical alone 17%) against ~2% in the batch workloads.  The
    # documents are sampled during set-up, untimed, so this workload
    # bypasses sampler changes.
    name = "documents"
    why = (
        "canonical tower (three modes) and m0 cover documents at g 12..32 through the body of "
        "trigonal construct / invert: large covers, jsonio-heavy, no sampling"
    )
    pool = digest_count = len(DOCUMENT_MODES) * len(DOCUMENT_GENERA)  # each mode at each genus once

    def __init__(self, seed: int, pool: int | None = None):
        super().__init__(seed, pool)
        self.documents = [self._document(k) for k in range(self.pool)]

    def _document(self, key: int) -> tuple[str, str]:
        mode = DOCUMENT_MODES[key % len(DOCUMENT_MODES)]
        genus = DOCUMENT_GENERA[(key // len(DOCUMENT_MODES)) % len(DOCUMENT_GENERA)]
        cfg = trigonal.SampleConfig(genus=genus, mode=mode, seed=trigonal.derive_seed(self.seed, key))
        if mode == SAMPLE_M0:
            payload = jsonio.cover_to_dict(trigonal.sample_tetragonal(cfg).cover)
        else:
            payload = jsonio.tower_to_dict(trigonal.sample_tower(cfg))
        return mode, jsonio.dumps_canonical(payload)

    def run(self, key: int):
        mode, text = self.documents[key]
        payload = json.loads(text)
        if mode == SAMPLE_M0:
            result = trigonal.invert(jsonio.tetragonal_from_dict(payload))
            return True, jsonio.dumps_canonical(jsonio.inverse_result_to_dict(result))
        tower = jsonio.tower_from_dict(payload)
        result = trigonal.construct(tower)
        report = trigonal.verify_predictions(tower, result)
        return report.passed, (
            jsonio.dumps_canonical(jsonio.forward_result_to_dict(result))
            + jsonio.dumps_canonical(jsonio.check_report_to_dict(report))
        )

    def verify(self, key: int, output) -> bool:
        # construct items carry their own check report; an inverted m0 cover
        # must survive the etale round trip back to itself.
        mode, text = self.documents[key]
        if mode != SAMPLE_M0:
            return True
        return trigonal.roundtrip_etale(jsonio.tetragonal_from_dict(json.loads(text))).passed


class BatchJobs2(Workload):
    # The only workload where batch's worker pool runs (jobs = nproc = 2).
    # Calls are small (20 configs, the CLI's default --count), so the cost of
    # starting the pool counts: a process pool that helps only long batches
    # shows its cost here.  verify() holds each call to the jobs=1 bytes.
    name = "batch-jobs2"
    why = (
        "run_batch at jobs=2 over 20 configs (the CLI default), cycling all five suites at "
        "g 3..8, then report dict and canonical dump: the only workload using the pool"
    )
    pool = digest_count = 20
    jobs = 2
    count = 20

    def __init__(self, seed: int, pool: int | None = None):
        super().__init__(seed, pool)
        self.jobs1_seconds: dict[int, float] = {}

    def _report_text(self, key: int, jobs: int) -> tuple[bool, str]:
        suites = sorted(trigonal.SUITES)
        suite = suites[key % len(suites)]
        configs = trigonal.spread_configs(suite, self.count, trigonal.derive_seed(self.seed, key), 3, 8)
        report = trigonal.run_batch(suite, configs, jobs=jobs)
        return report.passed, jsonio.dumps_canonical(jsonio.batch_report_to_dict(report))

    def run(self, key: int):
        return self._report_text(key, self.jobs)

    def verify(self, key: int, output) -> bool:
        started = time.perf_counter()
        reference = self._report_text(key, 1)
        self.jobs1_seconds[key] = time.perf_counter() - started
        return reference == output


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (Forward, Roundtrip, Documents, BatchJobs2)
}

"""``index_build``: offline, serial index creation and one append.

Synthetic SNOMED at scale 10 (about 3.7k concepts, so OntoScore
expansion is a real share of the work) and a 60-patient corpus. The
run builds the paper's radius-2 experiment vocabulary into a fresh
SQLite store (the CLI default format, serial as with the CLI default
``--workers 1``), then appends 10 new patients, drawn from the EMR
generator with the run's seed, as one LSM segment. OntoScore
expansion, NodeScores, DIL encoding and storage writes do all the
work; the query and server layers do none.

Every engine here scores against one element index over all 70
documents, as the repository's incremental-equals-rebuild tests do, so
the appended index can be compared exactly with a rebuild.

The calibration kernel (``calibrate.py``) runs once every
``CALIBRATE_EVERY`` keyword builds and every ``CALIBRATE_EVERY``
posting-list writes, from wrappers around the engine builder's
``build_keyword`` and the stores' ``put_postings``. Its time is left
out of the phases' times; each keyword's build time is scaled by the
slowdown of the readings around it, and the build time stretch by
stretch between readings (``Speed.scaled``). Readings taken during the
keyword builds alone missed the posting-list writes, 40% of the build,
and the throughput spread 22-27% over five seeds.
"""

from __future__ import annotations

import gc
import os
import shutil
import time
from statistics import median

from calibrate import Speed
from common import (TOP_K, Outcome, beyond, curated_queries,
                    make_dataset, peak_rss_mb, scratch_dir)
from tracing import OP, setup_metrics

SCALE = 10.0
APPEND_PATIENTS = 10
SETUP_REPEATS = 3
#: Keyword builds between two calibration readings (about 0.1 s).
CALIBRATE_EVERY = 10
#: Calibration burst before and after each set-up, in seconds.
SETUP_BURST_S = 0.25


class Setup:
    """Dataset plus the pinned scoring substrate shared by engines."""

    def __init__(self, seed: int) -> None:
        from repro.core.config import DEFAULT_CONFIG
        from repro.core.scoring import ElementIndex
        from repro.xmldoc.model import Corpus
        self.times = {}
        started = time.perf_counter()
        dataset = make_dataset(scale=SCALE, append_seed=seed,
                               append_patients=APPEND_PATIENTS)
        self.times["corpus_s"] = time.perf_counter() - started
        started = time.perf_counter()
        self.dataset = dataset
        self.base = list(dataset.corpus)
        self.documents = self.base + dataset.extra
        config = DEFAULT_CONFIG
        self.element_index = ElementIndex(
            Corpus(self.documents), text_policy=config.text_policy,
            concept_resolver=dataset.terminology.resolve,
            k1=config.bm25_k1, b=config.bm25_b,
            ir_function=config.ir_function)
        self.engine = self.pinned_engine(self.base)
        self.times["engine_s"] = time.perf_counter() - started

    def pinned_engine(self, documents):
        """An engine over ``documents`` whose scores come from the
        shared 70-document element index."""
        from repro.core.config import DEFAULT_CONFIG, RELATIONSHIPS
        from repro.core.index.builder import IndexBuilder
        from repro.core.ontoscore.factory import make_ontoscore
        from repro.core.query.engine import XOntoRankEngine
        from repro.core.query.federated import ShardScopedBuilder
        from repro.xmldoc.model import Corpus
        ontology = self.dataset.ontology
        builder = ShardScopedBuilder(
            IndexBuilder(self.element_index,
                         make_ontoscore(RELATIONSHIPS, ontology,
                                        DEFAULT_CONFIG)),
            frozenset(document.doc_id for document in documents))
        return XOntoRankEngine(Corpus(list(documents)), ontology,
                               builder=builder)


def band_mean(values: list[float], centre: float,
              half_width: float) -> float:
    """The mean of the values from the ``centre - half_width`` to the
    ``centre + half_width`` quantile: the per-keyword ``p50_ms``
    (0.25-0.75) and ``p99_ms`` (0.985-0.995).

    The keyword build times have a cliff at the median, between the
    keywords without ontology expansion and those with it (0.4 ms at
    the 45th percentile, 1.4 ms at the 55th), so the plain median
    moved 18% between seeds as noise reordered the keywords near it,
    and the mean of the middle fifth 16-18%; the 99th percentile, one
    of the 13 slowest keywords, moved 15%. A mean over the band does
    not depend on which keyword lands exactly at the quantile."""
    ordered = sorted(values)
    low = int(len(ordered) * (centre - half_width))
    high = max(low + 1, int(len(ordered) * (centre + half_width)))
    band = ordered[low:high]
    return sum(band) / len(band)


class Calibrated:
    """Calibration readings inside the build: every ``CALIBRATE_EVERY``
    calls of the engine builder's ``build_keyword`` (before the call)
    and of a store's ``put_postings``. Keeps each keyword's start time
    and build time, and the start and end of each timed phase."""

    def __init__(self, builder, speed: Speed) -> None:
        self.speed = speed
        self.keywords: list[tuple[float, float]] = []
        self.phases: dict[str, tuple[float, float]] = {}
        original = builder.build_keyword

        def build_keyword(keyword):
            if len(self.keywords) % CALIBRATE_EVERY == 0:
                speed.sample()
            started = time.perf_counter()
            dil, stats = original(keyword)
            self.keywords.append((started, stats.creation_time_ms))
            return dil, stats
        builder.build_keyword = build_keyword

    def wrap_store(self, store) -> None:
        original = store.put_postings
        calls = [0]

        def put_postings(*args):
            if calls[0] % CALIBRATE_EVERY == 0:
                self.speed.sample()
            calls[0] += 1
            return original(*args)
        store.put_postings = put_postings

    def phase_s(self, name: str) -> tuple[float, float]:
        """A phase's seconds as timed (readings left out) and at the
        reference speed."""
        start, end = self.phases[name]
        taken = sum(reading for reading, at
                    in zip(self.speed.readings, self.speed.at)
                    if start <= at < end)
        return end - start - taken, self.speed.scaled(start, end)

    def keyword_ms(self) -> tuple[list[float], list[float]]:
        """Each keyword's build time as timed and at the reference
        speed."""
        raw = [elapsed for _, elapsed in self.keywords]
        slowdowns = self.speed.local_slowdowns(
            [started for started, _ in self.keywords])
        return raw, [elapsed / slowdown
                     for elapsed, slowdown in zip(raw, slowdowns)]


def build_and_append(setup: Setup, path: str, recorder=None,
                     calibrated: Calibrated | None = None):
    """Full build into a fresh SQLite store, then the append; returns
    (index, build_s, append_s). With a ``recorder`` both are ``op``
    spans and the stores' writes are traced. With ``calibrated`` (the
    wrapper installed on the engine's builder) the stores are wrapped
    too and the phases' start and end are kept on it."""
    from repro.storage.manifest import atomic_sqlite_build
    from repro.storage.sqlite_store import SQLiteStore
    from tracing import trace_store_writes
    engine = setup.engine
    started = time.perf_counter()
    with atomic_sqlite_build(path) as store:
        if calibrated is not None:
            calibrated.wrap_store(store)
        if recorder is None:
            index = engine.build_index(radius=2, store=store)
        else:
            trace_store_writes(recorder, store)
            with recorder.span(OP, request=0):
                index = engine.build_index(radius=2, store=store)
    ended = time.perf_counter()
    build_s = ended - started
    if calibrated is not None:
        calibrated.phases["build"] = (started, ended)
    with SQLiteStore(path) as store:
        if calibrated is not None:
            calibrated.wrap_store(store)
        started = time.perf_counter()
        if recorder is None:
            engine.add_documents(setup.dataset.extra, store)
        else:
            trace_store_writes(recorder, store)
            with recorder.span(OP, request=1):
                engine.add_documents(setup.dataset.extra, store)
        ended = time.perf_counter()
        append_s = ended - started
    if calibrated is not None:
        calibrated.phases["append"] = (started, ended)
    return index, build_s, append_s


def check(setup: Setup, path: str) -> tuple[int, int]:
    """Correctness gates; returns (attempted, failed). The store must
    pass manifest verification, and a read-through engine over the
    appended store must rank the 20 curated queries exactly as a
    from-scratch engine over all 70 documents does."""
    from repro.storage import verify_manifest
    from repro.storage.sqlite_store import SQLiteStore
    failed = 0
    with SQLiteStore(path, read_only=True) as store:
        failed += not verify_manifest(store).ok
        reader = setup.pinned_engine(setup.documents)
        reader.attach_read_store(store)
        rebuilt = setup.pinned_engine(setup.documents)
        queries = curated_queries()
        for query in queries:
            failed += (reader.search(query, k=TOP_K)
                       != rebuilt.search(query, k=TOP_K))
    return 1 + len(queries), failed


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.core.stats import (APPEND_KEYWORDS_BUILT,
                                  APPEND_KEYWORDS_SKIPPED)
    setup_totals = []
    setup_raw = []
    for _ in range(SETUP_REPEATS):
        setup = None  # drop the previous set-up before the next one
        gc.collect()
        speed = Speed()
        speed.burst(SETUP_BURST_S)
        setup = Setup(seed)
        speed.burst(SETUP_BURST_S)
        setup_raw.append(sum(setup.times.values()))
        setup_totals.append(setup_raw[-1] / speed.slowdown())
    # Timing starts from a heap without the earlier set-ups' garbage:
    # left for the collector, it made later keyword builds pay for
    # collections over a growing heap (the mean rose 15% per set-up).
    gc.collect()
    work = scratch_dir("index_build-")
    try:
        path = os.path.join(work, "index.db")
        speed = Speed()
        calibrated = Calibrated(setup.engine.builder, speed)
        index, _, _ = build_and_append(setup, path, calibrated=calibrated)
        build_s, scaled_build_s = calibrated.phase_s("build")
        append_s, scaled_append_s = calibrated.phase_s("append")
        built_keywords = len(index.stats)
        raw_ms, keyword_ms = calibrated.keyword_ms()
        build_ms = keyword_ms[:built_keywords]
        store_bytes = os.path.getsize(path)
        postings = index.total_postings()
        attempted, failed = check(setup, path)
        stats = setup.engine.stats
        built = stats.value(APPEND_KEYWORDS_BUILT)
        skipped = stats.value(APPEND_KEYWORDS_SKIPPED)
        inputs = {"patients": len(setup.base),
                  "append_patients": len(setup.dataset.extra),
                  "ontology_concepts": len(setup.dataset.ontology),
                  "vocabulary": built_keywords, "postings": postings,
                  "store_format": "sqlite", "workers": 1}
        attempted += built_keywords + 1
        if trace:
            return _traced(seed, work,
                           setup_metrics(setup.times, setup_totals),
                           build_s + append_s, attempted, failed, inputs)
        metrics = {"setup_s": median(setup_totals),
                   "p50_ms": band_mean(build_ms, 0.50, 0.25),
                   "p99_ms": band_mean(build_ms, 0.99, 0.005),
                   "ops_per_s": built_keywords / scaled_build_s,
                   "peak_rss_mb": peak_rss_mb()}
        report = {"kernel_ms": speed.kernel_ms(),
                  "raw_setup_s": median(setup_raw),
                  "raw_p50_ms": band_mean(raw_ms[:built_keywords], 0.50,
                                          0.25),
                  "raw_p99_ms": band_mean(raw_ms[:built_keywords], 0.99,
                                          0.005),
                  "build_kw_per_s": built_keywords / build_s,
                  "keywords_s": sum(raw_ms[:built_keywords]) / 1000.0,
                  "build_s": build_s,
                  "append_s": append_s,
                  "append_s_at_reference": scaled_append_s,
                  "index_bytes_per_posting": store_bytes / postings,
                  "append_keywords_built": built,
                  "append_keywords_skipped": skipped,
                  "p99_samples_beyond": beyond(build_ms, 0.99),
                  "failed_frac": failed / attempted}
        return Outcome(attempted, failed, metrics, report, inputs)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _traced(seed, work, setup_figures, untraced_s, attempted, failed,
            inputs) -> Outcome:
    """A second build and append on a fresh set-up, every layer
    wrapped; the per-layer numbers come from this pass only."""
    from repro.core.stats import (APPEND_KEYWORDS_BUILT,
                                  APPEND_KEYWORDS_SKIPPED)
    from tracing import (SpanRecorder, layer_extras, layer_metrics,
                         trace_builder)
    setup = Setup(seed)
    recorder = SpanRecorder()
    engine = setup.engine
    trace_builder(recorder, engine.builder.inner)
    recorder.wrap(engine.index_manager, "add_documents", "segments")
    path = os.path.join(work, "traced.db")
    _, build_s, append_s = build_and_append(setup, path, recorder)
    metrics = layer_metrics(recorder.spans)
    metrics.update(layer_extras(recorder))
    built = engine.stats.value(APPEND_KEYWORDS_BUILT)
    skipped = engine.stats.value(APPEND_KEYWORDS_SKIPPED)
    metrics.update({
        "storage.bytes_written": os.path.getsize(path),
        "segments.keywords_rebuilt": built,
        "segments.rebuild_frac": built / (built + skipped)
        if built + skipped else 0.0,
        "trace.overhead_frac": (build_s + append_s) / untraced_s - 1.0})
    metrics.update(setup_figures)
    return Outcome(attempted, failed, metrics, inputs=inputs,
                   spans=recorder.spans)

"""``warm_query``: closed-loop in-process search on a warm engine.

One caller runs ``engine.search(q, k=10)`` back to back over a seeded
query mix: 700 keyword queries of 2-5 keywords (the Figure-11 sizes,
in turn) drawn from size strata of the corpus words (see
``common.keyword_queries``), plus the 20 curated Table I/II queries, each
distinct query once per shuffled pass. Latency percentiles are taken
over every timed execution of two or more passes (so p99 has at
least ten samples beyond it). Set-up builds the DIL of every
query word, so every fetch hits the cache and the merge does almost
all the work. Server, storage reads and OntoScore do none.

The calibration kernel (``calibrate.py``) runs once every
``CALIBRATE_EVERY`` queries, outside the queries' timing; each query's
latency is scaled by the slowdown of the readings around it, and the
throughput by the run's slowdown.
"""

from __future__ import annotations

import gc
import random
import time
from statistics import median

from common import (LIMIT_MS, TOP_K, Outcome, beyond, curated_queries,
                    keyword_queries, make_dataset, peak_rss_mb, percentile,
                    query_strata, query_words)
from calibrate import Speed
from tracing import layer_extras, setup_metrics

KEYWORD_QUERIES = 700
SETUP_REPEATS = 2
#: Queries between two calibration readings (about 0.1 s of queries).
CALIBRATE_EVERY = 16
#: Calibration burst before and after each set-up, in seconds.
SETUP_BURST_S = 0.25
#: Passes over the query set the timed loop runs at least: over 720
#: distinct queries, 1440 or more executions, 14 or more beyond p99.
MIN_PASSES = 2


def set_up(seed: int) -> tuple[dict, object, list[str]]:
    """Corpus, engine and warm DIL cache; returns the phase times, the
    engine and the queries queries."""
    from repro.core.query.engine import XOntoRankEngine
    from repro.ir.tokenizer import Keyword, KeywordQuery
    times = {}
    started = time.perf_counter()
    dataset = make_dataset()
    times["corpus_s"] = time.perf_counter() - started
    started = time.perf_counter()
    engine = XOntoRankEngine(dataset.corpus, dataset.ontology)
    times["engine_s"] = time.perf_counter() - started
    started = time.perf_counter()
    sizes = {word: len(engine.dil_for(Keyword.from_text(word)))
             for word in query_words(dataset.corpus)}
    rng = random.Random(seed)
    strata = query_strata(sizes)
    queries = sorted(set(keyword_queries(rng, strata, KEYWORD_QUERIES))
                     | set(curated_queries()))
    for query in queries:
        for keyword in KeywordQuery.parse(query):
            engine.dil_for(keyword)
    times["warm_s"] = time.perf_counter() - started
    return times, engine, queries


def sequence(seed: int, queries: list[str]):
    """Endless seeded passes, each a fresh shuffle of every query."""
    rng = random.Random(seed + 1)
    while True:
        order = list(queries)
        rng.shuffle(order)
        yield from order


def timed_loop(engine, queries: list[str], expected: dict, seed: int,
               seconds: float, limit: int | None = None, recorder=None,
               speed: Speed | None = None):
    """Run whole passes until ``seconds`` have elapsed, at least
    ``MIN_PASSES`` of them (or exactly ``limit`` queries); returns
    (correct, latency_s, started_at) per query and the wall time the
    queries took (calibration readings taken on ``speed`` excluded).
    Each result is compared with ``expected`` as it comes and then
    dropped, so the loop's memory does not grow with the number of
    queries."""
    from tracing import OP
    done = []
    calibrating = 0.0
    stream = sequence(seed, queries)
    started = time.perf_counter()
    deadline = started + seconds
    for query in stream:
        if speed is not None and len(done) % CALIBRATE_EVERY == 0:
            calibrating += speed.sample()
        if limit is not None:
            if len(done) == limit:
                break
        elif len(done) % len(queries) == 0 \
                and len(done) >= MIN_PASSES * len(queries) \
                and time.perf_counter() >= deadline:
            break
        begin = time.perf_counter()
        if recorder is None:
            results = engine.search(query, k=TOP_K)
        else:
            with recorder.span(OP, request=len(done)):
                results = engine.search(query, k=TOP_K)
        latency = time.perf_counter() - begin
        done.append((results == expected[query], latency, begin))
    return done, time.perf_counter() - started - calibrating


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    setup_totals = []
    setup_raw = []
    for _ in range(SETUP_REPEATS):
        engine = None  # drop the previous set-up before the next one
        gc.collect()
        speed = Speed()
        speed.burst(SETUP_BURST_S)
        times, engine, queries = set_up(seed)
        speed.burst(SETUP_BURST_S)
        setup_raw.append(sum(times.values()))
        setup_totals.append(setup_raw[-1] / speed.slowdown())
    # Correctness gate: top-10 equals the naive reference evaluator on
    # exact float scores, for every distinct query; the timed loop runs
    # whole passes, so every timed result is compared with it.
    expected = {query: engine.search_naive(query, k=TOP_K)
                for query in queries}
    gc.collect()  # time from a heap without the earlier set-ups' garbage
    speed = Speed()
    done, elapsed = timed_loop(engine, queries, expected, seed, seconds,
                               speed=speed)
    failed = sum(not correct for correct, _, _ in done)
    attempted = len(done)
    cache = engine.dil_cache
    inputs = {"patients": len(engine.corpus),
              "ontology_concepts": len(engine.ontology),
              "queries_distinct": len(queries),
              "vocabulary_warm": len(cache),
              "postings_warm": sum(len(cache.get(key))
                                   for key in list(cache.keys()))}
    if trace:
        return _traced(engine, queries, expected, seed, len(done), elapsed,
                       setup_metrics(times, setup_totals), attempted,
                       failed, inputs)
    raw = [latency * 1000.0 for _, latency, _ in done]
    slowdowns = speed.local_slowdowns([begin for _, _, begin in done])
    latencies = [latency / slowdown
                 for latency, slowdown in zip(raw, slowdowns)]
    # The loop's own time between queries (the result comparison) is
    # scaled by the run's slowdown, each query's by its own.
    overhead_s = elapsed - sum(raw) / 1000.0
    scaled_s = sum(latencies) / 1000.0 + overhead_s / speed.slowdown()
    metrics = {"setup_s": median(setup_totals),
               "p50_ms": percentile(latencies, 0.50),
               "p99_ms": percentile(latencies, 0.99),
               "ops_per_s": len(done) / scaled_s,
               "peak_rss_mb": peak_rss_mb()}
    report = {"kernel_ms": speed.kernel_ms(),
              "raw_setup_s": median(setup_raw),
              "raw_p50_ms": percentile(raw, 0.50),
              "raw_p99_ms": percentile(raw, 0.99),
              "raw_ops_per_s": len(done) / elapsed,
              "p99_samples_beyond": beyond(latencies, 0.99),
              "queries_distinct": len(queries),
              "queries_timed": len(done),
              "goodput_frac": sum(
                  correct and latency * 1000.0 <= LIMIT_MS
                  for correct, latency, _ in done) / len(done),
              "failed_frac": failed / attempted}
    return Outcome(attempted, failed, metrics, report, inputs)


def _traced(engine, queries, expected, seed, count, untraced_s,
            setup_figures, attempted, failed, inputs) -> Outcome:
    """Re-run the same ``count`` queries with every layer wrapped; the
    per-layer numbers come from this pass only."""
    from tracing import (SpanRecorder, cache_metrics, layer_metrics,
                         trace_builder, trace_engine)
    recorder = SpanRecorder()
    trace_engine(recorder, engine)
    trace_builder(recorder, engine.builder)
    before = engine.cache_stats()
    _, traced_s = timed_loop(engine, queries, expected, seed, 0.0,
                             limit=count, recorder=recorder)
    metrics = layer_metrics(recorder.spans)
    metrics.update(layer_extras(recorder))
    after = engine.cache_stats()
    metrics.update(cache_metrics(after.hits - before.hits,
                                 after.misses - before.misses,
                                 after.evictions - before.evictions))
    metrics.update(setup_figures)
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    return Outcome(attempted, failed, metrics, inputs=inputs,
                   spans=recorder.spans)

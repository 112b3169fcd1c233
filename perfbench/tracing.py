"""Spans recorded from outside the program, for the traced runs.

A :class:`SpanRecorder` keeps every span in memory (name, start, end,
parent, request id) and counters beside them. Spans come from wrappers
the workloads install around calls into each layer's public functions:
instance attributes set on the program's objects, pipeline stages
swapped in through ``QueryPipeline.replace``, and timing around calls
the benchmark makes itself. Nothing under ``src/`` is changed.

After a run, :func:`layer_metrics` turns the spans into per-layer call
counts and self times (a span's duration minus the part of it its
children cover) and :func:`write_chrome_trace` writes them out.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

#: Name of the root span the benchmark opens around each timed
#: operation; time under it that no layer span covers is unattributed.
OP = "op"

#: Every layer the per-layer metrics report, in report order.
LAYERS = ("server", "service", "narrative", "federated",
          "pipeline.parse", "pipeline.dil_fetch", "pipeline.merge",
          "pipeline.rank", "merge", "index", "storage.read",
          "storage.write", "ontoscore", "scoring", "builder", "segments",
          "setup")


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: int | None
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> list:
        return [self.span_id, self.name, self.start, self.end,
                self.parent, self.request, self.thread]

    @classmethod
    def from_json(cls, row: list) -> "Span":
        return cls(*row)


class SpanRecorder:
    """In-memory span buffer with a per-thread span stack."""

    def __init__(self, id_offset: int = 0) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._ids = itertools.count(id_offset + 1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, request: int | None = None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        if request is None and parent is not None:
            request = parent[1]
        stack.append((span_id, request))
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(
                    span_id, name, start, end,
                    parent[0] if parent else None, request,
                    threading.get_ident()))

    def add(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += amount

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples[name].append(value)

    def wrap(self, owner, attribute: str, layer: str, after=None):
        """Replace ``owner.attribute`` by a traced wrapper (an instance
        attribute shadowing the method). ``after(result, seconds)``
        runs after each call to record counters or samples."""
        original = getattr(owner, attribute)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(layer):
                started = time.perf_counter()
                result = original(*args, **kwargs)
                if after is not None:
                    after(result, time.perf_counter() - started)
                return result

        setattr(owner, attribute, traced)
        return original

    def stage(self, stage, layer: str):
        """A pipeline stage with the same name whose ``run`` is traced."""
        return _TracedStage(stage, self, layer)


class _TracedStage:
    def __init__(self, inner, recorder: SpanRecorder, layer: str) -> None:
        self.inner = inner
        self.name = inner.name
        self._recorder = recorder
        self._layer = layer

    def run(self, context) -> None:
        with self._recorder.span(self._layer):
            self.inner.run(context)


def trace_pipeline(recorder: SpanRecorder, engine, index_source=None):
    """Trace the four query stages of one engine's pipeline; the fetch
    stage reads through ``index_source`` (a traced ``dil_for``) when
    given."""
    from repro.core.query.pipeline import DILFetchStage
    pipeline = engine.pipeline
    for name in ("parse", "dil_fetch", "merge", "rank"):
        stage = pipeline.stage(name)
        if name == "dil_fetch" and index_source is not None:
            stage = DILFetchStage(index_source)
        pipeline.replace(name, recorder.stage(stage, f"pipeline.{name}"))


def traced_dil_source(recorder: SpanRecorder, engine):
    """``engine.dil_for`` traced as the ``index`` layer; the time of
    each call that missed the DIL cache is kept as an ``index.miss``
    sample."""
    manager = engine.index_manager
    original = manager.dil_for

    def dil_for(keyword):
        misses = manager.cache_stats().misses
        with recorder.span("index"):
            started = time.perf_counter()
            dil = original(keyword)
            seconds = time.perf_counter() - started
        if manager.cache_stats().misses != misses:
            recorder.sample("index.miss", seconds)
        return dil

    return dil_for


def trace_engine(recorder: SpanRecorder, engine) -> None:
    """Install the query-side wrappers on one single engine: pipeline
    stages, the ``index`` fetch, the ``merge`` and its statistics, and
    ``storage.read`` on an attached read-through store."""
    trace_pipeline(recorder, engine, traced_dil_source(recorder, engine))

    def merge_stats(result, seconds):
        _results, statistics = result
        recorder.add("merge.postings_read", statistics.postings_read)
        recorder.add("merge.frames_pushed", statistics.frames_pushed)
        recorder.add("merge.docs_skipped", statistics.docs_skipped)
        recorder.add("merge.results", statistics.results_found)

    recorder.wrap(engine.processor, "collect_topk_stats", "merge",
                  after=merge_stats)
    store = engine.index_manager.read_store
    if store is not None:
        for method in ("get_posting_block", "get_postings"):
            if hasattr(store, method):
                recorder.wrap(store, method, "storage.read",
                              after=_sampler(recorder, "storage.read"))


def trace_builder(recorder: SpanRecorder, builder) -> None:
    """Install the index-build wrappers on one ``IndexBuilder``:
    ``builder`` (per keyword), ``ontoscore`` and ``scoring``."""
    def ontoscore_entries(result, seconds):
        recorder.add("ontoscore.entries", len(result))

    def scoring_postings(result, seconds):
        recorder.add("scoring.postings", len(result))

    recorder.wrap(builder, "build_keyword", "builder",
                  after=_sampler(recorder, "builder.kw"))
    recorder.wrap(builder.ontoscore, "compute", "ontoscore",
                  after=ontoscore_entries)
    recorder.wrap(builder.node_scorer, "node_scores", "scoring",
                  after=scoring_postings)


def trace_store_writes(recorder: SpanRecorder, store) -> None:
    """``storage.write`` spans and row counts on a writable store (the
    store's write methods take positional arguments)."""
    for method in ("put_postings", "put_postings_many", "put_metadata",
                   "put_metadata_many", "put_document"):
        original = getattr(store, method)

        def traced(*args, _original=original, _method=method):
            with recorder.span("storage.write"):
                result = _original(*args)
            recorder.add("storage.rows_written", _row_count(_method, args))
            return result

        setattr(store, method, traced)


def _row_count(method: str, args: tuple) -> int:
    if method == "put_postings":
        return len(args[2])
    if method == "put_postings_many":
        return sum(len(postings) for _key, postings in args[1])
    if method == "put_metadata_many":
        return len(args[0])
    return 1


def _sampler(recorder: SpanRecorder, name: str):
    def after(result, seconds):
        recorder.sample(name, seconds)
    return after


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    end = float("-inf")
    for start, stop in sorted(intervals):
        if stop <= end:
            continue
        total += stop - max(start, end)
        end = stop
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the union of its children's
    (clipped to the span)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    by_id = {span.span_id: span for span in spans}
    for span in spans:
        parent = by_id.get(span.parent)
        if parent is not None:
            children[parent.span_id].append(
                (max(span.start, parent.start), min(span.end, parent.end)))
    return {span.span_id: max(0.0, span.duration
                              - _covered(children[span.span_id]))
            for span in spans}


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """``<layer>.calls`` and ``<layer>.self_s`` for every layer, plus
    ``trace.unattributed_frac``: the share of root-``op`` time that no
    layer span covers."""
    selfs = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    for span in spans:
        calls[span.name] += 1
        self_s[span.name] += selfs[span.span_id]
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = calls.get(layer, 0)
        metrics[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    op_total = sum(span.duration for span in spans if span.name == OP)
    metrics["trace.unattributed_frac"] = (self_s.get(OP, 0.0) / op_total
                                          if op_total else 0.0)
    return metrics


def self_samples(spans: list[Span], layer: str) -> list[float]:
    selfs = self_times(spans)
    return [selfs[span.span_id] for span in spans if span.name == layer]


def durations(spans: list[Span], layer: str) -> list[float]:
    return [span.duration for span in spans if span.name == layer]


def write_chrome_trace(spans: list[Span], path) -> None:
    """Complete ("X") events in the Chrome trace format, one track per
    thread, viewable in chrome://tracing or Perfetto."""
    events = [{"name": span.name, "ph": "X", "pid": 1,
               "tid": span.thread % 100000,
               "ts": span.start * 1e6, "dur": span.duration * 1e6,
               "args": {"id": span.span_id, "parent": span.parent,
                        "request": span.request}}
              for span in sorted(spans, key=lambda s: s.start)]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"},
                  handle)


def _p50_ms(values: list[float]) -> float:
    from common import percentile
    return percentile(values, 0.5) * 1000.0 if values else 0.0


def layer_extras(recorder: SpanRecorder) -> dict[str, float]:
    """The per-layer figures derived from spans, counters and samples
    (those a workload has no data for read 0)."""
    spans = recorder.spans
    counters = recorder.counters
    merge_s = sum(durations(spans, "merge"))
    ontoscore_s = sum(durations(spans, "ontoscore"))
    postings = counters.get("merge.postings_read", 0.0)
    results = counters.get("merge.results", 0.0)
    entries = counters.get("ontoscore.entries", 0.0)
    return {
        "service.execute_ms": _p50_ms(durations(spans, "service")),
        "narrative.map_ms": _p50_ms(durations(spans, "narrative")),
        "federated.fanout_ms": _p50_ms(self_samples(spans, "federated")),
        "pipeline.merge_ms": _p50_ms(durations(spans, "pipeline.merge")),
        "merge.postings_read": postings,
        "merge.frames_pushed": counters.get("merge.frames_pushed", 0.0),
        "merge.docs_skipped": counters.get("merge.docs_skipped", 0.0),
        "merge.postings_per_s": postings / merge_s if merge_s else 0.0,
        "merge.postings_per_result": postings / results if results else 0.0,
        "index.miss_ms": _p50_ms(recorder.samples.get("index.miss", [])),
        "storage.read_ms": _p50_ms(recorder.samples.get("storage.read", [])),
        "storage.rows_written": counters.get("storage.rows_written", 0.0),
        "ontoscore.entries": entries,
        "ontoscore.entries_per_s": (entries / ontoscore_s
                                    if ontoscore_s else 0.0),
        "scoring.postings": counters.get("scoring.postings", 0.0),
        "builder.kw_p50_ms": _p50_ms(recorder.samples.get("builder.kw", [])),
    }


def setup_metrics(times: dict, totals: list[float]) -> dict[str, float]:
    """The ``setup`` layer: how many set-ups ran, their total time, and
    the phases of the last one."""
    return {"setup.calls": len(totals), "setup.self_s": sum(totals),
            **{f"setup.{phase}": seconds for phase, seconds in times.items()}}


def cache_metrics(hits: float, misses: float,
                  evictions: float) -> dict[str, float]:
    """DIL-cache hit share and evictions from the hit, miss and
    eviction counts of a timed phase."""
    return {"dil_cache.hit_frac": hits / (hits + misses)
            if hits + misses else 0.0,
            "dil_cache.evictions": evictions}

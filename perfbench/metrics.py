"""The metric catalogue: every name the runner prints, with its unit.

``BENCHMARK.json`` lists the same names; the runner fills a per-layer
metric a workload has no data for with 0 (the layer did no work).
"""

from tracing import LAYERS

END_TO_END = {
    "setup_s": "s",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

_LAYER_UNITS = {"calls": "count", "self_s": "s"}

PER_LAYER = {
    **{f"{layer}.{kind}": unit
       for layer in LAYERS for kind, unit in _LAYER_UNITS.items()},
    "server.pre_ms": "ms",
    "server.pre_p99_ms": "ms",
    "server.post_ms": "ms",
    "server.coalesced_frac": "ratio",
    "server.shed": "count",
    "service.execute_ms": "ms",
    "narrative.map_ms": "ms",
    "federated.fanout_ms": "ms",
    "pipeline.merge_ms": "ms",
    "merge.postings_read": "count",
    "merge.frames_pushed": "count",
    "merge.docs_skipped": "count",
    "merge.postings_per_s": "1/s",
    "merge.postings_per_result": "ratio",
    "dil_cache.hit_frac": "ratio",
    "dil_cache.evictions": "count",
    "index.miss_ms": "ms",
    "storage.read_ms": "ms",
    "storage.rows_written": "count",
    "storage.bytes_written": "B",
    "ontoscore.entries": "count",
    "ontoscore.entries_per_s": "1/s",
    "scoring.postings": "count",
    "builder.kw_p50_ms": "ms",
    "segments.keywords_rebuilt": "count",
    "segments.rebuild_frac": "ratio",
    "setup.corpus_s": "s",
    "setup.engine_s": "s",
    "setup.index_s": "s",
    "setup.boot_s": "s",
    "setup.warm_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_frac": "ratio",
}

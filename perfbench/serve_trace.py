"""Joins the traced server's spans to the generator's requests.

The launcher (``serve_launcher.py``) records spans inside the server
process; the generator knows when each request was sent and its reply
read. Both stamp ``time.perf_counter``, which reads the same monotonic
clock in every process of the machine, so the timelines line up.

Per request ``rid`` the joined trace holds:

* ``op``: the generator's view, from send to reply read;
* ``server``: from when the server was reading the request (send time
  or the ``read_request`` call, whichever is later) to the reply read
  -- HTTP parsing, admission, coalescing, executor queue wait, JSON
  encoding and the reply's transfer are its self time (the
  ``server.pre_ms`` / ``server.post_ms`` split);
* ``service`` and everything under it, for the request that led its
  coalesced batch (matched on the coalescing key and time).
"""

from __future__ import annotations

import itertools

from common import percentile
from tracing import OP, Span, SpanRecorder, cache_metrics


def merge_server_spans(dump: dict, sent: list) -> SpanRecorder:
    """A recorder holding the joined spans, counters and samples."""
    server_spans = [Span.from_json(row) for row in dump["spans"]]
    keys = {int(span_id): key
            for span_id, key in dump["service_keys"].items()}
    http = {int(rid): stamps for rid, stamps in dump["http"].items()}
    requests = {item.rid: item for item in sent}
    ids = itertools.count(1)
    joined: list[Span] = []
    server_of: dict[int, Span] = {}
    for item in sent:
        op = Span(next(ids), OP, item.sent, item.done, None, item.rid, 0)
        joined.append(op)
        stamps = http.get(item.rid)
        if stamps is not None and stamps[2] is not None:
            server = Span(next(ids), "server", max(stamps[0], item.sent),
                          item.done, op.span_id, item.rid, 1)
            server_of[item.rid] = server
            joined.append(server)

    leaders: set[int] = set()
    for span in sorted(server_spans, key=lambda span: span.start):
        if span.name != "service" or span.span_id not in keys:
            continue
        _corpus, query, _k, narrative = keys[span.span_id]
        candidates = [
            rid for rid, server in server_of.items()
            if rid not in leaders
            and requests[rid].request == (query, narrative)
            and http[rid][1] <= span.start and span.end <= http[rid][2]]
        if candidates:
            rid = min(candidates, key=lambda rid: http[rid][1])
            leaders.add(rid)
            span.parent = server_of[rid].span_id
            span.request = rid

    by_id = {span.span_id: span for span in server_spans}
    for span in sorted(server_spans, key=lambda span: span.start):
        parent = by_id.get(span.parent)
        if parent is not None and span.name != "service":
            span.request = parent.request
    joined.extend(span for span in server_spans
                  if span.request in requests)

    recorder = SpanRecorder()
    recorder.spans = joined
    recorder.counters.update(dump["counters"])
    recorder.samples.update(dump["samples"])
    return recorder


def server_metrics(recorder: SpanRecorder, sent: list, before: dict,
                   after: dict) -> dict[str, float]:
    """The ``server.*`` and ``dil_cache.*`` figures of a traced run;
    counters are ``/metrics`` deltas over the timed phase."""
    def delta(name: str) -> float:
        return (after["counters"].get(name, 0)
                - before["counters"].get(name, 0))

    requests = {item.rid: item for item in sent}
    pre, post = [], []
    for span in recorder.spans:
        if span.name == "service" and span.request in requests:
            item = requests[span.request]
            pre.append((span.start - item.sent) * 1000.0)
            post.append((item.done - span.end) * 1000.0)
    served = delta("server.requests")
    return {
        "server.pre_ms": percentile(pre, 0.5) if pre else 0.0,
        "server.pre_p99_ms": percentile(pre, 0.99) if pre else 0.0,
        "server.post_ms": percentile(post, 0.5) if post else 0.0,
        "server.coalesced_frac": (delta("server.coalesced") / served
                                  if served else 0.0),
        "server.shed": delta("server.shed"),
        **cache_metrics(delta("dil_cache.hits"), delta("dil_cache.misses"),
                        delta("dil_cache.evictions")),
    }

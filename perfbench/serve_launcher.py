"""Run ``repro serve`` with spans recorded around each layer.

    python3 perfbench/serve_launcher.py --trace-out FILE <repro serve flags>

The launcher calls the program's own ``repro serve`` command
(``cli.main(["serve", ...])``), so the traced server is assembled
exactly as the untraced one. Before the command runs, it swaps
``repro.server.ServerApp`` for a subclass that, when the command
builds the app, wraps each layer of the app's search service from
outside:

* ``server``: ``read_request`` / ``render_response`` of the HTTP
  layer, keyed by the request's ``rid`` parameter (the server ignores
  parameters it does not know);
* ``service``: ``SearchService.execute``;
* ``narrative``: each corpus's ``NarrativeQueryMapper.map``;
* ``federated``: ``FederatedEngine.search_outcome``;
* per shard engine: the pipeline stages, ``index``, ``merge`` and
  ``storage.read`` (see ``tracing.trace_engine``), and the shared
  builder's ``builder`` / ``ontoscore`` / ``scoring``.

When the command returns (after the SIGTERM drain) the launcher writes
the spans and HTTP timestamps to the ``--trace-out`` file as JSON and
exits with the command's status.
"""

from __future__ import annotations

import contextvars
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

#: Server-side span ids start here, clear of the generator's.
SERVER_ID_OFFSET = 10 ** 9


def trace_http(app_module) -> dict:
    """Wrap the HTTP layer's read and render; returns the per-request
    ``[read called, request parsed, response rendered]`` timestamps."""
    events: dict[int, list] = {}
    current = contextvars.ContextVar("rid", default=None)
    read_request = app_module.read_request
    render_response = app_module.render_response

    async def traced_read(reader):
        called = time.perf_counter()
        request = await read_request(reader)
        rid = request.param("rid") if request is not None else None
        current.set(int(rid) if rid else None)
        if rid:
            events[int(rid)] = [called, time.perf_counter(), None]
        return request

    def traced_render(*args, **kwargs):
        payload = render_response(*args, **kwargs)
        rid = current.get()
        if rid is not None:
            events[rid][2] = time.perf_counter()
        return payload

    app_module.read_request = traced_read
    app_module.render_response = traced_render
    return events


def trace_service(recorder, service, keys: dict) -> None:
    """Wrap ``execute`` and the layers under it, for every corpus of
    ``service``; each ``service`` span's coalescing key goes into
    ``keys`` by span id."""
    from tracing import trace_builder, trace_engine
    execute = service.execute

    def traced_execute(corpus, query, k=None, deadline=None, *,
                       narrative=False):
        with recorder.span("service") as span_id:
            keys[span_id] = [corpus, query, k, narrative]
            return execute(corpus, query, k, deadline,
                           narrative=narrative)

    service.execute = traced_execute
    for handle in service.corpora():
        recorder.wrap(handle.narrative_mapper(), "map", "narrative")
        engine = handle.engine
        shards = getattr(engine, "shard_engines", None)
        if shards is None:
            trace_engine(recorder, engine)
        else:
            recorder.wrap(engine, "search_outcome", "federated")
            for shard_engine in shards:
                trace_engine(recorder, shard_engine)
        trace_builder(recorder, engine.builder)


def main(argv: list[str]) -> int:
    common.import_repro()
    import repro.server
    import repro.server.app as app_module
    from repro import cli
    from tracing import SpanRecorder

    position = argv.index("--trace-out")
    trace_out = argv[position + 1]
    serve_flags = [*argv[:position], *argv[position + 2:]]

    recorder = SpanRecorder(id_offset=SERVER_ID_OFFSET)
    http_events = trace_http(app_module)
    keys: dict[int, list] = {}

    class TracedServerApp(repro.server.ServerApp):
        """The command's app, with its service's layers wrapped."""

        def __init__(self, service, config) -> None:
            trace_service(recorder, service, keys)
            super().__init__(service, config)

    repro.server.ServerApp = TracedServerApp
    code = cli.main(["serve", *serve_flags])
    with open(trace_out, "w", encoding="utf-8") as handle:
        json.dump({"spans": [span.to_json() for span in recorder.spans],
                   "service_keys": keys, "http": http_events,
                   "counters": recorder.counters,
                   "samples": recorder.samples}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

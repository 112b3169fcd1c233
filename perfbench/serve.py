"""``serve``: open-loop HTTP load against a ``repro serve`` process.

Set-up generates a data directory, builds two per-shard mmap stores
over the experiment vocabulary minus 20 held-out query words, boots
``repro serve --shards 2`` read-through on them with a DIL cache
smaller than the working set of distinct keywords and as many workers
as cores (2), and warms it with every curated and narrative request
once (see ``Plan.warm_up``). One generator process then sends seeded Poisson
arrivals at ``RATE`` requests/s over two keep-alive connections, each
request timed from when it was due. The mix has four classes:

* 80% short 1-2 keyword lookups from the smaller stored query words,
  with Zipf popularity;
* 5% the curated Table I/II queries;
* 10% ``narrative=1`` paraphrases from ``NARRATIVE_WORKLOAD``;
* 5% a held-out word, built from the corpus on a miss.

Words come from the size strata of ``common.query_strata``. Requests
are dealt from shuffled decks, so each run holds the classes at their
shares exactly and cycles through every curated, narrative and
held-out request equally often; only the short lookups follow Zipf
popularity. With independent draws and Zipf popularity in every class,
chance decided how often the costliest curated queries (they differ up
to 100x in cost) came up, and p99 and throughput moved 45% between
seeds.

A closed loop of short lookups on one connection then gives the
throughput; it sends every lookup of its set equally often (see
``Plan.draw_short``), on one connection so that no request is in
flight while the generator takes its calibration readings.

Timed figures are at the reference speed of ``calibrate.py``. The
generator takes calibration readings only while no request is in
flight: in the open-loop phase when no request is due within
``CALIBRATE_MARGIN_S``, in the saturation phase every
``CALIBRATE_EVERY`` requests, and in a burst before and after the
set-up. Each request's latency is scaled by the slowdown of the
readings around it. Readings taken only in bursts at the edges of the
phases followed the phases' speed poorly and made the figures less
steady than the raw ones.

Every 200 body is compared with an in-process single-engine reference;
the generator's lateness, the server's request counter and its SIGTERM
drain are checked too.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import random
import re
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from collections import Counter
from urllib.parse import quote

from calibrate import Speed
from common import (CORPUS_SEED, LIMIT_MS, PATIENTS, ROOT, SRC, TOP_K,
                    Outcome, beyond, curated_queries, narrative_texts,
                    peak_rss_mb, percentile, query_strata, query_words,
                    scratch_dir, zipf_picker)
from tracing import setup_metrics

SHARDS = 2
WORKERS = 2
CONNECTIONS = 2
#: Lists held per shard engine; the mix touches several hundred.
CACHE_SIZE = 200
#: Offered load: about a tenth of the two-connection capacity on the
#: full mix (about 500 req/s here). The curated and narrative requests cost
#: 10-100x a short lookup, so waiting behind them grows fast with load:
#: at 70 req/s p50 moved 2x between identical runs.
RATE = 48.0
#: Length of the closed-loop saturation phase, which sends short
#: lookups only: the throughput of the requests whose time is mostly
#: outside the engine. With the full mix, how often the costliest
#: curated queries and held-out builds fell in the phase, and whether
#: their lists were still cached, moved throughput 30-35% between
#: seeds while p50 and p99 moved 10-20%.
SATURATION_S = 5.0
#: Requests drawn for the saturation phase: more than it can send.
SATURATION_POOL = 20000
#: Calibration burst before and after the set-up, in seconds.
BURST_S = 0.25
#: Saturation requests between two calibration readings.
CALIBRATE_EVERY = 40
#: In the open-loop phase, the generator takes a calibration reading
#: at most this often, and only when no request is due sooner than
#: ``CALIBRATE_MARGIN_S``.
CALIBRATE_INTERVAL_S = 0.05
CALIBRATE_MARGIN_S = 0.012
#: Distinct lookups the saturation phase cycles through.
SATURATION_LOOKUPS = 480
HOLDOUT_WORDS = 20
SHORT_QUERIES = 240
MIX = (("short", 0.80), ("curated", 0.05), ("narrative", 0.10),
       ("oov", 0.05))
#: Requests per deck of classes (each class holds its share exactly).
DECK = 20
#: Requests in which every curated query and held-out word comes up
#: once (one per deck) and every narrative text twice; the timed phase
#: sends whole cycles, so every run holds the costly requests equally
#: often.
CYCLE = 400
#: Timed requests at least: 16 lie beyond p99. With 1200 (12 beyond)
#: p99 spread 16% over five seeds.
MIN_TIMED = 1600
ZIPF_EXPONENT = 0.8
#: A run whose generator sent this late (p99, with a connection free)
#: did not keep its schedule and is rejected.
MAX_LATENESS_MS = 20.0
BOOT_TIMEOUT_S = 120.0
#: Niceness of the server process. Generator and server share one CPU
#: (``common.pin_to_one_cpu``); at equal priority the generator's
#: wake-ups waited behind the server's work (send lateness p99 8-18
#: ms), so the load followed the server instead of its schedule. At
#: lower priority the server yields the CPU as a load generator on
#: another machine would not need it to.
SERVER_NICE = 10


# ----------------------------------------------------------------------
# Set-up: data directory, shard stores, server process
# ----------------------------------------------------------------------
def generate_data(directory: str) -> None:
    from repro import cli
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["generate", "--out", directory, "--patients",
                  str(PATIENTS), "--seed", str(CORPUS_SEED)])


class Deployment:
    """Data directory and shard stores of one set-up."""

    def __init__(self, work: str, holdout: list[str]) -> None:
        from repro import cli
        from repro.core.index.vocabulary import experiment_vocabulary
        from repro.core.query.federated import (FederatedEngine,
                                                shard_store_path)
        from repro.storage.mmap_store import atomic_mmap_build
        self.times = {}
        self.data = os.path.join(work, "data")
        self.store = os.path.join(work, "index.xms")
        started = time.perf_counter()
        generate_data(self.data)
        self.times["corpus_s"] = time.perf_counter() - started
        started = time.perf_counter()
        ontology, corpus = cli._load_data_directory(self.data)
        engine = FederatedEngine(corpus, ontology, shards=SHARDS)
        self.times["engine_s"] = time.perf_counter() - started
        started = time.perf_counter()
        self.vocabulary = (experiment_vocabulary(corpus, ontology)
                           - set(holdout))
        paths = [shard_store_path(self.store, shard, SHARDS)
                 for shard in range(SHARDS)]
        with contextlib.ExitStack() as stack:
            stores = [stack.enter_context(atomic_mmap_build(path))
                      for path in paths]
            index = engine.build_index(vocabulary=self.vocabulary,
                                       stores=stores)
        self.postings = index.total_postings()
        self.times["index_s"] = time.perf_counter() - started

    def server_args(self) -> list[str]:
        return ["--data", self.data, "--store", self.store,
                "--shards", str(SHARDS), "--cache-size", str(CACHE_SIZE),
                "--concurrency", str(WORKERS), "--port", "0"]


class Server:
    """One server process, booted until ready."""

    def __init__(self, deployment: Deployment,
                 trace_out: str | None = None) -> None:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        if trace_out is None:
            command = [sys.executable, "-m", "repro", "serve"]
        else:
            command = [sys.executable,
                       str(ROOT / "perfbench" / "serve_launcher.py"),
                       "--trace-out", trace_out]
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command + deployment.server_args(), cwd=str(ROOT), env=env,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            preexec_fn=lambda: os.nice(SERVER_NICE))
        self.lines: list[str] = []
        self.port = None
        deadline = started + BOOT_TIMEOUT_S
        for line in self.process.stdout:
            self.lines.append(line)
            match = re.search(r"http://[^:/]+:(\d+)", line)
            if match:
                self.port = int(match.group(1))
            if line.startswith("ready"):
                break
            if time.perf_counter() > deadline:
                break
        if self.port is None or not self.lines[-1].startswith("ready"):
            self.kill()
            raise RuntimeError("server did not become ready:\n"
                               + "".join(self.lines))
        self.boot_s = time.perf_counter() - started
        self._drain = threading.Thread(target=self._read_rest,
                                       daemon=True)
        self._drain.start()

    def _read_rest(self) -> None:
        for line in self.process.stdout:
            self.lines.append(line)

    def metrics(self) -> dict:
        connection = Connection(self.port)
        try:
            return json.loads(connection.get("/metrics")[1])
        finally:
            connection.close()

    def stop(self) -> bool:
        """SIGTERM and wait; True when the server drained and exited 0."""
        self.process.send_signal(signal.SIGTERM)
        try:
            code = self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.kill()
            return False
        self._drain.join(timeout=5)
        return code == 0 and any(line.startswith("drained cleanly")
                                 for line in self.lines)

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()


# ----------------------------------------------------------------------
# Requests, reference answers and the load generator
# ----------------------------------------------------------------------
class Plan:
    """The request classes and the in-process reference engine.

    Built from its own copy of the data directory before the timed
    set-ups: the generator is seeded, so every copy holds the same
    documents the server loads."""

    def __init__(self, seed: int, work: str) -> None:
        from repro import cli
        from repro.core.query.engine import XOntoRankEngine
        from repro.core.query.narrative import NarrativeQueryMapper
        from repro.ir.tokenizer import Keyword
        from repro.ontology.api import TerminologyService
        directory = os.path.join(work, "plan")
        generate_data(directory)
        ontology, corpus = cli._load_data_directory(directory)
        self.engine = XOntoRankEngine(corpus, ontology)
        self.mapper = NarrativeQueryMapper(TerminologyService([ontology]))
        sizes = {word: len(self.engine.dil_for(Keyword.from_text(word)))
                 for word in query_words(corpus)}
        # Short lookups and held-out words come from the smaller 65%
        # of the query words: cheap requests whose time is mostly
        # outside the engine.
        pool = sorted(word for stratum in query_strata(sizes)[2:]
                      for word in stratum)
        rng = random.Random(seed + 1)
        self.holdout = sorted(rng.sample(pool, HOLDOUT_WORDS))
        stored = [word for word in pool if word not in self.holdout]
        self.stored = stored
        short = set()
        while len(short) < SHORT_QUERIES:
            short.add(" ".join(rng.sample(stored, 1 + len(short) % 2)))
        self.classes = {
            "short": [(query, False) for query in sorted(short)],
            "curated": [(query, False) for query in curated_queries()],
            "narrative": [(text, True) for text in narrative_texts()],
            "oov": [(word, False) for word in self.holdout]}

    def draw(self, seed: int, count: int) -> list:
        """``count`` requests dealt from shuffled decks: every 20
        requests hold each class at its share, and the small classes
        cycle through all their requests before one repeats. Only the
        short lookups follow Zipf popularity."""
        rng = random.Random(seed + 2)
        short = zipf_picker(rng, self.classes["short"], ZIPF_EXPONENT)
        decks: dict[str, list] = {}

        def deal(name: str, fill) -> object:
            if not decks.get(name):
                decks[name] = fill()
                rng.shuffle(decks[name])
            return decks[name].pop()

        def slots() -> list[str]:
            return [name for name, share in MIX
                    for _ in range(round(share * DECK))]

        requests = []
        for _ in range(count):
            name = deal("class", slots)
            requests.append(short() if name == "short" else
                            deal(name, lambda: list(self.classes[name])))
        return requests

    def draw_short(self, seed: int, count: int) -> list:
        """``count`` short lookups for the saturation phase: cycles, in
        seeded order, through ``SATURATION_LOOKUPS`` 1- and 2-keyword
        lookups dealt from shuffled decks of every stored query word,
        so each word comes up equally often. With the timed phase's
        240 Zipf-popular lookups, which words the seed picked and made
        popular (and so cached) moved throughput by 35% between seeds,
        against 6% between runs of one seed."""
        rng = random.Random(seed + 4)
        deck: list[str] = []
        lookups = []
        while len(lookups) < SATURATION_LOOKUPS:
            words: list[str] = []
            while len(words) < 1 + len(lookups) % 2:
                if not deck:
                    deck = list(self.stored)
                    rng.shuffle(deck)
                word = deck.pop()
                if word not in words:
                    words.append(word)
            lookups.append((" ".join(words), False))
        requests: list = []
        while len(requests) < count:
            rng.shuffle(lookups)
            requests += lookups
        return requests[:count]

    def warm_up(self) -> list:
        """Every curated and narrative request once, sent before the
        timed phase: their first runs in a fresh server (first reads
        of their lists, the narrative mapper's lazy start) took the
        slowest 1% of a run's latencies, so which of them the seed put
        early decided p99. Held-out words stay cold: they are built
        on a miss in the timed phase."""
        return self.classes["curated"] + self.classes["narrative"]

    def expected(self, requests) -> dict:
        """Top-10 of the single engine for every distinct request,
        rendered as the server renders results."""
        answers = {}
        for query, narrative in set(requests):
            keywords = self.mapper.map(query).query if narrative else query
            answers[(query, narrative)] = [
                {"rank": rank, "score": round(result.score, 6),
                 "doc_id": result.doc_id, "dewey": result.dewey.encode()}
                for rank, result in enumerate(
                    self.engine.search(keywords, k=TOP_K), start=1)]
        return answers


class Sent:
    """One request's timestamps, status and body."""

    __slots__ = ("rid", "request", "due", "picked", "sent", "done",
                 "status", "body")

    def __init__(self, rid: int, request, due: float) -> None:
        self.rid = rid
        self.request = request
        self.due = due
        self.picked = self.sent = self.done = 0.0
        self.status = 0
        self.body = b""


def path_of(rid: int, request) -> str:
    query, narrative = request
    return (f"/search?q={quote(query)}&k={TOP_K}&rid={rid}"
            + ("&narrative=1" if narrative else ""))


class Connection:
    """A minimal keep-alive HTTP/1.1 GET client over one socket (less
    client-side parsing than ``http.client`` sits inside each timed
    request)."""

    def __init__(self, port: int) -> None:
        self.port = port
        self._buffer = b""
        self._socket = socket.create_connection(("127.0.0.1", port),
                                                timeout=30)
        self._socket.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def _fill(self) -> None:
        chunk = self._socket.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self._buffer += chunk

    def get(self, path: str) -> tuple[int, bytes]:
        self._socket.sendall(f"GET {path} HTTP/1.1\r\nHost: "
                             f"127.0.0.1\r\n\r\n".encode("latin-1"))
        while b"\r\n\r\n" not in self._buffer:
            self._fill()
        head, _, self._buffer = self._buffer.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        length = next(int(line.split(":", 1)[1]) for line in lines[1:]
                      if line.lower().startswith("content-length:"))
        while len(self._buffer) < length:
            self._fill()
        body, self._buffer = (self._buffer[:length],
                              self._buffer[length:])
        return int(lines[0].split(" ")[1]), body

    def close(self) -> None:
        self._socket.close()


def generate(port: int, requests, offsets, first_rid: int = 0,
             speed: Speed | None = None) -> tuple[list, float]:
    """Send ``requests`` open-loop over ``CONNECTIONS`` keep-alive
    connections: each waits for its due time, ``offsets`` (seconds
    after start). Returns the sent requests and the elapsed time.

    With a ``speed``, a worker about to wait for its next due time
    takes a calibration reading when no request is in flight, no
    request is due within ``CALIBRATE_MARGIN_S`` and the last reading
    is ``CALIBRATE_INTERVAL_S`` old, so that the kernel runs only while
    the server is idle and delays no send.
    """
    lock = threading.Lock()
    sent: list[Sent] = []
    position = [0]
    in_flight = [0]
    waiting: dict[int, float] = {}
    last_reading = [0.0]
    start = time.perf_counter() + 0.05

    def calibrate(worker_id: int, due: float) -> None:
        with lock:
            now = time.perf_counter()
            waiting[worker_id] = due
            if (in_flight[0] or now - last_reading[0] < CALIBRATE_INTERVAL_S
                    or min(waiting.values()) - now < CALIBRATE_MARGIN_S):
                return
            last_reading[0] = now
        speed.sample()

    def worker(worker_id: int) -> None:
        connection = Connection(port)
        try:
            while True:
                with lock:
                    index = position[0]
                    position[0] += 1
                if index >= len(requests):
                    return
                now = time.perf_counter()
                due = start + offsets[index]
                item = Sent(first_rid + index, requests[index], due)
                item.picked = now
                if speed is not None and due > now:
                    calibrate(worker_id, due)
                    now = time.perf_counter()
                if due > now:
                    time.sleep(due - now)
                with lock:
                    waiting.pop(worker_id, None)
                    in_flight[0] += 1
                item.sent = time.perf_counter()
                try:
                    item.status, item.body = connection.get(
                        path_of(item.rid, item.request))
                except OSError:
                    connection.close()
                    connection = Connection(port)
                item.done = time.perf_counter()
                with lock:
                    in_flight[0] -= 1
                    sent.append(item)
        finally:
            connection.close()

    threads = [threading.Thread(target=worker, args=(worker_id,))
               for worker_id in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    sent.sort(key=lambda item: item.rid)
    return sent, max(item.done for item in sent) - start


def judge(sent: list, expected: dict) -> list[bool]:
    """Per request: 200 with exactly the reference results."""
    verdicts = []
    for item in sent:
        ok = item.status == 200
        if ok:
            body = json.loads(item.body)
            ok = (not body["partial"] and not body["degraded_shards"]
                  and body["results"] == expected[item.request])
        verdicts.append(ok)
    return verdicts


def schedule(seed: int, seconds: float) -> list[float]:
    """Seeded Poisson arrival offsets at ``RATE``: a whole number of
    cycles of ``CYCLE`` requests, the one closest to ``seconds`` of
    load, and ``MIN_TIMED`` or more."""
    count = max(MIN_TIMED, CYCLE * round(RATE * seconds / CYCLE))
    rng = random.Random(seed + 3)
    offsets = []
    now = 0.0
    for _ in range(count):
        now += rng.expovariate(RATE)
        offsets.append(now)
    return offsets


def closed_loop(port: int, requests, first_rid: int, seconds: float,
                speed: Speed | None = None) -> list:
    """Send ``requests`` back to back on one connection until they run
    out or ``seconds`` elapse; with a ``speed``, the generator takes a
    calibration reading every ``CALIBRATE_EVERY`` requests, with none
    in flight. Returns the sent requests."""
    connection = Connection(port)
    sent = []
    try:
        deadline = time.perf_counter() + seconds
        for index, request in enumerate(requests):
            if speed is not None and index % CALIBRATE_EVERY == 0:
                speed.sample()
            now = time.perf_counter()
            if now >= deadline:
                break
            item = Sent(first_rid + index, request, now)
            item.picked = item.sent = now
            try:
                item.status, item.body = connection.get(
                    path_of(item.rid, request))
            except OSError:
                connection.close()
                connection = Connection(port)
            item.done = time.perf_counter()
            sent.append(item)
    finally:
        connection.close()
    return sent


def saturation_rate(sent: list, speed: Speed) -> float:
    """Requests per second of the saturation phase at the reference
    speed: each request's round trip scaled by the slowdown of the
    readings around it."""
    slowdowns = speed.local_slowdowns([item.sent for item in sent])
    return len(sent) / sum((item.done - item.sent) / slowdown
                           for item, slowdown in zip(sent, slowdowns))


def latency_ms(item: Sent) -> float:
    """Time from when the request was due: waiting for a busy
    connection and the generator's own lateness both count."""
    return (item.done - item.due) * 1000.0


def lateness_ms(sent: list) -> list[float]:
    """How late the generator sent the requests it was free to send on
    time (a request waiting for a busy connection is the server's
    delay, not the generator's). A validity check only: latency counts
    from the due time either way."""
    return [(item.sent - item.due) * 1000.0 for item in sent
            if item.picked <= item.due]


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------
def run(seed: int, seconds: float, trace: bool) -> Outcome:
    work = str(scratch_dir("serve-"))
    servers: list[Server] = []
    try:
        plan = Plan(seed, work)
        # One set-up per run: it costs about 10 s, a third of the run,
        # so ``setup_s`` here is one reading and steadies as a median
        # over runs.
        setup_speed = Speed()
        setup_speed.burst(BURST_S)
        deployment = Deployment(os.path.join(work, "deployment"),
                                plan.holdout)
        servers.append(Server(deployment))
        started = time.perf_counter()
        warming = closed_loop(servers[-1].port, plan.warm_up(),
                              -10 ** 6, BOOT_TIMEOUT_S)
        times = dict(deployment.times, boot_s=servers[-1].boot_s,
                     warm_s=time.perf_counter() - started)
        setup_speed.burst(BURST_S)
        setup_raw = sum(times.values())
        setup_s = setup_raw / setup_speed.slowdown()
        offsets = schedule(seed, seconds)
        requests = plan.draw(seed, len(offsets))
        saturating = plan.draw_short(seed, SATURATION_POOL)
        expected = plan.expected(requests + saturating + plan.warm_up())
        warmed_ok = judge(warming, expected)
        gc.collect()
        inputs = {"patients": len(plan.engine.corpus),
                  "ontology_concepts": len(plan.engine.ontology),
                  "vocabulary": len(deployment.vocabulary),
                  "postings": deployment.postings,
                  "holdout_words": len(plan.holdout),
                  "server_flags": " ".join(deployment.server_args()[4:]),
                  "rate_per_s": RATE, "connections": CONNECTIONS}
        if trace:
            return _traced(work, deployment, servers, requests, offsets,
                           expected, setup_metrics(times, [setup_s]),
                           inputs, plan.warm_up())
        server = servers[0]
        before = server.metrics()
        timed_speed = Speed()
        timed, _ = generate(server.port, requests, offsets,
                            speed=timed_speed)
        speed = Speed()
        saturated = closed_loop(server.port, saturating, len(offsets),
                                SATURATION_S, speed)
        after = server.metrics()
        rss = peak_rss_mb(server.process.pid)
        drained = server.stop()
        servers.clear()

        verdicts = judge(timed, expected)
        saturation_ok = judge(saturated, expected)
        raw = [latency_ms(item) for item in timed]
        latencies = [latency / slowdown for latency, slowdown in zip(
            raw, timed_speed.local_slowdowns(
                [item.due for item in timed]))]
        late = lateness_ms(timed)
        counted = (after["counters"].get("server.requests", 0)
                   - before["counters"].get("server.requests", 0))
        sent_count = len(timed) + len(saturated)
        validity = {"drained": drained,
                    "counter_matches": counted == sent_count,
                    "on_schedule": percentile(late, 0.99)
                    <= MAX_LATENESS_MS}
        if not validity["on_schedule"]:
            print(f"serve: generator lateness p99 "
                  f"{percentile(late, 0.99):.1f} ms exceeds "
                  f"{MAX_LATENESS_MS} ms; run rejected", file=sys.stderr)
            raise SystemExit(2)
        failed = (verdicts.count(False) + saturation_ok.count(False)
                  + warmed_ok.count(False)
                  + (not validity["drained"])
                  + (not validity["counter_matches"]))
        attempted = sent_count + len(warming) + 2
        statuses = Counter(str(item.status) for item in timed + saturated)
        metrics = {"setup_s": setup_s,
                   "p50_ms": percentile(latencies, 0.50),
                   "p99_ms": percentile(latencies, 0.99),
                   "ops_per_s": saturation_rate(saturated, speed),
                   "peak_rss_mb": rss}
        good = sum(ok and latency <= LIMIT_MS
                   for ok, latency in zip(verdicts, raw))
        report = {"goodput_frac": good / len(timed),
                  "failed_frac": failed / attempted,
                  "requests_timed": len(timed),
                  "p99_samples_beyond": beyond(latencies, 0.99),
                  "kernel_ms": speed.kernel_ms(),
                  "timed_kernel_ms": timed_speed.kernel_ms(),
                  "raw_setup_s": setup_raw,
                  "timed_readings": len(timed_speed.readings),
                  "raw_p50_ms": percentile(raw, 0.50),
                  "raw_p99_ms": percentile(raw, 0.99),
                  "raw_ops_per_s": len(saturated) / sum(
                      item.done - item.sent for item in saturated),
                  "generator_lateness_p50_ms": percentile(late, 0.5),
                  "generator_lateness_p99_ms": percentile(late, 0.99),
                  "statuses": statuses,
                  "server_requests_counted": counted,
                  "requests_sent": sent_count, **validity}
        return Outcome(attempted, failed, metrics, report, inputs)
    finally:
        for server in servers:
            server.kill()
        shutil.rmtree(work, ignore_errors=True)


def _traced(work, deployment, servers, requests, offsets, expected,
            setup_figures, inputs, warm_up) -> Outcome:
    """The open-loop phase on the untraced server, then on a traced
    launcher server with the same schedule; per-layer numbers come from
    the traced pass."""
    from serve_trace import merge_server_spans, server_metrics
    from tracing import layer_extras, layer_metrics
    server = servers[0]
    untraced, _ = generate(server.port, requests, offsets)
    server.stop()
    servers.clear()
    trace_out = os.path.join(work, "server-trace.json")
    traced_server = Server(deployment, trace_out=trace_out)
    servers.append(traced_server)
    closed_loop(traced_server.port, warm_up, -10 ** 6, BOOT_TIMEOUT_S)
    before = traced_server.metrics()
    traced, _ = generate(traced_server.port, requests, offsets)
    after = traced_server.metrics()
    traced_server.stop()
    servers.clear()
    with open(trace_out, encoding="utf-8") as handle:
        dump = json.load(handle)
    recorder = merge_server_spans(dump, traced)
    metrics = layer_metrics(recorder.spans)
    metrics.update(layer_extras(recorder))
    metrics.update(server_metrics(recorder, traced, before, after))
    metrics.update(setup_figures)
    service_ms = [(item.done - item.sent) for item in untraced]
    traced_ms = [(item.done - item.sent) for item in traced]
    metrics["trace.overhead_frac"] = (sum(traced_ms) / sum(service_ms)
                                      - 1.0)
    verdicts = judge(untraced, expected) + judge(traced, expected)
    return Outcome(len(verdicts), verdicts.count(False), metrics,
                   inputs=inputs, spans=recorder.spans)

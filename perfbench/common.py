"""Shared pieces of the benchmark workloads.

Seeded input generation, latency statistics, the environment
fingerprint, peak-memory readings and the scratch directory every run
writes into. Nothing here measures on its own; the workload modules
decide what is timed.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import random
import resource
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Everything a run writes (stores, data directories, traces) lives
#: under this directory of the checkout; it is git-ignored.
WORK = ROOT / ".perfbench_work"

#: Corpus size shared by every workload.
PATIENTS = 60
TOP_K = 10
#: Latency limit a served request must meet to count as goodput.
LIMIT_MS = 100.0


def import_repro() -> None:
    """Put the checkout's ``src`` on the path and import the package.

    Raises ``SystemExit(2)`` when the sources are absent, so a run in a
    directory without the program fails fast and prints no result.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}",
              file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro  # noqa: F401


def pin_to_one_cpu() -> int:
    """Pin this process, and so every process it starts, to the lowest
    CPU it may use; returns that CPU.

    On a small virtual machine a request that crosses CPUs (generator to
    server and back) waits for the other virtual CPU to wake: identical
    ``serve`` runs measured p50 from 4.6 to 19.7 ms and throughput from
    90 to 236 req/s. Pinned to one CPU they held within 3-3.5 ms and
    290-340 req/s. The workloads are single-threaded or GIL-bound, so
    one CPU is what they use anyway.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def scratch_dir(prefix: str) -> Path:
    WORK.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=WORK))


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def beyond(values, q: float) -> int:
    """How many samples lie above the nearest-rank ``q`` percentile."""
    return len(values) - max(1, math.ceil(q * len(values)))


def peak_rss_mb(pid: int | None = None) -> float:
    """Peak resident set size in MiB: of ``pid`` from ``/proc`` (read
    while it runs), else of this process."""
    if pid is not None:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError(f"no VmHWM for pid {pid}")
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------
#: EMR generator seed of the corpus every workload searches: the
#: 60-patient clinic the repository's table benchmarks use. A run's
#: ``--seed`` varies the queries, their order, the arrival schedule,
#: the held-out words and the appended patients instead; drawing the
#: corpus from the seed as well moved mean query cost by about 12%
#: between seeds, more than a third of the bound.
CORPUS_SEED = 7


@dataclass
class Dataset:
    """One ontology + CDA corpus, plus patients held back to append."""

    ontology: object
    terminology: object
    corpus: object
    extra: list = field(default_factory=list)


def make_dataset(scale: float = 1.0, append_seed: int = 0,
                 append_patients: int = 0) -> Dataset:
    """Synthetic SNOMED at ``scale`` and the ``PATIENTS``-patient
    corpus; with ``append_patients``, that many more patients from the
    EMR generator seeded with ``append_seed``, numbered after the
    corpus's documents."""
    from repro.cda import build_cda_corpus
    from repro.emr import generate_cardiac_emr
    from repro.ontology import TerminologyService, build_synthetic_snomed
    from repro.xmldoc.parser import XMLParser
    from repro.xmldoc.serializer import serialize
    ontology = build_synthetic_snomed(scale=scale)
    terminology = TerminologyService([ontology])
    corpus, _ = build_cda_corpus(
        generate_cardiac_emr(n_patients=PATIENTS, seed=CORPUS_SEED,
                             ontology=ontology), terminology)
    extra = []
    if append_patients:
        arrivals, _ = build_cda_corpus(
            generate_cardiac_emr(n_patients=append_patients,
                                 seed=append_seed, ontology=ontology),
            terminology)
        parser = XMLParser()
        extra = [parser.parse(serialize(document),
                              doc_id=PATIENTS + position)
                 for position, document in enumerate(arrivals)]
    return Dataset(ontology, terminology, corpus, extra)


def query_words(corpus) -> list[str]:
    """Document words a keyword query can sample: the Figure-11 rule
    (longer than three letters, not a number), sorted."""
    from repro.core.index.vocabulary import corpus_vocabulary
    return sorted(word for word in corpus_vocabulary(corpus)
                  if len(word) > 3 and not word.isdigit())


#: Query words leave out the 3% with the largest posting lists (CDA
#: markup such as code, codesystem, displayname, entry) and fall into
#: four strata of the rest by posting-list size: the next 10%, up to
#: 35%, up to 70% and the rarest 30%. Position i of a keyword query
#: draws from stratum ``QUERY_STRATA[i]`` (never the rarest: a rare
#: word ends the merge at once, which made the latency distribution
#: bimodal). Uniform draws (Figure
#: 11's rule) and nested families left the share of heavy queries to a
#: few draws: p50 and p99 moved 2x between seeds.
SKIP_LARGEST = 0.03
STRATA_CUTS = (0.10, 0.35, 0.70)
QUERY_STRATA = (0, 2, 1, 2, 1)


def query_strata(sizes: dict[str, int]) -> list[list[str]]:
    """The word strata from each query word's posting-list size."""
    ranked = sorted(sizes, key=lambda word: (-sizes[word], word))
    ranked = ranked[int(len(ranked) * SKIP_LARGEST):]
    bounds = ([0] + [int(len(ranked) * cut) for cut in STRATA_CUTS]
              + [len(ranked)])
    return [ranked[bounds[i]:bounds[i + 1]]
            for i in range(len(bounds) - 1)]


def keyword_queries(rng: random.Random, strata: list[list[str]],
                    count: int) -> list[str]:
    """``count`` keyword queries of 2, 3, 4 and 5 keywords in turn,
    position i drawn from stratum ``QUERY_STRATA[i]``, no word twice in
    a query.

    Words are dealt from one shuffled deck per stratum, refilled when
    empty, so every word of a stratum comes up equally often and the
    seed only decides how they are combined. With independent draws,
    how often the few heaviest words came up was left to chance, and
    p99 moved 16% between seeds with 1000 queries."""
    decks: list[list[str]] = [[] for _ in strata]

    def deal(stratum: int, taken: list[str]) -> str:
        deck = decks[stratum]
        skipped = []
        while True:
            if not deck:
                deck.extend(strata[stratum])
                rng.shuffle(deck)
            word = deck.pop()
            if word not in taken:
                deck.extend(skipped)
                return word
            skipped.append(word)

    queries = []
    for index in range(count):
        words: list[str] = []
        for stratum in QUERY_STRATA[:2 + index % 4]:
            words.append(deal(stratum, words))
        queries.append(" ".join(words))
    return queries


def curated_queries() -> list[str]:
    """The 20 Table I/II workload queries."""
    from repro.evaluation.workload import table2_queries
    return [query.text for query in table2_queries()]


def narrative_texts() -> list[str]:
    from repro.evaluation.workload import NARRATIVE_WORKLOAD
    return [variant.text for variant in NARRATIVE_WORKLOAD]


def zipf_picker(rng: random.Random, items: list, exponent: float):
    """A draw function over ``items`` with Zipf popularity on a seeded
    shuffle of them (rank r has weight 1 / r**exponent)."""
    order = list(items)
    rng.shuffle(order)
    weights = [1.0 / (rank ** exponent)
               for rank in range(1, len(order) + 1)]
    cumulative = []
    total = 0.0
    for weight in weights:
        total += weight
        cumulative.append(total)

    def pick():
        import bisect
        return order[bisect.bisect_left(cumulative,
                                        rng.random() * total)]
    return pick


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def fingerprint(seed: int, **details) -> dict:
    """What a wall-clock figure depends on; runs compare only when it
    matches."""
    return {"nproc": os.cpu_count(),
            "python": platform.python_version(),
            "git_commit": _git_commit(),
            "src_sha256": _source_digest(),
            "seed": seed, **details}


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _source_digest() -> str:
    """A digest of the program sources (the checkout a run measures is
    not always a git repository)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


@dataclass
class Outcome:
    """What one workload run hands back to the runner."""

    attempted: int
    failed: int
    #: Untraced runs: end-to-end metric values by name. Traced runs:
    #: per-layer metric values by name.
    metrics: dict
    #: Figures printed for the reader beside the metrics.
    report: dict = field(default_factory=dict)
    #: Fingerprint entries describing the inputs.
    inputs: dict = field(default_factory=dict)
    #: Spans of a traced run, written out as a Chrome trace.
    spans: list = field(default_factory=list)

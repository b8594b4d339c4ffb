"""The benchmark's three workloads, one repetition at a time.

A repetition builds a fresh corpus (set-up), then makes the workload's
one timed call through ``repro.api``, on the default sequential driver
or the in-process asyncio service, with no worker processes.
``child.py`` runs each repetition in a fresh process, so no repetition
sees caches an earlier one filled.

The kernel tree is the same for every seed, as one kernel release is
for every janitor; the seed draws the commit history and the window.
Inside the timed call, per-call timers split the wall time into
*segments*: calls that never overlap, each timed on its own.

- ``eval_window``: the §V protocol, ``EvaluationSession.run`` (what
  ``repro.api.evaluate`` calls) with janitor identification on and a
  fresh BuildCache. A closed loop with one client: a commit is checked
  only after the previous verdict exists. Unit of work: one verdict
  (``CheckSession.check_commit``). Segments: the verdicts and the
  identification.
- ``janitor_scan``: §IV identification (``JanitorFinder.identify``
  over the same windows as ``jmake janitors``) over a long history.
  No preprocessing or compiling. Unit of work: the identification.
  Segments: every ``Repository.show`` and every
  ``MaintainersDb.entries_for_path`` call.
- ``fleet_ingest``: ``WatchSession.run`` (what ``repro.api.watch``
  calls) drains the evaluation window one commit a batch through the
  asyncio CheckService into a file-backed journal and SQLite store,
  both at their default settings. After every batch one
  ``query_verdicts`` and one ``janitor_report`` read the store: a
  closed loop of batches with reads beside writes. Unit of work: one
  batch (pull, check, journal, ingest). Segments: the batches and the
  reads.
"""

from __future__ import annotations

import os
import time
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass, field

import oracle
from tracing import timed

#: the one kernel tree every seed's history is written against
TREE_SEED = "perfbench-kernel"
#: corpus scale per workload
EVAL_SPEC = {"history_commits": 400, "eval_commits": 400}
JANITOR_SPEC = {"history_commits": 1200, "eval_commits": 400}
FLEET_SPEC = {"history_commits": 400, "eval_commits": 120}
#: commits per watch batch: one, as a daemon following a live tree
#: sees them, so a short window still gives over 100 batches
FLEET_BATCH = 1


@dataclass
class Measured:
    """What one repetition measured and produced."""
    corpus_seed: str
    #: corpus build plus session or daemon construction
    setup_s: float = 0.0
    #: wall seconds of the workload's one timed call
    main_s: float = 0.0
    #: commits that call handled
    commits: int = 0
    #: segment name -> seconds of each call, in call order
    segments: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    cache_hits: int = 0
    cache_probes: int = 0
    findings: oracle.Findings = field(default_factory=oracle.Findings)

    @classmethod
    def from_dict(cls, payload: dict) -> "Measured":
        fields = dict(payload)
        fields["findings"] = oracle.Findings(**fields["findings"])
        return cls(**fields)


def _build(spec: dict, corpus_seed: str, recorder):
    from repro import api
    from repro.kernel.layout import default_tree_spec

    spec = api.CorpusSpec(seed=corpus_seed,
                          tree_spec=default_tree_spec(seed=TREE_SEED),
                          **spec)
    if recorder is None:
        return api.build_corpus(spec)
    return recorder.call("workload.build_corpus", api.build_corpus, spec)


def _recording(recorder):
    """Spans around every layer call while set-up and the timed call
    run; the oracle's reads afterwards stay outside the trace."""
    return nullcontext() if recorder is None else recorder.installed()


def _timed_segments(result: Measured, calls) -> ExitStack:
    """Per-call timers on ``(segment name, owner, attribute)``."""
    stack = ExitStack()
    for name, owner, attribute in calls:
        stack.enter_context(timed(owner, attribute,
                                  result.segments.setdefault(name, [])))
    return stack


def eval_window(corpus_seed: str, workdir: str, digests: dict,
                recorder=None) -> Measured:
    from repro import api

    result = Measured(corpus_seed)
    with _recording(recorder):
        start = time.perf_counter()
        corpus = _build(EVAL_SPEC, corpus_seed, recorder)
        session = api.EvaluationSession(corpus, cache=api.BuildCache())
        result.setup_s = time.perf_counter() - start

        with _timed_segments(result, (
                ("verdict", api.CheckSession, "check_commit"),
                ("identify", api.EvaluationSession, "identify_janitors"))):
            start = time.perf_counter()
            evaluation = session.run()
            result.main_s = time.perf_counter() - start

    result.commits = len(evaluation.patches)
    result.attempted = result.commits + len(result.segments["identify"])
    result.failed = sum(1 for patch in evaluation.patches
                        if not patch.fully_checked or patch.fault_reports)
    stats = evaluation.cache_stats
    result.cache_hits = stats.hits
    result.cache_probes = stats.hits + stats.misses
    oracle.check_evaluation(corpus, evaluation, result.findings)
    oracle.check_digest(result.findings, "eval_window", corpus_seed,
                        evaluation.canonical_records(), digests)
    return result


def janitor_scan(corpus_seed: str, workdir: str, digests: dict,
                 recorder=None) -> Measured:
    from repro import api

    result = Measured(corpus_seed)
    with _recording(recorder):
        start = time.perf_counter()
        corpus = _build(JANITOR_SPEC, corpus_seed, recorder)
        finder = api.JanitorFinder(corpus.repository,
                                   corpus.tree.maintainers,
                                   criteria=api.scaled_criteria(corpus))
        result.setup_s = time.perf_counter() - start

        with _timed_segments(result, (
                ("show", api.Repository, "show"),
                ("entries_for_path", type(corpus.tree.maintainers),
                 "entries_for_path"))):
            start = time.perf_counter()
            ranked = finder.identify(
                history_since=None, history_until=api.Corpus.TAG_EVAL_END,
                eval_since=api.Corpus.TAG_EVAL_START,
                eval_until=api.Corpus.TAG_EVAL_END)
            result.main_s = time.perf_counter() - start

    # the history window starts at the root: every commit is scanned
    result.commits = len(corpus.repository)
    result.attempted = 1
    oracle.check_janitor_rows(corpus, ranked, result.findings)
    oracle.check_digest(result.findings, "janitor_scan", corpus_seed,
                        oracle.janitor_rows_text(ranked), digests)
    return result


def fleet_ingest(corpus_seed: str, workdir: str, digests: dict,
                 recorder=None) -> Measured:
    from repro import api

    result = Measured(corpus_seed)
    batches = result.segments.setdefault("batch", [])
    reads = result.segments.setdefault("read", [])
    store_path = os.path.join(workdir, "verdicts.sqlite")
    journal_path = os.path.join(workdir, "run.jnl")
    pull_started: list = []
    read_errors: list = []

    class TimedWindow(api.WindowSource):
        """The default window source, noting when a batch's pull began."""

        def next_commits(self, limit):
            if not pull_started:
                pull_started.append(time.perf_counter())
            return super().next_commits(limit)

    def on_event(record: dict) -> None:
        if record["kind"] != "watch.batch":
            return
        batches.append(time.perf_counter() - pull_started.pop())
        start = time.perf_counter()
        try:
            api.query_verdicts(watcher.store, verdict="ATTENTION REQUIRED")
            api.janitor_report(watcher.store)
        except api.StoreError as error:
            read_errors.append(str(error))
        reads.append(time.perf_counter() - start)

    with _recording(recorder):
        start = time.perf_counter()
        corpus = _build(FLEET_SPEC, corpus_seed, recorder)
        cache = api.BuildCache()
        watcher = api.WatchSession(
            corpus, store=store_path, journal=journal_path,
            source=TimedWindow(corpus),
            config=api.WatchConfig(batch_size=FLEET_BATCH, cache=cache),
            events=api.EventLog(sinks=[api.CallbackSink(on_event)]))
        result.setup_s = time.perf_counter() - start

        start = time.perf_counter()
        watched = watcher.run()
        result.main_s = time.perf_counter() - start

    result.commits = watched.fresh
    result.attempted = watched.commits_seen + len(reads)
    stats = cache.stats_snapshot()
    result.cache_hits = stats.hits
    result.cache_probes = stats.hits + stats.misses
    with api.open_store(store_path) as store:
        verdicts = store.query()
        dump = store.canonical_dump()
    result.failed = len(read_errors) + watched.commits_seen - len(verdicts) \
        + sum(1 for verdict in verdicts if not verdict.fully_checked)
    oracle.check_store(corpus, verdicts, result.findings)
    oracle.check_digest(result.findings, "fleet_ingest", corpus_seed, dump,
                        digests)
    return result


WORKLOADS = {
    "eval_window": eval_window,
    "janitor_scan": janitor_scan,
    "fleet_ingest": fleet_ingest,
}

"""The stable, versioned public API of the JMake reproduction.

``repro.api`` is the only supported import surface: the CLI and every
example script import from here, and anything importable from this
module follows the serialized-record ``schema_version`` compatibility
story (see :data:`SCHEMA_VERSION` / :func:`migrate_record`).

Four tiers:

- **functions** — :func:`check_commit`, :func:`check_patch`,
  :func:`evaluate`, :func:`serve` cover the common one-shot write
  paths;
- **the read surface** — :func:`open_store`, :func:`query_verdicts`,
  :func:`janitor_report`, :func:`watch`: fleet mode's persistent
  verdict store and its continuous-ingest daemon. Queries are pure
  reads — answering one never triggers preprocess or compile work;
- **session objects** — :class:`CheckSession`,
  :class:`EvaluationSession`, :class:`CheckService`,
  :class:`WatchSession` for callers that hold state across many
  checks;
- **re-exports** — the data types and helpers user scripts legitimately
  touch (reports, corpus construction, tables/figures, observability,
  fault plans, store filters).
"""

from __future__ import annotations

# -- the facade's own imports (public re-export surface) ----------------------

from repro.analysis.deadblocks import BlockVerdict, DeadBlockAnalyzer
from repro.buildcache.cache import BuildCache, CachePolicy
from repro.core.changes import extract_changed_files
from repro.core.jmake import CheckSession, JMakeOptions
from repro.core.mutation import MutationEngine, MutationOverlay
from repro.core.report import (
    SCHEMA_VERSION,
    FileReport,
    FileStatus,
    PatchReport,
    migrate_record,
)
from repro.core.units import UnitDag, WorkUnit, run_units
from repro.errors import (
    AuthError,
    CorpusMismatchError,
    FaultPlanError,
    FrameCorruptError,
    FrameTooLargeError,
    FrameTruncatedError,
    JournalCorruptError,
    JournalError,
    ReproError,
    SchemaError,
    StoreError,
    ServiceDrainingError,
    ServiceError,
    ServiceOverloadedError,
    ServiceOverloadError,
    SimulatedCrashError,
    TransportError,
    VcsError,
    WireError,
    WireSchemaError,
    WorkerCrashError,
    WorkerLostError,
)
from repro.evalsuite.experiments import EXPERIMENTS
from repro.evalsuite.figures import figure5_overall
from repro.evalsuite.reportdoc import write_markdown_report
from repro.evalsuite.runner import (
    EvaluationResult,
    EvaluationSession,
    scaled_criteria,
)
from repro.evalsuite.tables import table1, table2, table3, table4
from repro.faults.chaos import (
    CrashPoint,
    crash_offsets,
    transport_chaos_plan,
)
from repro.faults.inject import FaultInjector, NULL_INJECTOR
from repro.faults.plan import FaultPlan
from repro.faults.resilience import RetryPolicy
from repro.journal import Journal, ReplayResult, VerdictLedger
from repro.janitors.activity import ActivityAnalyzer
from repro.janitors.identify import JanitorFinder
from repro.kbuild.build import BuildSystem
from repro.kconfig.ast import Tristate
from repro.kconfig.configfile import Config
from repro.kernel.generator import generate_tree
from repro.kernel.layout import HazardKind
from repro.cpp.prepared import (
    collect_metrics as collect_substrate_metrics,
    set_event_hook as set_substrate_event_hook,
)
from repro.obs.events import (
    EVENT_FASTPATH_CHANGED,
    EVENT_KINDS,
    EVENT_SCHEMA_VERSION,
    Event,
    EventLog,
    NullEventLog,
    validate_event_record,
)
from repro.obs.export import (
    render_span_tree,
    span_count,
    write_chrome_trace,
)
from repro.obs.logcfg import LEVELS, configure_logging
from repro.obs.metrics import MetricsRegistry
from repro.obs.sinks import (
    CallbackSink,
    JsonlSink,
    OpenMetricsSink,
    parse_openmetrics,
    read_jsonl,
    render_openmetrics,
    sanitized_metrics,
)
from repro.obs.timeseries import (
    SNAPSHOT_SCHEMA_VERSION,
    MetricsSnapshot,
    SnapshotRing,
    Snapshotter,
    histogram_quantiles,
    registry_from_dict,
    validate_snapshot_record,
)
from repro.obs.tracer import Tracer
from repro.service import (
    START_METHODS,
    TRANSPORT_KINDS,
    CheckRequest,
    CheckResult,
    CheckService,
    ServiceConfig,
    ShardSupervisor,
    SupervisorConfig,
    TransportOutcome,
    live_transports,
)
from repro.service.transport import wire
from repro.service.transport.client import ReconnectPolicy, WorkerClient
from repro.service.watch import (
    SyntheticTrafficSource,
    WatchConfig,
    WatchResult,
    WatchSession,
    WindowSource,
)
from repro.service.watch import watch as _watch
from repro.store import (
    STORE_SCHEMA_VERSION,
    VERDICT_KINDS,
    FileVerdictRow,
    IngestResult,
    JanitorViewCriteria,
    JanitorViewRow,
    StoredVerdict,
    VerdictFilter,
    VerdictStore,
    ingest_ledger,
)
from repro.util.atomicio import (
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_text,
)
from repro.util.rng import DeterministicRng
from repro.vcs.diff import Patch, diff_texts
from repro.vcs.repository import Repository, Worktree
from repro.workload.corpus import Corpus, CorpusSpec, build_corpus
from repro.workload.personas import PersonaKind

__all__ = [
    # functions
    "check_commit", "check_patch", "evaluate", "serve", "validate_jobs",
    "resolve_outputs", "OUT_DIR_DEFAULTS",
    # the fleet-mode read surface (store + watch)
    "open_store", "query_verdicts", "janitor_report", "watch",
    "VerdictStore", "VerdictFilter", "StoredVerdict", "FileVerdictRow",
    "IngestResult", "JanitorViewCriteria", "JanitorViewRow",
    "STORE_SCHEMA_VERSION", "VERDICT_KINDS", "StoreError",
    "ingest_ledger",
    "WatchSession", "WatchConfig", "WatchResult", "WindowSource",
    "SyntheticTrafficSource",
    # sessions / service
    "CheckSession", "EvaluationSession", "CheckService", "ServiceConfig",
    "CheckRequest", "CheckResult", "ShardSupervisor", "SupervisorConfig",
    # transports and the wire protocol
    "TRANSPORT_KINDS", "START_METHODS", "TransportOutcome",
    "live_transports", "wire", "transport_chaos_plan",
    "TransportError", "WorkerLostError", "WireError",
    "FrameTruncatedError", "FrameCorruptError", "FrameTooLargeError",
    "WireSchemaError",
    # the cross-host worker fleet (PR 10)
    "WorkerClient", "ReconnectPolicy", "AuthError",
    "CorpusMismatchError",
    # durability (write-ahead journal, resume, chaos)
    "Journal", "ReplayResult", "VerdictLedger", "CrashPoint",
    "crash_offsets", "JournalError", "JournalCorruptError",
    "SimulatedCrashError", "WorkerCrashError",
    # schema
    "SCHEMA_VERSION", "migrate_record",
    # telemetry plane (snapshots, sinks, structured events)
    "EVENT_FASTPATH_CHANGED", "EVENT_KINDS", "EVENT_SCHEMA_VERSION",
    "Event", "EventLog", "NullEventLog", "validate_event_record",
    "SNAPSHOT_SCHEMA_VERSION", "MetricsSnapshot", "SnapshotRing",
    "Snapshotter", "histogram_quantiles", "registry_from_dict",
    "validate_snapshot_record",
    "CallbackSink", "JsonlSink", "OpenMetricsSink",
    "parse_openmetrics", "read_jsonl", "render_openmetrics",
    "sanitized_metrics",
    "collect_substrate_metrics", "set_substrate_event_hook",
    # data types and helpers
    "ActivityAnalyzer", "BlockVerdict", "BuildCache", "BuildSystem",
    "CachePolicy", "Config", "Corpus", "CorpusSpec", "DeadBlockAnalyzer",
    "DeterministicRng", "EXPERIMENTS", "EvaluationResult", "FaultInjector",
    "FaultPlan", "FaultPlanError", "FileReport", "FileStatus",
    "HazardKind", "JMakeOptions", "JanitorFinder", "LEVELS",
    "MetricsRegistry", "MutationEngine", "MutationOverlay",
    "NULL_INJECTOR", "Patch", "PatchReport", "PersonaKind", "ReproError",
    "Repository", "RetryPolicy", "SchemaError", "ServiceDrainingError",
    "ServiceError", "ServiceOverloadedError", "ServiceOverloadError",
    "Tracer", "Tristate",
    "UnitDag", "VcsError", "WorkUnit", "Worktree",
    "atomic_write_bytes", "atomic_write_json", "atomic_write_text",
    "build_corpus",
    "configure_logging", "diff_texts", "extract_changed_files",
    "figure5_overall", "generate_tree", "render_span_tree", "run_units",
    "scaled_criteria", "span_count", "table1", "table2", "table3",
    "table4", "write_chrome_trace", "write_markdown_report",
]


# -- validation ---------------------------------------------------------------

def validate_jobs(jobs, *, what: str = "jobs") -> int:
    """The one place ``--jobs``/shard counts are validated.

    Accepts any integral value ≥ 1 (bools rejected); raises
    ``ValueError`` with a uniform message otherwise. The CLI, the
    evaluation session, and the service config all call this, so
    ``jmake serve --shards 0`` and ``jmake evaluate --jobs 0`` fail the
    same way.
    """
    if isinstance(jobs, bool) or not isinstance(jobs, int):
        raise ValueError(
            f"{what} must be a positive integer, got {jobs!r}")
    if jobs < 1:
        raise ValueError(
            f"{what} must be a positive integer, got {jobs}")
    return jobs


# -- one-shot functions -------------------------------------------------------

def check_commit(tree, repository: Repository, commit,
                 *, options: JMakeOptions | None = None,
                 cache: "BuildCache | None" = None,
                 tracer=None, metrics=None,
                 fault_plan: "FaultPlan | None" = None,
                 retry_policy: "RetryPolicy | None" = None) -> PatchReport:
    """Check one commit of a repository against a generated tree."""
    session = CheckSession.from_generated_tree(
        tree, options=options, cache=cache, tracer=tracer,
        metrics=metrics, fault_plan=fault_plan,
        retry_policy=retry_policy)
    return session.check_commit(repository, commit)


def check_patch(worktree: Worktree, patch: Patch,
                *, tree=None, commit_id: str | None = None,
                options: JMakeOptions | None = None,
                cache: "BuildCache | None" = None,
                tracer=None, metrics=None,
                fault_plan: "FaultPlan | None" = None,
                retry_policy: "RetryPolicy | None" = None) -> PatchReport:
    """Check a patch against an already-checked-out worktree.

    ``tree`` (a generated kernel tree) binds bootstrap/rebuild
    metadata when available; without it the check runs bare.
    """
    if tree is not None:
        session = CheckSession.from_generated_tree(
            tree, options=options, cache=cache, tracer=tracer,
            metrics=metrics, fault_plan=fault_plan,
            retry_policy=retry_policy)
    else:
        session = CheckSession(
            options=options, cache=cache, tracer=tracer,
            metrics=metrics, fault_plan=fault_plan,
            retry_policy=retry_policy)
    return session.check_patch(worktree, patch, commit_id=commit_id)


def evaluate(corpus: Corpus, *,
             options: JMakeOptions | None = None,
             criteria=None,
             cache: "BuildCache | bool | None" = None,
             observe: bool = False,
             fault_plan: "FaultPlan | None" = None,
             retry_policy: "RetryPolicy | None" = None,
             limit: int | None = None,
             use_ground_truth_janitors: bool = False,
             jobs: int = 1,
             service: "bool | int | ServiceConfig" = False
             ) -> EvaluationResult:
    """Run the §V evaluation protocol over a corpus window."""
    session = EvaluationSession(
        corpus, options=options, criteria=criteria, cache=cache,
        observe=observe, fault_plan=fault_plan,
        retry_policy=retry_policy)
    return session.run(limit=limit,
                       use_ground_truth_janitors=use_ground_truth_janitors,
                       jobs=jobs, service=service)


def serve(corpus: Corpus, *,
          options: JMakeOptions | None = None,
          config: "ServiceConfig | None" = None,
          cache: "BuildCache | bool | None" = True) -> CheckService:
    """Construct a check service over a corpus (call ``start()`` or
    use the ``check_commits`` sync wrapper)."""
    return CheckService(corpus, options=options, config=config,
                        cache=cache)


# -- the fleet-mode read surface ----------------------------------------------

def open_store(path: str = ":memory:", *, metrics=None,
               events=None) -> VerdictStore:
    """Open (or create) a persistent verdict store.

    The returned :class:`VerdictStore` is a context manager; pass
    ``metrics``/``events`` to wire its ``store.*`` gauges and
    ``ingest.*`` events into the telemetry plane.
    """
    return VerdictStore(path, metrics=metrics, events=events)


def query_verdicts(store: "VerdictStore | str",
                   filter: "VerdictFilter | None" = None,
                   **predicates) -> list[StoredVerdict]:
    """Answer a typed filter against a store — a pure read.

    ``store`` is an open :class:`VerdictStore` or a database path;
    predicates are either a ready :class:`VerdictFilter` or its fields
    as keywords (``query_verdicts(store, verdict="PARTIAL",
    arch="mips")``). Already-ingested commits answer straight from
    SQLite: no preprocessing, no compilation, no corpus needed.
    """
    if isinstance(store, VerdictStore):
        return store.query(filter, **predicates)
    with VerdictStore(store) as opened:
        return opened.query(filter, **predicates)


def janitor_report(store: "VerdictStore | str",
                   criteria: "JanitorViewCriteria | None" = None
                   ) -> list[JanitorViewRow]:
    """The §IV Table-II janitor ranking from the materialized view."""
    if isinstance(store, VerdictStore):
        return store.janitor_report(criteria)
    with VerdictStore(store) as opened:
        return opened.janitor_report(criteria)


def watch(corpus: Corpus, *, store, journal: str, source=None,
          options: JMakeOptions | None = None,
          config: "WatchConfig | None" = None,
          metrics=None, events=None,
          resume: bool = False) -> WatchResult:
    """Run the continuous-ingest daemon until its stream drains.

    Checks only commits neither the journal nor the store has seen,
    journals every verdict before the store ingests it, and refreshes
    the janitor materialized view per batch. Kill it mid-stream
    (``WatchConfig.chaos_kill_after``) and re-run with ``resume=True``:
    the store converges on bytes identical to an uninterrupted run.
    """
    return _watch(corpus, store=store, journal=journal, source=source,
                  options=options, config=config, metrics=metrics,
                  events=events, resume=resume)


# -- CLI output-path convention -----------------------------------------------

#: per-sink default filenames under ``--out-dir``
OUT_DIR_DEFAULTS = {
    "stats": "stats.json",
    "metrics": "metrics.jsonl",
    "events": "events.jsonl",
    "journal": "run.jnl",
    "store": "verdicts.sqlite",
}


def resolve_outputs(out_dir: "str | None",
                    sinks: "dict[str, object | None]") -> dict:
    """The one validator behind every CLI output-path flag.

    ``sinks`` maps sink names (keys of :data:`OUT_DIR_DEFAULTS`) to
    explicit per-sink overrides (``None`` when the flag was not
    given). With ``--out-dir`` set, un-overridden sinks resolve to
    their conventional filename inside the directory (created on
    demand); without it, they stay ``None`` (disabled). Explicit
    overrides always win — that is the documented escape hatch.
    """
    import os as _os
    unknown = set(sinks) - set(OUT_DIR_DEFAULTS)
    if unknown:
        raise ValueError(
            f"unknown output sink(s): {', '.join(sorted(unknown))} "
            f"(known: {', '.join(sorted(OUT_DIR_DEFAULTS))})")
    if out_dir is not None:
        if _os.path.exists(out_dir) and not _os.path.isdir(out_dir):
            raise ValueError(
                f"--out-dir {out_dir!r} exists and is not a directory")
        _os.makedirs(out_dir, exist_ok=True)
    resolved = {}
    for name, override in sinks.items():
        if override is not None:
            resolved[name] = override
        elif out_dir is not None:
            resolved[name] = _os.path.join(
                out_dir, OUT_DIR_DEFAULTS[name])
        else:
            resolved[name] = None
    return resolved

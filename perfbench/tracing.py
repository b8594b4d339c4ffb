"""Per-call timers and spans recorded from outside the program.

Nothing under ``src/`` is instrumented. Every measurement here comes
from replacing a public function of the program with a wrapper for
the length of one benchmark round, then putting the original back:

- :func:`timed` appends each call's duration to a list. The untraced
  runs use only these, on the calls their latency metrics need.
- :class:`SpanRecorder` records one span per call of every function
  in :data:`LAYER_NAMES`: name, start, end, parent span and the id of the
  commit that caused it. Spans stay in memory until the run ends.

A span's self time is its duration minus the time its direct child
spans cover. Children of a synchronous call nest inside it and never
overlap, so the self times of all spans plus the time outside every
span add up to the traced wall time exactly.

Commit attribution uses a context variable, so each asyncio request
task of the check service keeps its own commit:

- ``show``, ``check_commit``, ``journal.emit`` and service request
  tasks name their commit explicitly;
- ``show`` leaves its commit in place after it returns, because
  MAINTAINERS lookups and change extraction that follow a ``show``
  work on that commit;
- calls that span many commits (``log``, identification, a service
  drain, store reads) carry no commit and hide the caller's commit
  while they run;
- everything else inherits the commit of the code that called it.
  Work a shard or the cross-request batcher runs on behalf of several
  commits therefore carries none.
"""

from __future__ import annotations

import contextvars
import importlib
import sys
import time
import types
from contextlib import ExitStack, contextmanager

_COMMIT: "contextvars.ContextVar[str | None]" = contextvars.ContextVar(
    "perfbench_commit", default=None)

#: commit modes of a wrapped call
INHERIT = "inherit"
NONE = "none"


#: ``(metric prefix, module, class or None, attribute, commit mode)``
#: per wrapped layer, in report order. The commit mode is
#: :data:`INHERIT`, :data:`NONE`, or ``(position, sticky)``: the commit
#: is positional argument ``position`` after ``self``, and a sticky one
#: outlives the call.
LAYERS = (
    ("vcs.log", "repro.vcs.repository", "Repository", "log", NONE),
    ("vcs.show", "repro.vcs.repository", "Repository", "show", (0, True)),
    ("vcs.diff_texts", "repro.vcs.diff", None, "diff_texts", INHERIT),
    ("vcs.commits_after", "repro.vcs.repository", "Repository",
     "commits_after", NONE),
    ("janitors.identify", "repro.janitors.identify", "JanitorFinder",
     "identify", NONE),
    ("janitors.analyze", "repro.janitors.activity", "ActivityAnalyzer",
     "analyze", NONE),
    ("maintainers.entries_for_path", "repro.kernel.maintainers",
     "MaintainersDb", "entries_for_path", INHERIT),
    ("core.check_commit", "repro.core.jmake", "CheckSession",
     "check_commit", (1, False)),
    ("core.archselect.select", "repro.core.archselect", "ArchSelector",
     "select", INHERIT),
    ("core.mutation.plan", "repro.core.mutation", "MutationEngine",
     "plan", INHERIT),
    ("core.hfile.candidates_for", "repro.core.hfile", "HFileProcessor",
     "candidates_for", INHERIT),
    ("core.changes.extract_changed_files", "repro.core.changes", None,
     "extract_changed_files", INHERIT),
    ("kbuild.make_config", "repro.kbuild.build", "BuildSystem",
     "make_config", INHERIT),
    ("kbuild.make_i", "repro.kbuild.build", "BuildSystem", "make_i",
     INHERIT),
    ("kbuild.make_o", "repro.kbuild.build", "BuildSystem", "make_o",
     INHERIT),
    ("cpp.preprocess", "repro.cpp.preprocessor", "Preprocessor",
     "preprocess", INHERIT),
    ("service.check_commits", "repro.service.service", "CheckService",
     "check_commits", NONE),
    ("journal.emit", "repro.journal.ledger", "VerdictLedger", "emit",
     (0, False)),
    ("journal.checkpoint", "repro.journal.ledger", "VerdictLedger",
     "checkpoint", INHERIT),
    ("store.ingest_ledger", "repro.store.store", "VerdictStore",
     "ingest_ledger", NONE),
    ("store.query", "repro.store.store", "VerdictStore", "query", NONE),
    ("store.janitor_report", "repro.store.store", "VerdictStore",
     "janitor_report", NONE),
)

LAYER_NAMES = tuple(layer[0] for layer in LAYERS)


def _owner(module_name: str, class_name: "str | None"):
    module = importlib.import_module(module_name)
    return module if class_name is None else getattr(module, class_name)


@contextmanager
def patched(owner, name: str, make_wrapper):
    """Replace ``owner.name`` by ``make_wrapper(original)`` meanwhile.

    A module-level function is replaced in every loaded module that
    imported it by name, so callers that hold it under their own name
    go through the wrapper too.
    """
    original = vars(owner)[name]
    if not isinstance(original, types.FunctionType):
        raise TypeError(f"{owner.__name__}.{name} is not a plain function")
    if isinstance(owner, types.ModuleType):
        targets = [module for module in list(sys.modules.values())
                   if module is not None
                   and vars(module).get(name) is original]
    else:
        targets = [owner]
    wrapper = make_wrapper(original)
    for target in targets:
        setattr(target, name, wrapper)
    try:
        yield
    finally:
        for target in targets:
            setattr(target, name, original)


@contextmanager
def timed(owner, name: str, durations: list):
    """Append the wall seconds of every ``owner.name`` call."""
    clock = time.perf_counter

    def make_wrapper(original):
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                durations.append(clock() - start)
        return wrapper

    with patched(owner, name, make_wrapper):
        yield


def _commit_id(value) -> "str | None":
    if value is None or isinstance(value, str):
        return value
    return value.id


class SpanRecorder:
    """In-memory spans around the public calls of each layer.

    A span is ``[name, start, end, parent index, commit id]``; the
    parent index is -1 for a span no other span encloses.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        return self._span(name, INHERIT, fn, args, kwargs)

    def _span(self, name: str, commit, fn, args, kwargs):
        spans = self.spans
        stack = self._stack
        token = None if commit is INHERIT else _COMMIT.set(commit)
        span = [name, 0.0, 0.0, stack[-1] if stack else -1, _COMMIT.get()]
        stack.append(len(spans))
        spans.append(span)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            stack.pop()
            if token is not None:
                _COMMIT.reset(token)

    def _wrapper_factory(self, name: str, mode):
        span = self._span

        def make_wrapper(original):
            if mode is INHERIT or mode is NONE:
                commit = INHERIT if mode is INHERIT else None

                def wrapper(*args, **kwargs):
                    return span(name, commit, original, args, kwargs)
                return wrapper
            # explicit commits are only ever method arguments, after
            # self in args[0]
            index = mode[0] + 1
            sticky = mode[1]

            def wrapper(*args, **kwargs):
                commit = _commit_id(args[index]) \
                    if len(args) > index else None
                if sticky:
                    _COMMIT.set(commit)
                    commit = INHERIT
                return span(name, commit, original, args, kwargs)
            return wrapper
        return make_wrapper

    @contextmanager
    def installed(self):
        """Wrap every layer for the block's length."""
        from repro.service.service import CheckService

        def make_submit(original):
            async def wrapper(service, request, *args, **kwargs):
                # runs as the request's own asyncio task: the commit
                # set here is visible to that task only
                _COMMIT.set(request.commit_id)
                return await original(service, request, *args, **kwargs)
            return wrapper

        with ExitStack() as stack:
            for name, module, owner, attribute, mode in LAYERS:
                stack.enter_context(patched(
                    _owner(module, owner), attribute,
                    self._wrapper_factory(name, mode)))
            stack.enter_context(patched(CheckService, "submit",
                                        make_submit))
            yield self

    # -- derived figures ---------------------------------------------------

    def self_times(self) -> list[float]:
        """Self seconds of every span, by span index."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for span in spans:
            if span[3] >= 0:
                covered[span[3]] += span[2] - span[1]
        return [span[2] - span[1] - covered[index]
                for index, span in enumerate(spans)]

    def layer_totals(self) -> dict[str, tuple[float, int]]:
        """``name -> (self seconds, calls)`` summed over all spans."""
        totals: dict[str, list] = {}
        for span, self_s in zip(self.spans, self.self_times()):
            entry = totals.setdefault(span[0], [0.0, 0])
            entry[0] += self_s
            entry[1] += 1
        return {name: (entry[0], entry[1])
                for name, entry in totals.items()}

    def root_seconds(self) -> float:
        """Wall seconds covered by spans that no other span encloses."""
        return sum(span[2] - span[1] for span in self.spans
                   if span[3] < 0)

"""Correctness gate: every output checked against generator ground truth.

The answers come from what the workload generator recorded while it
wrote each commit (``Corpus.eval_metadata``), from the generated tree
(``tree.bootstrap_paths``) and from the author roster. None of them
comes from JMake. Each rule below yields one mismatch string per
violation:

- (a) a file instance whose ground truth carries a Table IV hazard
  (every :class:`HazardKind` except ``ARCH_CONDITIONAL``) is never OK;
- (b) a file is BOOTSTRAP_UNTREATABLE iff its path is a bootstrap file;
- (c) a file is COMMENT_ONLY iff every ground-truth edit to it is a
  comment edit (a checked file with no ground-truth edit is itself a
  mismatch);
- (d) no docs, whitespace or merge commit gets a verdict;
- (e) every identified janitor is a janitor persona of the roster;
- (f) for the seeds listed in ``digests.json``, the sha256 of the
  workload's canonical output equals the committed digest. The digest
  also pins the simulated seconds behind Figs 4-6.

Fleet mode (``jmake watch``) does not apply the §V-A filter that drops
commits touching no ``.c``/``.h`` file. It stores an ``ATTENTION
REQUIRED`` record with no file verdict for each docs-only commit. For
store records, rule (d) is therefore checked as: no whitespace or
merge commit has a record, and a docs-only commit's record holds no
file verdict, no compile invocation and no simulated time. The number
of such records is reported as ``fleet_docs_records``, so the gap
stays visible until the daemon filters these commits.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

DIGESTS_PATH = Path(__file__).with_name("digests.json")

IGNORABLE_SHAPES = ("docs", "ws", "merge")


@dataclass
class Findings:
    """Mismatches found in one repetition's outputs."""
    mismatches: list[str] = field(default_factory=list)
    #: the sha256 of the canonical output and the committed one (None
    #: for a held-out seed)
    digest: str = ""
    expected_digest: "str | None" = None
    #: tolerated deviations by name (see the module docstring)
    known: dict[str, int] = field(default_factory=dict)

    def add(self, message: str) -> None:
        self.mismatches.append(message)


class GroundTruth:
    """Per-commit and per-file answers recorded by the generator."""

    def __init__(self, corpus) -> None:
        from repro.kernel.layout import HazardKind

        self._not_hazard = HazardKind.ARCH_CONDITIONAL
        self.bootstrap = frozenset(corpus.tree.bootstrap_paths)
        self.janitor_emails = frozenset(
            persona.email for persona in corpus.janitor_personas())
        self.shape: dict[str, str] = {}
        self.edits: dict[tuple[str, str], list] = {}
        for record in corpus.eval_metadata:
            self.shape[record.commit_id] = record.shape
            for edit in record.edits:
                self.edits.setdefault(
                    (record.commit_id, edit.path), []).append(edit)
        self.window_size = len(corpus.eval_metadata)

    def check_file(self, findings: Findings, commit_id: str, path: str,
                   status: str) -> None:
        """Rules (a)-(c) for one file instance; ``status`` is the
        :class:`FileStatus` member name."""
        where = f"{commit_id[:12]} {path}"
        edits = self.edits.get((commit_id, path), [])
        if not edits:
            findings.add(f"(c) {where}: checked file has no "
                         f"ground-truth edit")
        hazards = [edit.hazard_kind.name for edit in edits
                   if edit.hazard_kind is not None
                   and edit.hazard_kind is not self._not_hazard]
        if hazards and status == "OK":
            findings.add(f"(a) {where}: hazard {','.join(hazards)} "
                         f"reported OK")
        bootstrap = path in self.bootstrap
        if bootstrap != (status == "BOOTSTRAP_UNTREATABLE"):
            findings.add(f"(b) {where}: bootstrap={bootstrap} "
                         f"but status {status}")
        comment_only = bool(edits) and all(
            edit.edit_kind == "comment" for edit in edits)
        if comment_only != (status == "COMMENT_ONLY"):
            findings.add(f"(c) {where}: comment-only edits="
                         f"{comment_only} but status {status}")

    def check_janitors(self, findings: Findings, emails) -> None:
        """Rule (e)."""
        for email in sorted(set(emails) - self.janitor_emails):
            findings.add(f"(e) {email} identified but is no janitor "
                         f"persona")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_digests() -> dict:
    """``workload -> corpus seed -> sha256`` committed with the bench."""
    with open(DIGESTS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def check_digest(findings: Findings, workload: str, corpus_seed: str,
                 text: str, digests: dict) -> None:
    """Rule (f)."""
    findings.digest = sha256(text)
    findings.expected_digest = digests.get(workload, {}).get(corpus_seed)
    if findings.expected_digest is not None and \
            findings.digest != findings.expected_digest:
        findings.add(f"(f) {workload} seed {corpus_seed}: digest "
                     f"{findings.digest[:16]} != expected "
                     f"{findings.expected_digest[:16]}")


def check_evaluation(corpus, result, findings: Findings) -> None:
    """Rules (a)-(e) over an :class:`EvaluationResult`."""
    truth = GroundTruth(corpus)
    if result.total_commits != truth.window_size:
        findings.add(f"window holds {truth.window_size} commits, "
                     f"result counts {result.total_commits}")
    for patch in result.patches:
        shape = truth.shape.get(patch.commit_id)
        if shape is None:
            findings.add(f"{patch.commit_id[:12]}: verdict for a commit "
                         f"outside the evaluation window")
            continue
        if shape in IGNORABLE_SHAPES:
            findings.add(f"(d) {patch.commit_id[:12]}: {shape} commit "
                         f"got verdict {patch.verdict}")
        for record in patch.files:
            truth.check_file(findings, patch.commit_id, record.path,
                             record.status.name)
    truth.check_janitors(findings, result.janitor_emails)


def check_janitor_rows(corpus, ranked, findings: Findings) -> None:
    """Rule (e) over ranked Table II rows."""
    GroundTruth(corpus).check_janitors(
        findings, [row.email for row in ranked])


def check_store(corpus, verdicts, findings: Findings) -> None:
    """Rules (a)-(d) over the stored verdicts of a watch run."""
    from repro.core.report import FileStatus

    truth = GroundTruth(corpus)
    docs_records = 0
    for verdict in verdicts:
        commit_id = verdict.commit
        shape = truth.shape.get(commit_id)
        if shape is None:
            findings.add(f"{commit_id[:12]}: stored verdict for a commit "
                         f"outside the evaluation window")
            continue
        record = verdict.record
        if shape == "docs" and not record["files"] and \
                not record["invocations"] and \
                record["elapsed_seconds"] == 0.0:
            docs_records += 1
            continue
        if shape in IGNORABLE_SHAPES:
            findings.add(f"(d) {commit_id[:12]}: {shape} commit got "
                         f"verdict {verdict.verdict}")
        for path, file_record in record["files"].items():
            truth.check_file(findings, commit_id, path,
                             FileStatus(file_record["status"]).name)
    findings.known["fleet_docs_records"] = docs_records


def janitor_rows_text(ranked) -> str:
    """Canonical text of ranked Table II rows (floats via ``repr``)."""
    return "\n".join(
        f"{row.email} name={row.name} patches={row.patches} "
        f"subsystems={row.subsystems} lists={row.lists} "
        f"maintainer_share={row.maintainer_share!r} "
        f"file_cv={row.file_cv!r} "
        f"eval_window_patches={row.eval_window_patches}"
        for row in ranked) + "\n"

"""Self-tests of the benchmark itself (about three minutes).

Run from the root of a checkout::

    python3 -m pytest perfbench -q

They check that the command emits every metric ``BENCHMARK.json``
names, that per-layer self times add up to the traced wall time, that
a tampered output makes the command fail, and that the command fails
without printing a result when the program under test is missing.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for _path in (ROOT / "src", ROOT, HERE):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import oracle  # noqa: E402
import run  # noqa: E402
from tracing import LAYER_NAMES  # noqa: E402


#: workload-specific figures each workload prints in its detail block
DETAIL = {
    "eval_window": ("identify_s", "verdict_p50_ms", "verdict_p95_ms"),
    "janitor_scan": ("identify_s",),
    "fleet_ingest": ("batch_p50_ms", "batch_p90_ms", "query_p50_ms",
                     "query_p90_ms"),
}

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
#: every workload the command runs: those ``BENCHMARK.json`` lists,
#: then janitor_scan, which is run by hand (see README.md)
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]
WORKLOADS += [name for name in DETAIL if name not in WORKLOADS]

#: layers that must do work on a workload, and layers that must not
LOADED = {
    "eval_window": ("vcs.log", "vcs.show", "janitors.identify",
                    "maintainers.entries_for_path", "core.check_commit",
                    "core.archselect.select", "core.mutation.plan",
                    "kbuild.make_i", "kbuild.make_o", "cpp.preprocess"),
    "janitor_scan": ("vcs.log", "vcs.show", "vcs.diff_texts",
                     "janitors.identify", "janitors.analyze",
                     "maintainers.entries_for_path"),
    "fleet_ingest": ("vcs.commits_after", "service.check_commits",
                     "journal.emit", "store.ingest_ledger", "store.query",
                     "store.janitor_report", "cpp.preprocess"),
}
BYPASSED = {
    "eval_window": ("vcs.commits_after", "service.check_commits",
                    "journal.emit", "store.query"),
    "janitor_scan": ("core.check_commit", "kbuild.make_i",
                     "kbuild.make_o", "cpp.preprocess",
                     "service.check_commits", "store.query"),
    "fleet_ingest": ("janitors.identify", "janitors.analyze",
                     "maintainers.entries_for_path"),
}


def in_process(workload, seed, trace, workdir, timeout):
    """A repetition run in this process, so a test can tamper with it."""
    from workloads import WORKLOADS

    workdir.mkdir()
    result = WORKLOADS[workload](seed, str(workdir), oracle.load_digests())
    return {"measured": result, "peak_rss_mb": 1.0}


def invoke(*argv: str) -> tuple[int, str]:
    """Run the benchmark command in-process: (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(list(argv))
    return code, out.getvalue()


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


_RUNS: dict = {}


def short_run(workload: str, trace: int) -> tuple[int, str]:
    """One minimal run of the real command, cached per module."""
    key = (workload, trace)
    if key not in _RUNS:
        _RUNS[key] = invoke("--workload", workload, "--seed", "bench-a",
                            "--seconds", "0", "--trace", str(trace))
    return _RUNS[key]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted(workload):
    code, stdout = short_run(workload, 0)
    assert code == 0, stdout
    result = last_json(stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {metric["name"]: metric["unit"]
                for metric in BENCHMARK["end_to_end"]}
    assert {name: value["unit"] for name, value
            in result["metrics"].items()} == declared
    assert all(value["value"] > 0 for value in result["metrics"].values())
    printed = {line.split()[0] for line in stdout.splitlines()
               if line.startswith("  ") and len(line.split()) == 3}
    for name in DETAIL[workload] + ("failed_frac", "oracle_mismatches"):
        assert name in printed, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_emitted_and_add_up(workload):
    code, stdout = short_run(workload, 1)
    assert code == 0, stdout
    metrics = {name: value["value"] for name, value
               in last_json(stdout)["metrics"].items()}
    assert set(metrics) == {metric["name"]
                            for metric in BENCHMARK["per_layer"]}
    self_total = metrics["workload.build_corpus.s"] + sum(
        metrics[f"{name}.self_s"] for name in LAYER_NAMES)
    assert self_total + metrics["unattributed.s"] == pytest.approx(
        metrics["trace.wall_s"], rel=1e-9)
    assert metrics["unattributed.s"] >= 0
    for name in LOADED[workload]:
        assert metrics[f"{name}.calls"] > 0, name
    for name in BYPASSED[workload]:
        assert metrics[f"{name}.calls"] == 0, name


def test_spans_carry_their_commit():
    short_run("eval_window", 1)
    path = run.OUT / "trace-eval_window-bench-a.jsonl.gz"
    with gzip.open(path, "rt", encoding="utf-8") as handle:
        spans = [json.loads(line) for line in handle]
    spans = [span for span in spans if span["repetition"] == 0]
    for span in spans:
        assert span["end"] >= span["start"]
        if span["parent"] >= 0:
            parent = spans[span["parent"]]
            assert parent["start"] <= span["start"] <= span["end"] \
                <= parent["end"]
    checks = [span for span in spans if span["name"] == "core.check_commit"]
    assert checks and all(span["commit"] for span in checks)
    by_index = dict(enumerate(spans))
    for index, span in by_index.items():
        if span["name"] != "kbuild.make_o":
            continue
        ancestor = span
        while ancestor["name"] != "core.check_commit":
            ancestor = by_index[ancestor["parent"]]
        assert span["commit"] == ancestor["commit"]


def test_hazard_file_flipped_to_ok_fails(monkeypatch):
    from repro import api
    from repro.core.report import FileStatus

    original = api.EvaluationSession.run

    def tampered(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        record = next(record for patch in result.patches
                      for record in patch.files
                      if record.hazard_kinds
                      and record.status is not FileStatus.OK
                      and any(kind.name != "ARCH_CONDITIONAL"
                              for kind in record.hazard_kinds))
        record.status = FileStatus.OK
        return result

    monkeypatch.setattr(api.EvaluationSession, "run", tampered)
    monkeypatch.setattr(run, "run_repetition", in_process)
    monkeypatch.setattr(run, "MIN_REPETITIONS", 1)
    code, stdout = invoke("--workload", "eval_window", "--seed", "bench-a",
                          "--seconds", "0", "--trace", "0")
    assert code == 1
    assert last_json(stdout)["correct"] is False
    assert "MISMATCH (a)" in stdout


def test_output_off_by_one_byte_fails_digest(monkeypatch):
    assert "bench-a" in oracle.load_digests()["janitor_scan"]
    original = oracle.janitor_rows_text

    def tampered(ranked):
        text = original(ranked)
        return text[:-2] + chr(ord(text[-2]) ^ 1) + text[-1]

    monkeypatch.setattr(oracle, "janitor_rows_text", tampered)
    monkeypatch.setattr(run, "run_repetition", in_process)
    monkeypatch.setattr(run, "MIN_REPETITIONS", 1)
    code, stdout = invoke("--workload", "janitor_scan", "--seed",
                          "bench-a", "--seconds", "0", "--trace", "0")
    assert code == 1
    assert last_json(stdout)["correct"] is False
    assert "MISMATCH (f)" in stdout


def test_store_rules_flag_ignorable_and_hazard_records():
    from repro import api

    corpus = api.build_corpus(api.CorpusSpec(
        seed="perfbench-selftest", history_commits=40, eval_commits=80))
    truth = oracle.GroundTruth(corpus)
    merge = next(record.commit_id for record in corpus.eval_metadata
                 if record.shape in ("ws", "merge"))
    hazard = next((record.commit_id, edit.path)
                  for record in corpus.eval_metadata
                  for edit in record.edits
                  if edit.hazard_kind is not None
                  and edit.hazard_kind.name != "ARCH_CONDITIONAL")
    comment = next((record.commit_id, edit.path)
                   for record in corpus.eval_metadata
                   for edit in record.edits
                   if edit.edit_kind == "comment"
                   and truth.edits[(record.commit_id, edit.path)]
                   == [edit])

    def stored(commit_id, files):
        return api.StoredVerdict(
            commit=commit_id, verdict="CERTIFIED", certified=True,
            fully_checked=True, elapsed_seconds=1.0, author_name=None,
            author_email=None,
            record={"files": {path: {"status": status}
                              for path, status in files.items()},
                    "invocations": {"make_i": 1},
                    "elapsed_seconds": 1.0})

    findings = oracle.Findings()
    oracle.check_store(corpus, [
        stored(merge, {}),
        stored(hazard[0], {hazard[1]: "ok"}),
        stored(comment[0], {comment[1]: "ok"}),
    ], findings)
    rules = sorted(message[:3] for message in findings.mismatches)
    assert rules == ["(a)", "(c)", "(d)"], findings.mismatches


def test_fails_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        BENCHMARK["command"] + ["--workload", WORKLOADS[0], "--seed", "1",
                                "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""

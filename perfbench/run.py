"""End-to-end benchmark of the JMake reproduction.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload eval_window --seed 1 \\
        --seconds 60 --trace 0

Repeats one workload (see ``workloads.py``) on the corpus of ``--seed``
as often as fits in ``--seconds``, at least three times. Each repetition
runs in a fresh process (``child.py``) and does identical work, so the
run reports, per timed call, the fastest of its repetitions:
slowdowns from other tenants of the machine inflate single
repetitions, not that minimum. Every output of every repetition is checked against
generator ground truth (``oracle.py``).

The command prints a readable report, and as its last line one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones of
``BENCHMARK.json``; with ``--trace 1`` they are the per-layer ones,
from repetitions whose layer calls are wrapped in spans
(``tracing.py``), each paired with an untraced repetition to measure
the tracing overhead.

Exit status: 0 when every output is correct and no operation failed,
1 when an oracle rule, a digest, an operation or a repetition failed,
2 when the program under test cannot be imported.

Each run appends its result, the raw per-repetition timings and an
environment stamp (python version, usable cores,
``benchmarks/calibration.calibrate()`` score) to
``perfbench-out/runs.jsonl``. A traced run also writes its spans to
``perfbench-out/trace-<workload>-<seed>.jsonl.gz``.
"""

from __future__ import annotations

import argparse
import gzip
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / "perfbench-out"

#: the percentile each workload reports as its tail: the highest one
#: with at least ten operations beyond it (janitor_scan has a single
#: operation, so its tail is its p50)
TAIL_PERCENTILE = {"eval_window": 95, "janitor_scan": 50,
                   "fleet_ingest": 90}
#: the segment whose calls are the workload's unit of work; None
#: makes the whole timed call the unit
OP_SEGMENT = {"eval_window": "verdict", "janitor_scan": None,
              "fleet_ingest": "batch"}
MIN_REPETITIONS = 3
#: every run must end within this many seconds
HARD_LIMIT_S = 170


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def environment() -> dict:
    from benchmarks.calibration import calibrate

    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "calibration_ops_per_s": calibrate()}


class RepetitionError(RuntimeError):
    """A repetition failed, ran out of time, or did other work than
    the others."""


def run_repetition(workload: str, seed: str, trace: int, workdir: Path,
               timeout: float) -> dict:
    """Run one repetition in a fresh process; its JSON payload."""
    from workloads import Measured

    workdir.mkdir()
    try:
        completed = subprocess.run(
            [sys.executable, str(HERE / "child.py"), workload, seed,
             str(trace), str(workdir)],
            capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RepetitionError(
            f"repetition did not finish within {timeout:.0f} s") from None
    if completed.returncode != 0:
        raise RepetitionError(
            f"repetition exited {completed.returncode}:\n"
            + completed.stderr[-4000:])
    payload = json.loads(completed.stdout.strip().splitlines()[-1])
    payload["measured"] = Measured.from_dict(payload["measured"])
    spans = workdir / "spans.jsonl"
    if spans.exists():
        payload["spans"] = spans.read_text(encoding="utf-8")
    return payload


def fastest(series) -> list[float]:
    """Per call, the fastest of the repetitions' timings.

    Repetitions do identical work, so call ``i`` of a segment is the
    same call on the same input in every repetition.
    """
    lengths = {len(values) for values in series}
    if len(lengths) != 1:
        raise RepetitionError(
            f"repetitions disagree on their call count: {lengths}")
    return [min(values) for values in zip(*series)]


def best_main_s(measured) -> float:
    """The timed call's seconds, assembled from the fastest repetition
    of each segment call and of the time outside all segments."""
    total = sum(sum(fastest([r.segments[name] for r in measured]))
                for name in measured[0].segments)
    return total + min(
        r.main_s - sum(sum(calls) for calls in r.segments.values())
        for r in measured)


def end_to_end(workload: str, reps) -> tuple[dict, dict]:
    """The guarded metrics, and the workload-specific detail figures."""
    measured = [rep["measured"] for rep in reps]
    main_s = best_main_s(measured)
    segment = OP_SEGMENT[workload]
    ops = fastest([r.segments[segment] for r in measured]) \
        if segment else [main_s]
    tail = TAIL_PERCENTILE[workload]
    metrics = {
        "setup_s": (statistics.median(r.setup_s for r in measured), "s"),
        "commits_per_s": (measured[0].commits / main_s, "1/s"),
        "op_p50_ms": (percentile(ops, 50) * 1000, "ms"),
        "op_tail_ms": (percentile(ops, tail) * 1000, "ms"),
        "peak_rss_mb": (statistics.median(rep["peak_rss_mb"]
                                          for rep in reps), "MB"),
    }
    detail = {}
    if workload == "eval_window":
        detail["identify_s"] = (
            fastest([r.segments["identify"] for r in measured])[0], "s")
        detail["verdict_p50_ms"] = metrics["op_p50_ms"]
        detail["verdict_p95_ms"] = metrics["op_tail_ms"]
    if workload == "janitor_scan":
        detail["identify_s"] = (main_s, "s")
    if workload == "fleet_ingest":
        reads = fastest([r.segments["read"] for r in measured])
        detail["batch_p50_ms"] = metrics["op_p50_ms"]
        detail["batch_p90_ms"] = metrics["op_tail_ms"]
        detail["query_p50_ms"] = (percentile(reads, 50) * 1000, "ms")
        detail["query_p90_ms"] = (percentile(reads, 90) * 1000, "ms")
    detail["operations"] = (len(ops), "count")
    return metrics, detail


def per_layer(pairs) -> dict:
    """Per-layer figures, averaged over the traced repetitions."""
    from tracing import LAYER_NAMES

    count = len(pairs)
    totals: dict = {}
    for _, traced in pairs:
        for name, (self_s, calls) in traced["layers"].items():
            entry = totals.setdefault(name, [0.0, 0])
            entry[0] += self_s
            entry[1] += calls
    metrics = {"workload.build_corpus.s": (
        totals.get("workload.build_corpus", [0.0])[0] / count, "s")}
    for name in LAYER_NAMES:
        self_s, calls = totals.get(name, [0.0, 0])
        metrics[f"{name}.self_s"] = (self_s / count, "s")
        metrics[f"{name}.calls"] = (calls / count, "count")
    hits = sum(traced["measured"].cache_hits for _, traced in pairs)
    probes = sum(traced["measured"].cache_probes for _, traced in pairs)
    metrics["buildcache.hit_ratio"] = (hits / probes if probes else 0.0,
                                       "ratio")
    metrics["buildcache.probes"] = (probes / count, "count")

    def wall(rep) -> float:
        return rep["measured"].setup_s + rep["measured"].main_s

    traced_wall = sum(wall(traced) for _, traced in pairs)
    untraced_wall = sum(wall(plain) for plain, _ in pairs)
    attributed = sum(traced["root_s"] for _, traced in pairs)
    metrics["unattributed.s"] = ((traced_wall - attributed) / count, "s")
    metrics["trace.wall_s"] = (traced_wall / count, "s")
    metrics["trace.overhead_frac"] = (traced_wall / untraced_wall - 1,
                                      "ratio")
    return metrics


def write_spans(path: Path, pairs) -> None:
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        for index, (_, traced) in enumerate(pairs):
            for line in traced["spans"].splitlines():
                span = json.loads(line)
                handle.write(json.dumps({"repetition": index, **span})
                             + "\n")


def report(title: str, figures: dict) -> None:
    print(title)
    for name, (value, unit) in figures.items():
        print(f"  {name:<40} {value:>14.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("eval_window", "janitor_scan",
                                 "fleet_ingest"))
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    for path in (ROOT / "src", ROOT, HERE):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    try:
        import repro.api  # the program under test, from this checkout
        env = environment()
    except ImportError as error:
        print(f"perfbench: cannot import the program under test from "
              f"{ROOT}: {error}", file=sys.stderr)
        return 2
    if not Path(repro.api.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: repro was imported from {repro.api.__file__}, "
              f"not from {ROOT / 'src'}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    reps, pairs = [], []
    minimum = 1 if args.trace else MIN_REPETITIONS

    def next_repetition(trace: int) -> dict:
        timeout = HARD_LIMIT_S - (time.perf_counter() - started)
        rep = run_repetition(args.workload, args.seed, trace,
                         workdir / f"rep-{len(reps)}", timeout)
        reps.append(rep)
        return rep

    #: wall seconds of each repetition (or traced pair) so far
    durations: list = []
    try:
        while True:
            begun = time.perf_counter()
            if args.trace:
                pairs.append((next_repetition(0), next_repetition(1)))
            else:
                next_repetition(0)
            durations.append(time.perf_counter() - begun)
            # stop once another repetition as long as the longest so far
            # would end past --seconds, so a run stays within its time
            if len(reps) >= minimum and time.perf_counter() - started \
                    + max(durations) > args.seconds:
                break
    except RepetitionError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    measured = [rep["measured"] for rep in reps]
    mismatches = [message for r in measured
                  for message in r.findings.mismatches]
    attempted = sum(r.attempted for r in measured)
    failed = sum(r.failed for r in measured)
    print(f"perfbench {args.workload} seed={args.seed} "
          f"trace={args.trace} repetitions={len(reps)}")
    print(f"  env {json.dumps(env, sort_keys=True)}")
    for r in measured:
        expected = r.findings.expected_digest
        state = "held-out seed" if expected is None else (
            "digest ok" if expected == r.findings.digest
            else "DIGEST MISMATCH")
        known = "".join(f" {name}={value}"
                        for name, value in r.findings.known.items())
        print(f"  repetition: setup {r.setup_s:.3f} s, "
              f"main {r.main_s:.3f} s, {r.commits} commits, "
              f"sha256 {r.findings.digest[:16]} ({state}){known}")
    for message in sorted(set(mismatches))[:50]:
        print(f"  MISMATCH {message}")
    if args.trace:
        metrics = per_layer(pairs)
        write_spans(OUT / f"trace-{args.workload}-{args.seed}.jsonl.gz",
                    pairs)
        report("per-layer (mean per traced repetition)", metrics)
    else:
        try:
            metrics, detail = end_to_end(args.workload, reps)
        except RepetitionError as error:
            print(f"perfbench: {error}", file=sys.stderr)
            return 1
        detail["failed_frac"] = (failed / attempted, "ratio")
        detail["oracle_mismatches"] = (len(mismatches), "count")
        report("end-to-end", metrics)
        report("workload detail", detail)
    result = {
        "correct": not mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    raw = [{"setup_s": r.setup_s, "main_s": r.main_s,
            # janitor_scan's thousands of show/MAINTAINERS calls stay out
            "segments": {name: calls for name, calls in r.segments.items()
                         if name in ("verdict", "identify", "batch", "read")},
            "peak_rss_mb": rep["peak_rss_mb"]}
           for rep, r in zip(reps, measured)]
    with open(OUT / "runs.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "trace": args.trace, "seconds": args.seconds, "env": env,
            "result": result, "repetitions": raw}) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

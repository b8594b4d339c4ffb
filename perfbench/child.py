"""One repetition of a workload, in a fresh process.

Started by ``run.py``; not meant to be run by hand::

    python3 perfbench/child.py WORKLOAD CORPUS_SEED TRACE WORKDIR

Prints the repetition's measurements and oracle findings as one JSON
object on its last stdout line. With ``TRACE`` 1 every layer call is
wrapped in a span; the spans go to ``WORKDIR/spans.jsonl`` and their
per-layer totals into the JSON object.
"""

from __future__ import annotations

import dataclasses
import json
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv) -> int:
    workload, corpus_seed, trace, workdir = argv
    for path in (HERE.parent / "src", HERE.parent, HERE):
        sys.path.insert(0, str(path))
    import oracle
    from tracing import SpanRecorder
    from workloads import WORKLOADS

    recorder = SpanRecorder() if trace == "1" else None
    result = WORKLOADS[workload](corpus_seed, workdir,
                                 oracle.load_digests(), recorder)
    payload = {"measured": dataclasses.asdict(result),
               "peak_rss_mb": resource.getrusage(
                   resource.RUSAGE_SELF).ru_maxrss / 1024}
    if recorder is not None:
        payload["layers"] = recorder.layer_totals()
        payload["root_s"] = recorder.root_seconds()
        origin = recorder.spans[0][1] if recorder.spans else 0.0
        with open(Path(workdir) / "spans.jsonl", "w",
                  encoding="utf-8") as handle:
            for name, start, end, parent, commit in recorder.spans:
                handle.write(json.dumps({
                    "name": name, "start": start - origin,
                    "end": end - origin, "parent": parent,
                    "commit": commit}) + "\n")
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

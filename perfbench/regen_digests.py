"""Rewrite ``digests.json``: the expected output digests (rule f).

Usage, from the root of a checkout::

    python3 perfbench/regen_digests.py [WORKLOAD ...]

Runs one repetition of each named workload (default: all) on each
fixed seed and records the sha256 of its canonical output; digests of
other workloads are kept. Rerun it only when a change is meant
to alter verdicts, Table II rows or simulated seconds, and say so in
that change: the digests are what catches such a change otherwise.
The oracle rules (a)-(e) still run on every repetition while the digests
are recomputed, and a mismatch aborts the rewrite.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile

from run import OUT, ROOT

#: seeds with committed digests: three named seeds, plus the small
#: integers a benchmark harness typically passes as --seed
FIXED_SEEDS = ("bench-a", "bench-b", "jmake-bench-v1",
               *(str(n) for n in range(21)))


def main(argv) -> int:
    for path in (ROOT / "src", ROOT):
        sys.path.insert(0, str(path))
    import oracle
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    digests = oracle.load_digests()
    workdir = tempfile.mkdtemp(dir=OUT)
    try:
        for workload in argv or WORKLOADS:
            table = digests[workload] = {}
            for seed in FIXED_SEEDS:
                rep_dir = tempfile.mkdtemp(dir=workdir)
                result = WORKLOADS[workload](seed, rep_dir, {})
                if result.findings.mismatches:
                    print(f"{workload} {seed}: oracle mismatches, digests "
                          f"not written:", *result.findings.mismatches,
                          sep="\n  ", file=sys.stderr)
                    return 1
                table[seed] = result.findings.digest
                print(f"{workload} {seed} {result.findings.digest}",
                      flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(oracle.DIGESTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

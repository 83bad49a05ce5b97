"""Record reference.json: the digest of every output the benchmark checks.

    python3 perfbench/record_reference.py

Runs each step of each workload once, and a seeded step once per CLI seed
below REFERENCE_SEEDS, from the checkout's own sources.  Every report row
must be verified and accepted by recheck before its digest is recorded.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

import run


def record_step(runner, recheck, spec, argv, kind, seed) -> dict | str:
    out = os.path.join(runner.workdir, "step.out")
    res = runner.bfk(list(argv) + run.common_flags(spec, seed), out)
    if res["rc"] != 0:
        raise SystemExit(f"{' '.join(argv)} seed {seed}: exit {res['rc']}")
    with open(out, encoding="utf-8") as fh:
        doc = json.load(fh)
    if kind == "limit":
        return run.limit_digest(doc)
    digests = {}
    for row in doc["rows"]:
        if row["status"] != "verified" or not recheck(row):
            raise SystemExit(f"{' '.join(argv)} seed {seed}: "
                             f"{run.row_key(row)} does not verify")
        digests[run.row_key(row)] = run.row_digest(row)
    return digests


def main() -> int:
    recheck = run.load_bfk()
    workdir = os.path.join(run.WORK, "record")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    runner = run.Runner(workdir, time.perf_counter() + 24 * 3600)
    digests: dict = {}
    try:
        for name, spec in run.WORKLOADS.items():
            got = digests.setdefault(name, {})
            for stem, argv, kind in spec["steps"]:
                key = run.step_ref_key(stem, argv)
                if key in got:
                    continue
                if stem in run.SEEDED_STEPS:
                    got[key] = {str(s): record_step(runner, recheck, spec,
                                                    argv, kind, s)
                                for s in range(run.REFERENCE_SEEDS)}
                else:
                    got[key] = record_step(runner, recheck, spec, argv, kind, 0)
                print(f"recorded {name} {key}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"format": "perfbench-reference",
                   "reference_seeds": run.REFERENCE_SEEDS,
                   "digests": digests}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Record the reference digests that ``run.py`` checks outputs against.

    python3 bench/record_reference.py

For each workload and each seed in SEEDS, the first REFERENCE_OPS
operations of the stream are replayed in a fresh interpreter
with ``PYTHONPATH=src``.  Every outcome is first re-verified in plain
integers; any failure aborts, so a reference never records a wrong
answer.  The digests are written to ``reference.json``: per seed, one
string of 16-hex-digit SHA-256 prefixes, one per operation in stream
order.  Re-record only when an output is meant to change.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

import run
import verify
import worker
import workloads

SEEDS = range(10)
#: About 1.5 times what a 25 s run completes at this commit; operations
#: past these are checked by ``verify.py`` instead.
REFERENCE_OPS = {"survey-refute": 200, "survey-holds": 180, "queries": 950}


def record(workload: str, seed: int) -> str:
    count = REFERENCE_OPS[workload]
    path = run.OUT / f"reference-{workload}-{seed}.txt"
    deadline = perf_counter() + 3600
    proc, _, _ = run.spawn(["replay", workload, str(seed), "0", str(count),
                            str(path)],
                           deadline)
    run.finish(proc, deadline)
    outcomes = worker.read_outputs(path)
    path.unlink()
    ops = run.first_ops(workload, seed, count)
    digests = []
    for op, (code, raised, stdout, err) in zip(ops, outcomes, strict=True):
        reason = verify.check(op, code, raised, stdout, err)
        if reason:
            sys.exit(f"{workload} seed {seed}: {list(op.argv)}: {reason}")
        digests.append(run.digest(code, stdout))
    return "".join(digests)


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    seeds = {}
    for workload in workloads.WORKLOADS:
        seeds[workload] = {}
        for seed in SEEDS:
            seeds[workload][str(seed)] = record(workload, seed)
            print(f"{workload} seed {seed}: "
                  f"{len(seeds[workload][str(seed)]) // 16} operations", flush=True)
    doc = {"digest": "sha256 of '<exit code>\\n<stdout>', first 16 hex digits",
           "seeds": seeds}
    run.REFERENCE.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

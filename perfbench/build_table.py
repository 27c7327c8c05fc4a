"""Regenerate ``expected_verdicts.json``, the pinned expected-verdict table.

Run from the root of a checkout, on code whose verdicts you trust::

    PYTHONPATH=src PYTHONHASHSEED=0 python3 perfbench/build_table.py \\
        --workload sweep-tiny --seeds 0-24

For every ``--seed`` in the range it runs one pass of the workload and
pins each operation's prediction count: one digit per history, or one per
window on the watch workloads. Other workloads' entries are kept.

On sweep-tiny, every UNSAT history is analyzed again with two other
encodings — ``pco_mode="rank"`` and ``fixpoint_rounds=3`` — and any that
finds a prediction is listed under ``crosscheck`` in the file and printed.
Such a disagreement is reported, never patched into the table: the table
holds what the default encoding answers.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time

from oracle import TABLE_PATH
from workloads import WORKLOADS, _round_key


def parse_range(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def crosscheck(spec) -> list[str]:
    """The alternate encodings that find a prediction the default did not."""
    from repro.api import Analysis

    found = []
    for label, kwargs in (("rank", {"pco_mode": "rank"}),
                          ("fixpoint_rounds=3", {"fixpoint_rounds": 3})):
        batch = (
            Analysis(spec.history_source())
            .under(spec.isolation)
            .using(spec.strategy, max_seconds=spec.max_seconds, **kwargs)
            .predict(k=1)
        )
        if batch.found or batch.status.value != "unsat":
            found.append(f"{label}: {batch.status.value}, {len(batch)} found")
    return found


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seeds", type=parse_range, required=True,
                    help="--seed values to cover, e.g. 0-24")
    args = ap.parse_args(argv)
    if args.seeds.start != 0:
        ap.error("the table is indexed from history seed 1: start at --seed 0")
    cls = WORKLOADS[args.workload]
    rows: dict = {}
    disagreements = []
    checked = 0
    for seed in args.seeds:
        started = time.monotonic()
        workload = cls(seed)
        if hasattr(workload, "build_inputs"):
            workload.build_inputs()
        for op in workload.run_pass(None):
            if op.verdict in ("ERROR", "UNKNOWN") or op.error:
                raise SystemExit(f"{op.key}: {op.error or op.verdict}")
            app, iso, history_seed, *window = op.key.split("/")
            seeds = rows.setdefault(f"{app}/{iso}", {})
            seeds[int(history_seed)] = (
                seeds.get(int(history_seed), "") + str(op.predictions)
            )
            if args.workload == "sweep-tiny" and op.verdict == "UNSAT":
                checked += 1
                spec = next(s for s in workload.items if _round_key(s) == op.key)
                for what in crosscheck(spec):
                    disagreements.append(f"{op.key} {what}")
                    print(f"DISAGREEMENT {op.key} {what}", flush=True)
        print(f"--seed {seed}: {time.monotonic() - started:.1f} s", flush=True)

    table = {}
    if os.path.exists(TABLE_PATH):
        with open(TABLE_PATH) as fh:
            table = json.load(fh)
    entry = {}
    for key, seeds in sorted(rows.items()):
        if sorted(seeds) != list(range(1, len(seeds) + 1)):
            raise SystemExit(f"{key}: history seeds are not contiguous")
        entry[key] = ",".join(seeds[s] for s in sorted(seeds))
    table[args.workload] = entry
    if args.workload == "sweep-tiny":
        table["crosscheck"] = {
            "workload": "sweep-tiny",
            "unsat_checked": checked,
            "encodings": ["pco_mode=rank", "fixpoint_rounds=3"],
            "disagreements": disagreements,
        }
    with open(TABLE_PATH, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"pinned {args.workload} for --seed {args.seeds.start}-"
          f"{args.seeds.stop - 1}; {len(disagreements)} disagreement(s) "
          f"in {checked} cross-checked UNSAT histories")
    return 0


if __name__ == "__main__":
    sys.exit(main())

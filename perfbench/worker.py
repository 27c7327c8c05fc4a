"""One workload process: set up, run the closed loop, check, report.

Started by ``run.py`` (never by hand) with ``PYTHONPATH`` pointing at the
checkout's ``src``. Writes one JSON document to ``--out``:

* ``--setup-only``: the moment the workload inputs were built, then exit —
  ``run.py`` times several of these fresh interpreters for ``setup_s``;
* ``--trace 0``: passes over the inputs until ``--seconds`` are up (the
  first ``MIN_PASSES`` always complete), then the end-to-end metrics;
* ``--trace 1``: one pass untraced and the same pass traced, alternating
  per operation (per whole pass on watch), then the per-layer metrics and
  the trace file.
"""
from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import resource
import statistics
import sys
import time

clock = time.perf_counter
import_start = clock()
import repro  # noqa: E402  (timed: this is the import the user pays)
import_s = clock() - import_start

HERE = os.path.dirname(os.path.abspath(__file__))
#: Whole passes every untraced run makes, however long they take.
MIN_PASSES = 2
#: Operations on either side whose reference runs set an operation's unit.
REF_NEIGHBOURS = 5

import oracle  # noqa: E402
from tracer import SAT_COUNTERS, Tracer  # noqa: E402
from workloads import WORKLOADS, no_reference, no_span  # noqa: E402

#: Program-reported counters -> the traced run's name for the same count.
TRACE_NAME = {
    "clauses": "smt.clauses", "vars": "smt.vars", "literals": "smt.literals",
    **{k: f"sat.{k}" for k in SAT_COUNTERS},
    "attempts": "campaign.attempts",
    "windows": "serve.windows", "findings": "serve.findings",
    "duplicates": "serve.duplicates",
    "coverage_gap_pairs": "serve.coverage_gap_pairs",
}


def percentile(values: list, q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def calibration_s() -> float:
    """A fixed pure-Python loop, so walls compare across machines."""
    times = []
    for _ in range(5):
        start = clock()
        acc = 0
        for i in range(300_000):
            acc = (acc + i * i) % 1_000_003
        times.append(clock() - start)
    return statistics.median(times)


def peak_rss_mb() -> float:
    """The process's resident-memory high-water mark so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def code_digest(root: str) -> str:
    """Hash of the program and benchmark sources a run measured."""
    paths = sorted(glob.glob(os.path.join(root, "src", "**", "*.py"),
                             recursive=True))
    paths += sorted(glob.glob(os.path.join(HERE, "*.py")))
    paths.append(str(oracle.TABLE_PATH))
    digest = hashlib.sha256()
    for path in paths:
        digest.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def program_counters(ops: list) -> dict:
    total: dict = {}
    for op in ops:
        for key, value in op.counters.items():
            total[key] = total.get(key, 0) + value
    return total


def fingerprint(op) -> tuple:
    return (op.key, op.verdict, op.predictions, op.validated, op.diverged,
            tuple(sorted(op.counters.items())))


def check_ops(workload, first: list, repeats: list, table: dict) -> dict:
    """Failures by operation key, and what was checked."""
    failures: dict = {}
    workload.certify_inputs(first)
    certify_failures = 0
    for op in first:
        if op.verdict in ("ERROR", "UNKNOWN") or op.error:
            failures[op.key] = op.error or op.verdict
        for history, level in op.predicted:
            if not oracle.certify(history, level):
                certify_failures += 1
                failures[op.key] = "certificate failed"
    unpinned = 0
    for op in first:
        want = oracle.expected_predictions(table, workload.name, op.key)
        if want is None:
            unpinned += 1
        elif want != op.predictions:
            failures.setdefault(
                op.key, f"expected {want} prediction(s), got {op.predictions}"
            )
    reference = {op.key: fingerprint(op) for op in first}
    for op in repeats:
        if fingerprint(op) != reference.get(op.key):
            failures.setdefault(op.key, "repeat differs from the first pass")
    return {"failures": failures, "certify_failures": certify_failures,
            "unpinned": unpinned, "checked": len(first)}


def ratios(first: list) -> dict:
    predicted = sum(1 for op in first if op.predictions)
    validated = sum(op.validated for op in first)
    return {
        "predicted_ratio": predicted / len(first),
        "validated_ratio": validated / predicted if predicted else 0.0,
    }


def end_to_end(passes: list, peak_mb: float) -> dict:
    """The end-to-end metrics, with operation times in reference units.

    A host shared with other work can change speed by 2x within minutes, so
    each operation's time is divided by the median of the reference loop
    (``workloads.reference_s``) measured after it and after its
    ``REF_NEIGHBOURS`` neighbours on either side: a change to the program
    moves the quotient, a change in the host's speed moves both sides.
    Every pass runs the same inputs, so an operation key then has one time
    per pass that reached it; contention only ever adds time, so the least
    is kept (``timeit``'s rule). The metrics are taken over the first
    pass's operations at those times. ``seconds`` holds the same figures in
    seconds on the host that ran them, for reading, not for comparing runs.
    """
    ops = [op for p in passes for op in p]
    refs = [op.ref for op in ops]
    best: dict = {}
    best_s: dict = {}
    for i, op in enumerate(ops):
        lo = max(0, i - REF_NEIGHBOURS)
        units = op.seconds / statistics.median(refs[lo:i + REF_NEIGHBOURS + 1])
        best[op.key] = min(units, best.get(op.key, units))
        best_s[op.key] = min(op.seconds, best_s.get(op.key, op.seconds))
    first = passes[0]
    histories = sum(1 for op in first if op.history_done)

    def figures(times: dict) -> tuple:
        each = [times[op.key] for op in first]
        sat = [times[op.key] for op in first if op.verdict == "SAT"]
        unsat = [times[op.key] for op in first if op.verdict == "UNSAT"]
        return (histories / sum(each), percentile(each, 50),
                percentile(each, 90), percentile(sat, 50) if sat else 0.0,
                percentile(unsat, 50) if unsat else 0.0)

    per_unit, p50, p90, sat_p50, unsat_p50 = figures(best)
    per_s, p50_s, p90_s, sat_p50_s, unsat_p50_s = figures(best_s)
    metrics = {
        "histories_per_kref": 1000 * per_unit,
        "verdict_p90_ref": p90,
        "sat_verdict_p50_ref": sat_p50,
        "unsat_verdict_p50_ref": unsat_p50,
        "predicted_ratio": ratios(first)["predicted_ratio"],
        "peak_rss_mb": peak_mb,
    }
    seconds = {
        "histories_per_s": per_s, "verdict_p50_s": p50_s,
        "verdict_p90_s": p90_s, "sat_verdict_p50_s": sat_p50_s,
        "unsat_verdict_p50_s": unsat_p50_s, "verdict_p50_ref": p50,
        "reference_s": statistics.median(refs),
    }
    return metrics, seconds


def run_untraced(workload, seconds: float) -> dict:
    start = clock()
    deadline = start + seconds
    passes = [workload.run_pass(None)]
    # read after the first pass, which is the same work on every run: the
    # program's resident memory keeps growing with each further round
    peak_mb = peak_rss_mb()
    # whole passes up to MIN_PASSES, so every operation has that many runs
    while len(passes) < MIN_PASSES or clock() < deadline:
        passes.append(workload.run_pass(
            deadline if len(passes) >= MIN_PASSES else None
        ))
    wall = clock() - start
    metrics, seconds = end_to_end(passes, peak_mb)
    first = passes[0]
    repeats = [op for p in passes[1:] for op in p]
    counters = dict(program_counters(first), **ratios(first))
    return {
        "metrics": metrics,
        "seconds": seconds,
        "checks": check_ops(workload, first, repeats, oracle.load_table()),
        "attempted": len(first) + len(repeats),
        "ops": [len(p) for p in passes],
        "wall_s": wall,
        "counters": counters,
        "keys": [op.key for op in first] + [op.key for op in repeats],
    }


def run_traced(workload, trace_path: str) -> dict:
    # untraced and traced runs of the same inputs alternate in small chunks,
    # so the host's speed drifts alike for both sides of the overhead
    first, traced = [], []
    untraced_wall = traced_wall = 0.0
    tracer = Tracer()
    # the reference loop would land in the watch workloads' serve span
    workload.reference = no_reference
    for chunk in workload.trace_chunks():
        start = clock()
        first += workload.run_pass(None, chunk)
        untraced_wall += clock() - start
        tracer.install(workload.name)
        workload.op_scope = tracer.op
        start = clock()
        try:
            traced += workload.run_pass(None, chunk)
        finally:
            traced_wall += clock() - start
            tracer.uninstall()
            workload.op_scope = no_span
    checks = check_ops(workload, first, traced, oracle.load_table())
    c = tracer.counters
    problems = []
    # deterministic counters: the traced pass must count what the program
    # reported for the untraced pass
    for key, value in program_counters(first).items():
        if c.get(TRACE_NAME[key], 0) != value:
            problems.append(
                f"{TRACE_NAME[key]}: traced {c.get(TRACE_NAME[key], 0)} "
                f"!= reported {value}"
            )
    families = dict.fromkeys(oracle.FAMILIES, 0)
    for record in tracer.encodings:
        for family, n in oracle.clause_families(record).items():
            families[family] += n
    encoded = c["smt.clauses"] - c["smt.clauses.blocking"]
    if sum(families.values()) != encoded:
        problems.append(
            f"clause families sum to {sum(families.values())}, "
            f"the solvers hold {encoded} encoding clauses"
        )
    busy, self_s = tracer.busy, tracer.self_s
    metrics = {
        "record.calls": c["record.calls"],
        "record.busy_s": busy["record"],
        "record.txns": c["record.txns"],
        "record.events": c["record.events"],
        "encode.busy_s": busy["encode"],
        "encode.feasibility.busy_s": 0.0,
        "encode.unser.busy_s": 0.0,
        "encode.isolation.busy_s": 0.0,
        "encode.constraints": c["encode.constraints"],
        "compile.calls": c["compile.calls"],
        "compile.busy_s": busy["compile"],
        "smt.clauses": c["smt.clauses"],
        "smt.vars": c["smt.vars"],
        "smt.literals": c["smt.literals"],
        **{f"smt.clauses.{f}": n for f, n in families.items()},
        "smt.clauses.blocking": c["smt.clauses.blocking"],
        "solve.calls": c["solve.calls"],
        "solve.busy_s": busy["solve"],
        "solve.sat_ratio": c["solve.sat"] / c["solve.calls"]
        if c["solve.calls"] else 0.0,
        **{f"sat.{k}": c[f"sat.{k}"] for k in SAT_COUNTERS},
        "decode.calls": c["decode.calls"],
        "decode.busy_s": busy["decode"],
        "certify.calls": c["certify.calls"],
        "certify.busy_s": busy["certify"],
        "certify.failures": checks["certify_failures"],
        "validate.calls": c["validate.calls"],
        "validate.busy_s": busy["validate"],
        "validate.self_s": self_s["validate"],
        "validate.confirmed": c["validate.confirmed"],
        "validate.diverged": c["validate.diverged"],
        "campaign.self_s": self_s["campaign"],
        "campaign.attempts": c["campaign.attempts"],
        "serve.windows": c["serve.windows"],
        "serve.findings": c["serve.findings"],
        "serve.duplicates": c["serve.duplicates"],
        "serve.coverage_gap_pairs": c["serve.coverage_gap_pairs"],
        "serve.self_s": self_s["serve"],
        "import.busy_s": import_s,
        "other_s": self_s["op"],
        # per operation, traced over untraced time of the same input: the
        # median pair resists the host's bursts better than the two walls
        "trace.overhead_ratio": statistics.median(
            t.seconds / u.seconds for u, t in zip(first, traced)
        ) - 1.0,
        **ratios(first),
        "failed_ratio": len(checks["failures"]) / len(first),
    }
    for event in tracer.events:
        name = event["name"]
        if name in ("encode.feasibility", "encode.unser", "encode.isolation"):
            metrics[f"{name}.busy_s"] += event["dur"]
    events = tracer.jsonl_events(metrics)
    Tracer.write(trace_path, events)
    from repro.obs.report import build_report, validate_events

    problems += [f"trace: {p}" for p in validate_events(events)]
    report = build_report(events)
    return {
        "metrics": metrics,
        "checks": checks,
        "attempted": len(first) + len(traced),
        "ops": [len(first), len(traced)],
        "wall_s": untraced_wall + traced_wall,
        "problems": problems,
        "critical_path": [s["name"] for s in report["critical_path"]],
        "span_count": report["span_count"],
        "keys": [op.key for op in first] * 2,
    }


def check_repeatable(out_dir: str, name: str, seed: int, digest: str,
                     counters: dict) -> list:
    """Deterministic counters must match every earlier run of this code."""
    path = os.path.join(out_dir, f"counters-{name}-seed{seed}.json")
    try:
        with open(path) as fh:
            earlier = json.load(fh)
    except FileNotFoundError:
        earlier = None
    if earlier is not None and earlier["code"] == digest:
        if earlier["counters"] != counters:
            return [f"deterministic counters differ from {path}"]
        return []
    with open(path, "w") as fh:
        json.dump({"code": digest, "counters": counters}, fh, sort_keys=True)
    return []


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    root = os.path.dirname(HERE)

    workload = WORKLOADS[args.workload](args.seed)
    build = getattr(workload, "build_inputs", None)
    if build is not None:
        build()
    result = {"ready": time.monotonic(), "import_s": import_s,
              "repro": os.path.abspath(repro.__file__)}
    if not args.setup_only:
        out_dir = os.path.dirname(os.path.abspath(args.out))
        if args.trace:
            trace_path = os.path.join(
                out_dir, f"trace-{args.workload}-seed{args.seed}.jsonl"
            )
            result.update(run_traced(workload, trace_path))
            result["trace_file"] = os.path.relpath(trace_path, root)
        else:
            result.update(run_untraced(workload, args.seconds))
            result["problems"] = check_repeatable(
                out_dir, args.workload, args.seed, code_digest(root),
                result.pop("counters"),
            )
        result["calibration_s"] = calibration_s()
        result["python"] = sys.version.split()[0]
        result["nproc"] = len(os.sched_getaffinity(0))
        keys = result.pop("keys")
        failures = result["checks"]["failures"]
        result["failed"] = sum(1 for key in keys if key in failures)
    with open(args.out, "w") as fh:
        json.dump(result, fh, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

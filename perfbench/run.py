"""IsoPredict end-to-end benchmark: one workload, one seed, one result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep-tiny --seed 0 --seconds 45 --trace 0

This process only orchestrates; it never imports ``repro``. It times
several fresh interpreters from start to "workload inputs built" for
``setup_s``, then starts one worker process (``worker.py``) that runs the
workload as a closed loop with one client and checks every answer. It
prints every metric by name with its unit, then, as the last line, one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` — the
end-to-end metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.

It exits non-zero without a result when the checkout holds no program to
measure (no ``src/repro``) or a worker fails, and with ``correct: false``
when a check fails. See ``perfbench/README.md``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

#: Fresh interpreters timed for setup_s, besides the measuring worker.
SETUP_PROBES = 7
#: Wall limit for the whole invocation.
DEADLINE_S = 170.0


def worker(args, extra: list, out: str, timeout: float) -> tuple[float, dict]:
    """Run one worker to completion; return (spawn instant, its result)."""
    # the program's own telemetry, fault injection and retry settings stay
    # at their defaults (off)
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("ISOPREDICT_")}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out, *extra]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    try:
        code = proc.wait(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"perfbench: worker exceeded {timeout:.0f} s")
    if code != 0:
        raise SystemExit(f"perfbench: worker exited with {code}")
    with open(out) as fh:
        return spawned, json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    began = time.monotonic()
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no src/repro in this checkout; nothing to measure",
              file=sys.stderr)
        return 2
    with open(SPEC) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}")

    setups = []
    for i in range(SETUP_PROBES):
        spawned, probe = worker(args, ["--setup-only"], f"{stem}-setup{i}.json",
                                DEADLINE_S - (time.monotonic() - began))
        setups.append(probe["ready"] - spawned)
    spawned, result = worker(args, [], f"{stem}-trace{args.trace}.json",
                             DEADLINE_S - (time.monotonic() - began))
    setups.append(result["ready"] - spawned)
    expected_root = os.path.join(ROOT, "src", "repro")
    if os.path.dirname(result["repro"]) != expected_root:
        print(f"perfbench: measured {result['repro']}, not this checkout",
              file=sys.stderr)
        return 2

    metrics = dict(result["metrics"], setup_s=statistics.median(setups))
    units = {m["name"]: m["unit"] for m in wanted}
    missing = sorted(set(units) - set(metrics))
    problems = list(result.get("problems", []))
    if missing:
        problems.append(f"metrics not measured: {missing}")
    checks = result["checks"]
    for key, why in sorted(checks["failures"].items()):
        problems.append(f"failed {key}: {why}")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{result['ops']} operations per pass in {result['wall_s']:.2f} s; "
          f"python {result['python']}, nproc {result['nproc']}, "
          f"calibration {result['calibration_s']:.4f} s; "
          f"{checks['checked']} verdicts checked, {checks['unpinned']} "
          f"not pinned in the table")
    if args.trace:
        print(f"trace: {result['trace_file']}, {result['span_count']} spans, "
              f"critical path {' > '.join(result['critical_path'])}")
    for name, unit in units.items():
        if name in metrics:
            print(f"  {name:<28} {metrics[name]:>14.6g} {unit}")
    if "seconds" in result:
        print("in seconds on this host (for reading; runs compare in ref units):")
        for name, value in result["seconds"].items():
            print(f"  {name:<28} {value:>14.6g}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items() if name in metrics
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

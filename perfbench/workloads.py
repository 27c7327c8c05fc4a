"""The benchmark's workloads: inputs derived from a seed, and one pass over them.

Every workload turns ``--seed`` into a fixed, ordered list of
(app, isolation, history seed) items, so the same seed always gives the
same inputs and a claim can be re-checked on a seed nobody tuned on.
History seeds for ``--seed n`` are ``n*K + 1 … n*K + K``: ``--seed 0``
covers the record seed 1 that ``benchmarks/perf_suite.py`` used.

A *pass* runs each item once, in order, in this process, as a closed loop
with one client, and runs ``reference_s`` after each operation. The
worker repeats passes until the run's time is up; the first
``worker.MIN_PASSES`` passes are always complete, and the deterministic
counters and ratios come from the first. Each pass returns :class:`Op`
records; what an operation is depends on the workload:

* ``sweep-tiny`` and ``predict-small`` — one history, recorded, predicted
  and (when a prediction exists) validated by replay;
* ``watch-small`` and ``watch-large`` — one window of a streamed history.
"""
from __future__ import annotations

import contextlib
import gc
import time
from dataclasses import dataclass, field
from typing import Optional

APPS = ("smallbank", "voter", "tpcc", "wikipedia")

clock = time.perf_counter


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def reference_s() -> float:
    """Time one run of a fixed pure-Python loop of dicts, tuples and objects.

    Run after every operation, it reads the host's speed at that moment;
    ``worker.end_to_end`` expresses operation times in its units. It never
    touches ``repro``, and collection is paused while it runs so the size
    of the program's heap does not leak into it.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = clock()
        counts: dict = {}
        points = []
        for i in range(3000):
            key = (i % 101, i % 7)
            counts[key] = counts.get(key, 0) + 1
            points.append(_Point(i, key))
        sorted(counts.items())
        return clock() - start
    finally:
        if was_enabled:
            gc.enable()


def no_reference() -> float:
    """The reference of a traced run, which reports seconds, not units."""
    return 0.0


def no_span(**attrs):
    """The operation scope of an untraced pass."""
    return contextlib.nullcontext()


@dataclass
class Op:
    """One operation: its identity, wall time and verdict."""

    key: str  # table key: "<app>/<isolation>/<history seed>[/<window>]"
    seconds: float
    predictions: int = 0
    verdict: str = "UNSAT"  # SAT | UNSAT | UNKNOWN | ERROR
    validated: int = 0
    diverged: int = 0
    history_done: bool = True  # watch-large: last window of its history
    counters: dict = field(default_factory=dict)  # program-reported sizes
    predicted: list = field(default_factory=list)  # (History, level) pairs
    error: str = ""
    ref: float = 0.0  # reference_s() run right after the operation; untraced


def history_seeds(seed: int, per_run: int) -> list[int]:
    return [seed * per_run + 1 + i for i in range(per_run)]


def _stats_counters(stats: dict) -> dict:
    """The deterministic size and search counters of an analysis result."""
    keys = (
        "clauses", "vars", "literals", "propagations", "conflicts",
        "decisions", "restarts", "learned", "theory_conflicts",
    )
    return {k: int(stats.get(k, 0)) for k in keys}


def _round_key(spec) -> str:
    return f"{spec.app}/{spec.isolation}/{spec.seed}"


class SweepTiny:
    """Campaign rounds in process over ``tiny`` histories (3–4 transactions).

    Fixed per-history costs dominate here (encode, compile, record,
    validate); SAT search is small. A per-history set-up change or a
    smaller encoding shows; a SAT-core change should not.
    """

    name = "sweep-tiny"
    per_run = 40  # history seeds per run: 4 apps x 2 configs x 40 = 320 rounds
    configs = (("causal", "approx-relaxed"), ("rc", "approx-strict"))

    def __init__(self, seed: int):
        from repro.campaign import rounds
        from repro.campaign.spec import RoundSpec

        self._rounds = rounds
        self.op_scope = no_span
        self.reference = reference_s
        self.items = [
            RoundSpec(app=app, isolation=iso, strategy=strategy,
                      workload="tiny", seed=s)
            for s in history_seeds(seed, self.per_run)
            for app in APPS
            for iso, strategy in self.configs
        ]

    def trace_chunks(self) -> list:
        """Traced and untraced runs alternate per round."""
        return [[spec] for spec in self.items]

    def run_pass(self, stop_at: Optional[float], items=None) -> list[Op]:
        ops = []
        for spec in self.items if items is None else items:
            if stop_at is not None and clock() >= stop_at:
                break
            with self.op_scope(key=_round_key(spec)):
                start = clock()
                # looked up on the module so the traced run's wrapper applies
                result = self._rounds.run_round(spec)
                seconds = clock() - start
            ops.append(self._op(spec, result, seconds))
            ops[-1].ref = self.reference()
        return ops

    @staticmethod
    def _op(spec, result, seconds: float) -> Op:
        verdict = {"sat": "SAT", "unsat": "UNSAT", "unknown": "UNKNOWN"}.get(
            result.status, "ERROR"
        )
        return Op(
            key=_round_key(spec),
            seconds=seconds,
            predictions=result.predicted,
            verdict=verdict,
            validated=int(result.validated),
            diverged=int(result.diverged),
            counters={"clauses": result.clauses, "literals": result.literals,
                      "attempts": result.attempts},
            error=result.error.strip().splitlines()[-1] if result.error else "",
        )

    def certify_inputs(self, ops: list[Op]) -> None:
        """Recover the predicted histories of SAT rounds, outside the timer.

        A campaign round reports counts, not histories, so each SAT round
        is analyzed once more; the repeat must reproduce the round's
        prediction count and clause total exactly.
        """
        from repro.api import Analysis

        by_key = {_round_key(s): s for s in self.items}
        for op in ops:
            if op.verdict != "SAT":
                continue
            spec = by_key[op.key]
            session = (
                Analysis(spec.history_source())
                .under(spec.isolation)
                .using(spec.strategy, max_seconds=spec.max_seconds,
                       solver=spec.solver)
            )
            batch = session.predict(k=spec.max_predictions)
            if (len(batch), batch.stats.get("clauses", 0)) != (
                op.predictions, op.counters["clauses"]
            ):
                op.error = "repeat analysis differs from the campaign round"
            op.predicted = [(p.predicted, p.isolation) for p in batch]


class PredictSmall:
    """``Analysis.run`` on the paper's headline configuration.

    The four apps, ``small`` histories (11–12 transactions), causal with
    approx-relaxed, k=1, validation on. SAT search is 60–90% of each
    history, so encoding and solver changes show here on both verdicts.
    """

    name = "predict-small"
    per_run = 5

    def __init__(self, seed: int):
        from repro.bench_apps import WorkloadConfig

        self.config = WorkloadConfig.small()
        self.op_scope = no_span
        self.reference = reference_s
        self.items = [
            (app, s) for s in history_seeds(seed, self.per_run) for app in APPS
        ]

    def trace_chunks(self) -> list:
        """Traced and untraced runs alternate per history."""
        return [[item] for item in self.items]

    def run_pass(self, stop_at: Optional[float], items=None) -> list[Op]:
        from repro.api import Analysis
        from repro.sources import BenchAppSource

        ops = []
        for app, s in self.items if items is None else items:
            if stop_at is not None and clock() >= stop_at:
                break
            with self.op_scope(key=f"{app}/causal/{s}"):
                start = clock()
                session = (
                    Analysis(BenchAppSource(app, self.config, s))
                    .under("causal")
                    .using("approx-relaxed")
                )
                result = session.run(k=1, validate=True)
                seconds = clock() - start
            batch = result.batch
            verdict = "SAT" if batch.found else batch.status.value.upper()
            report = result.validation
            ops.append(Op(
                key=f"{app}/causal/{s}",
                seconds=seconds,
                predictions=len(batch),
                verdict=verdict,
                validated=int(report is not None and report.validated),
                diverged=int(report is not None and report.diverged),
                counters=_stats_counters(batch.stats),
                predicted=[(p.predicted, p.isolation) for p in batch],
                ref=self.reference(),
            ))
        return ops

    def certify_inputs(self, ops: list[Op]) -> None:
        """Predictions already travel with each operation."""


class _Backlog:
    """A history source holding pre-recorded runs: the backlog at start.

    ``runs()`` stops handing out histories once ``stop_at`` has passed
    (closed loop), and stamps when each history is handed over, so the
    first window of a history is timed from there.
    """

    name = "perfbench:backlog"

    def __init__(self, runs: list, stop_at: Optional[float], on_handover):
        self._runs = runs
        self._stop_at = stop_at
        self._on_handover = on_handover

    def record(self):
        return self._runs[0]

    def runs(self):
        for run in self._runs:
            if self._stop_at is not None and clock() >= self._stop_at:
                return
            self._on_handover(run)
            yield run


class Watch:
    """``StreamingAnalysis`` over a backlog of recorded histories, k=2.

    The encoder and solver run on many overlapping windows with
    blocking-clause re-checks, alongside the service's windowing and
    dedup. The histories are recorded during set-up and streamed as a
    backlog present at start; an operation is one window.
    """

    name: str
    shape: str  # WorkloadConfig label of the recorded histories
    window: int
    stride: int
    k = 2
    per_run: int

    def __init__(self, seed: int):
        self.items = [
            (app, s) for s in history_seeds(seed, self.per_run) for app in APPS
        ]
        self.runs: list = []
        self.reference = reference_s

    def build_inputs(self) -> None:
        from repro.bench_apps import ALL_APPS, WorkloadConfig, record_observed
        from repro.sources import RecordedRun

        config = getattr(WorkloadConfig, self.shape)()
        app_classes = {a.name: a for a in ALL_APPS}
        for app, s in self.items:
            outcome = record_observed(app_classes[app](config), s)
            self.runs.append(RecordedRun(
                history=outcome.history, meta={"app": app, "seed": s}
            ))

    def trace_chunks(self) -> list:
        """One streaming session over the whole backlog, as untraced."""
        return [self.runs]

    def run_pass(self, stop_at: Optional[float], runs=None) -> list[Op]:
        from repro.serve import StreamingAnalysis

        ops: list[Op] = []
        state = {"mark": clock(), "run": None, "totals": {}}

        def on_handover(run):
            if ops:
                ops[-1].history_done = True
            state["mark"] = clock()
            state["run"] = run

        def on_window(window, admitted):
            now = clock()
            # the service's running totals, differenced per window
            m = session.metrics
            stats = session.families[0].stats
            totals = dict(
                _stats_counters(stats),
                predictions=stats.get("predictions", 0),
                windows=m.windows, findings=m.findings,
                duplicates=m.duplicates,
                coverage_gap_pairs=m.coverage_gap_pairs,
            )
            counters = {k: v - state["totals"].get(k, 0)
                        for k, v in totals.items()}
            state["totals"] = totals
            found = counters.pop("predictions")
            run = state["run"]
            ops.append(Op(
                key=f"{run.meta['app']}/causal/{run.meta['seed']}/{window.index}",
                seconds=now - state["mark"],
                predictions=found,
                verdict="SAT" if found else "UNSAT",
                history_done=False,
                counters=counters,
                ref=self.reference(),
            ))
            state["mark"] = clock()

        source = _Backlog(self.runs if runs is None else runs, stop_at,
                          on_handover)
        session = StreamingAnalysis(
            source, window=self.window, stride=self.stride,
            isolation="causal", strategy="approx-relaxed", k=self.k,
            max_seconds=120.0, on_window=on_window,
        )
        report = session.run()
        if ops:
            ops[-1].history_done = True
        by_key = {op.key: op for op in ops}
        for f in report.findings:
            key = f"{f.run_meta['app']}/causal/{f.run_meta['seed']}/"
            by_key[key + str(f.window_index)].predicted.append(
                (f.prediction.predicted, f.prediction.isolation)
            )
        return ops

    def certify_inputs(self, ops: list[Op]) -> None:
        """Admitted findings carry their predictions already."""


class WatchSmall(Watch):
    """``small`` histories (11–12 transactions), window 6, stride 3."""

    name, shape, window, stride, per_run = "watch-small", "small", 6, 3, 14


class WatchLarge(Watch):
    """``large`` histories (22–24 transactions), window 8, stride 4."""

    name, shape, window, stride, per_run = "watch-large", "large", 8, 4, 5


WORKLOADS = {
    w.name: w for w in (SweepTiny, PredictSmall, WatchSmall, WatchLarge)
}

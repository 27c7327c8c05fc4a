"""The traced run: spans around each layer's public entry points, from outside.

Nothing under ``src/`` is edited. :meth:`Tracer.install` replaces each
layer's entry point at the attribute its caller looks up — ``Solver.check``
on the class, ``decode_history`` on ``repro.predict.analysis`` because that
module imported the name — with a wrapper that opens a span. Spans are kept
in memory, nested under one span per operation, and written at exit as
``repro.obs`` JSONL events, so ``repro.obs.report.validate_events`` and
``build_report`` read them unchanged. The program's own telemetry stays off.

``Solver.add`` runs once per constraint, so it gets no span of its own: its
calls are counted and timed into the enclosing span's ``compile.calls`` /
``compile.busy_s`` attributes. Solver calls made while certifying or
validating (``is_serializable`` solves a commit-order encoding) belong to
those layers and are not counted as compile or solve.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import time
from collections import defaultdict

clock = time.perf_counter

#: SAT-core counters, summed over the prediction solvers' ``Solver.stats``.
SAT_COUNTERS = (
    "propagations", "conflicts", "decisions", "restarts", "learned",
    "theory_conflicts",
)

#: Span name -> layer. Spans of the ``op`` layer are the operations.
LAYER_OF = {
    "op": "op",
    "record": "record",
    "encode.init": "encode",
    "encode.feasibility": "encode",
    "encode.unser": "encode",
    "encode.isolation": "encode",
    "encode.definitions": "encode",
    "solve": "solve",
    "decode": "decode",
    "certify": "certify",
    "validate": "validate",
    "campaign.round": "campaign",
    "serve.run": "serve",
}

#: Layers inside which solver calls belong to the layer itself.
_SHIELDING = ("certify", "validate")


class _Span:
    __slots__ = ("sid", "parent", "name", "start", "attrs", "child",
                 "calls", "busy")

    def __init__(self, sid, parent, name, start, attrs):
        self.sid, self.parent, self.name = sid, parent, name
        self.start, self.attrs = start, attrs
        self.child = 0.0  # time covered by child spans
        self.calls = 0  # aggregated Solver.add calls
        self.busy = 0.0  # ... and their time


class Tracer:
    """In-memory spans plus the per-layer counters gathered with them."""

    def __init__(self):
        self.trace_id = os.urandom(8).hex()
        self.pid = os.getpid()
        self._wall0, self._t0 = time.time(), clock()
        self.events: list[dict] = []
        self.stack: list[_Span] = []
        self._next = 0
        self._depth = defaultdict(int)  # open spans per layer
        self.busy = defaultdict(float)  # layer -> outermost span time
        self.self_s = defaultdict(float)  # layer -> time in no child span
        self.counters = defaultdict(int)
        self._solvers: dict[int, list] = {}  # id -> [solver, first-check clauses]
        self._encodings: dict[int, dict] = {}
        self.encodings: list[dict] = []  # inputs for the clause-family split
        self._undo: list = []

    # -- spans ------------------------------------------------------------
    def open(self, name: str, **attrs) -> _Span:
        self._next += 1
        parent = self.stack[-1].sid if self.stack else None
        span = _Span(f"{self._next:x}", parent, name, clock(), attrs)
        self.stack.append(span)
        self._depth[LAYER_OF[name]] += 1
        return span

    def close(self, span: _Span) -> None:
        end = clock()
        popped = self.stack.pop()
        if popped is not span:  # a wrapper's finally runs innermost-first
            raise RuntimeError(f"span {span.name} closed out of order")
        dur = end - span.start
        layer = LAYER_OF[span.name]
        self._depth[layer] -= 1
        if self._depth[layer] == 0:
            self.busy[layer] += dur
        self.self_s[layer] += dur - span.child - span.busy
        if self.stack:
            self.stack[-1].child += dur
        if span.calls:
            span.attrs["compile.calls"] = span.calls
            span.attrs["compile.busy_s"] = span.busy
            self.counters["compile.calls"] += span.calls
            self.busy["compile"] += span.busy
        if span.name == "op":
            self._fold_solvers()
        self.events.append({
            "event": "span", "trace": self.trace_id, "span": span.sid,
            "parent": span.parent, "name": span.name,
            "ts": self._wall0 + (span.start - self._t0), "dur": dur,
            "pid": self.pid, "attrs": span.attrs,
        })

    @contextlib.contextmanager
    def op(self, **attrs):
        """One operation's span, for workloads whose operations we call."""
        span = self.open("op", **attrs)
        try:
            yield span
        finally:
            self.close(span)

    def _shielded(self) -> bool:
        return any(self._depth[layer] for layer in _SHIELDING)

    # -- solver accounting ------------------------------------------------
    def _track(self, solver, checking: bool) -> None:
        entry = self._solvers.get(id(solver))
        if entry is None:
            entry = self._solvers[id(solver)] = [solver, None]
        if checking and entry[1] is None:
            entry[1] = solver.num_clauses

    def _fold_solvers(self) -> None:
        """Sizes of the operation's prediction solvers, once it is over."""
        for solver, first in self._solvers.values():
            clauses = solver.num_clauses
            self.counters["smt.clauses"] += clauses
            self.counters["smt.vars"] += solver.num_vars
            self.counters["smt.literals"] += solver.num_literals
            self.counters["smt.clauses.blocking"] += (
                clauses - (clauses if first is None else first)
            )
            # propagation also runs while clauses are added, so the search
            # counters are read off the solver, not timed around check()
            stats = solver.stats
            for key in SAT_COUNTERS:
                self.counters[f"sat.{key}"] += stats.get(key, 0)
        self._solvers.clear()

    # -- patching ---------------------------------------------------------
    def _patch(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, functools.wraps(original)(make(original)))
        self._undo.append((owner, attr, original))

    def _spanning(self, name: str, after=None):
        tracer = self

        def make(fn):
            def wrapper(*args, **kwargs):
                span = tracer.open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.close(span)
                if after is not None:
                    after(args, result)
                return result
            return wrapper
        return make

    def install(self, workload: str) -> None:
        """Wrap every layer's entry points for one workload's traced pass."""
        mod = importlib.import_module
        analysis = mod("repro.predict.analysis")
        sources = mod("repro.sources")
        validator = mod("repro.validate.validator")
        smt = mod("repro.smt")
        c = self.counters

        def recorded(args, outcome):
            history = outcome.history
            c["record.calls"] += 1
            c["record.txns"] += len(history.transactions())
            c["record.events"] += sum(
                len(t.events) for t in history.transactions()
            )

        def validated(args, report):
            c["validate.calls"] += 1
            c["validate.confirmed"] += int(report.validated)
            c["validate.diverged"] += int(report.diverged)

        def constraints(args, out):
            c["encode.constraints"] += len(out)

        def certified(args, out):
            c["certify.calls"] += 1

        def decoded(args, out):
            c["decode.calls"] += 1

        self._patch(sources, "record_observed", self._spanning("record", recorded))
        self._patch(sources, "validate_prediction",
                    self._spanning("validate", validated))
        self._patch_encoding(analysis, constraints)
        self._patch(analysis, "pco_cycle", self._spanning("certify", certified))
        for name in ("is_serializable", "is_valid_under"):
            self._patch(validator, name, self._spanning("certify", certified))
        for name in ("decode_history", "decode_boundaries"):
            self._patch(analysis, name, self._spanning("decode", decoded))
        self._patch_solver(smt.Solver, decoded)
        if workload == "sweep-tiny":
            rounds = mod("repro.campaign.rounds")

            def attempts(args, result):
                c["campaign.attempts"] += result.attempts

            self._patch(rounds, "run_round",
                        self._spanning("campaign.round", attempts))
        if workload.startswith("watch-"):
            service = mod("repro.serve.service")

            def served(args, report):
                m = report.metrics
                c["serve.windows"] += m.windows
                c["serve.findings"] += m.findings
                c["serve.duplicates"] += m.duplicates
                c["serve.coverage_gap_pairs"] += m.coverage_gap_pairs

            self._patch(service.StreamingAnalysis, "run",
                        self._spanning("serve.run", served))
            # one window per family call: the watch operation
            self._patch(service.WindowFamily, "analyze", self._spanning("op"))

    def _patch_encoding(self, analysis, constraints) -> None:
        tracer = self
        encoding_cls = analysis.Encoding

        def make_init(init):
            def __init__(enc, *args, **kwargs):
                span = tracer.open("encode.init")
                try:
                    init(enc, *args, **kwargs)
                finally:
                    tracer.close(span)
                record = {"args": args, "kwargs": kwargs, "unser": False,
                          "level": None}
                tracer._encodings[id(enc)] = record
                tracer.encodings.append(record)
            return __init__

        def unser(args, out):
            constraints(args, out)
            tracer._encodings[id(args[0])]["unser"] = True

        def isolation(args, out):
            constraints(args, out)
            tracer._encodings[id(args[0])]["level"] = args[1]

        self._patch(encoding_cls, "__init__", make_init)
        self._patch(encoding_cls, "feasibility_constraints",
                    self._spanning("encode.feasibility", constraints))
        self._patch(encoding_cls, "definitions",
                    self._spanning("encode.definitions", constraints))
        self._patch(analysis, "approx_unserializability_constraints",
                    self._spanning("encode.unser", unser))
        self._patch(analysis, "isolation_constraints",
                    self._spanning("encode.isolation", isolation))

    def _patch_solver(self, solver_cls, decoded) -> None:
        tracer = self
        c = self.counters

        def make_add(add):
            def wrapper(solver, *exprs):
                if tracer._shielded() or not tracer.stack:
                    return add(solver, *exprs)
                start = clock()
                try:
                    return add(solver, *exprs)
                finally:
                    top = tracer.stack[-1]
                    top.calls += 1
                    top.busy += clock() - start
                    tracer._track(solver, checking=False)
            return wrapper

        def make_check(check):
            def wrapper(solver, *args, **kwargs):
                if tracer._shielded() or not tracer.stack:
                    return check(solver, *args, **kwargs)
                tracer._track(solver, checking=True)
                span = tracer.open("solve")
                try:
                    result = check(solver, *args, **kwargs)
                finally:
                    tracer.close(span)
                c["solve.calls"] += 1
                c["solve.sat"] += int(result.value == "sat")
                return result
            return wrapper

        def make_model(model):
            spanning = tracer._spanning("decode", decoded)(model)

            def wrapper(solver):
                if tracer._shielded():
                    return model(solver)
                return spanning(solver)
            return wrapper

        self._patch(solver_cls, "add", make_add)
        self._patch(solver_cls, "check", make_check)
        self._patch(solver_cls, "model", make_model)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- output -----------------------------------------------------------
    def jsonl_events(self, metrics: dict) -> list[dict]:
        """The trace as ``repro.obs`` events: meta, spans, then metrics."""
        from repro.obs.trace import SCHEMA_VERSION

        meta = {"event": "meta", "schema": SCHEMA_VERSION,
                "trace": self.trace_id, "deterministic": False,
                "command": "perfbench"}
        return [meta, *self.events,
                {"event": "metrics", "trace": self.trace_id,
                 "metrics": metrics}]

    @staticmethod
    def write(path: str, events: list[dict]) -> None:
        with open(path, "w") as fh:
            for event in events:
                fh.write(json.dumps(event, sort_keys=True, default=str) + "\n")
